"""Model assembly, config files, checkpoint integration."""

import numpy as np
import numpy.testing as npt
import pytest

from vtfpar.errors import DataError
from vtfpar.fusion import FusionConfig
from vtfpar.model import (ModelConfig, VideoAttributeModel,
                          checkpoint_uses_fusion, load_model_config,
                          paper_scale_config)
from vtfpar.schema import default_schema
from vtfpar.text import TextConfig
from vtfpar.vision import VitConfig


def _small_config(use_fusion=True):
    return ModelConfig(
        vit=VitConfig(image_size=16, patch_size=8, dim=16, depth=1, heads=2, mlp_ratio=2),
        text=TextConfig(dim=16, blocks=1, heads=2, max_len=16, mlp_ratio=2),
        fusion=FusionConfig(dim=16, heads=2, blocks=1, mlp_ratio=2),
        use_fusion=use_fusion,
    )


def test_dim_mismatch_rejected():
    with pytest.raises(DataError):
        ModelConfig(vit=VitConfig(dim=96), text=TextConfig(dim=64),
                    fusion=FusionConfig(dim=96))


def test_parameter_names_unique_and_partitioned():
    model = VideoAttributeModel(_small_config(), default_schema(), seed=0)
    names = model.params.names()
    assert len(names) == len(set(names))
    model.set_freeze(True)
    frozen = {p.name for p in model.params if not p.trainable}
    assert all(n.startswith(("vision.", "text.")) for n in frozen)
    trainable = {p.name for p in model.params.trainable()}
    assert all(n.startswith(("fusion.", "heads.")) for n in trainable)


def test_save_load_roundtrip(tmp_path):
    model = VideoAttributeModel(_small_config(), default_schema(), seed=3)
    path = tmp_path / "m.ckpt"
    model.save(path)
    other = VideoAttributeModel(_small_config(), default_schema(), seed=9)
    other.load(path)
    for p in model.params:
        npt.assert_array_equal(other.params[p.name].data, p.data)
    rng = np.random.default_rng(0)
    clip = rng.random((2, 12, 9, 3)).astype(np.float32)
    npt.assert_array_equal(model.logits_batch(clip[None]).data,
                           other.logits_batch(clip[None]).data)


def test_checkpoint_variant_detection(tmp_path):
    full = VideoAttributeModel(_small_config(True), default_schema(), seed=0)
    nofusion = VideoAttributeModel(_small_config(False), default_schema(), seed=0)
    full.save(tmp_path / "full.ckpt")
    nofusion.save(tmp_path / "nf.ckpt")
    assert checkpoint_uses_fusion(tmp_path / "full.ckpt")
    assert not checkpoint_uses_fusion(tmp_path / "nf.ckpt")


def test_paper_scale_config_geometry():
    config = paper_scale_config()
    assert config.vit.n_tokens == 197
    assert config.vit.dim == 512


class TestModelConfigFile:
    def test_load_with_overrides(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text(
            "# architecture\n[vision]\nimage_size = 16\npatch_size = 8\n"
            "dim = 32\ndepth = 1\nheads = 2\n\n[text]\nblocks = 1\n"
            "heads = 2\n\n[fusion]\nblocks = 3\nheads = 2\n",
            encoding="utf-8")
        config = load_model_config(path)
        assert config.vit.image_size == 16
        assert config.vit.dim == 32
        assert config.text.dim == 32  # follows vision dim by default
        assert config.fusion.blocks == 3

    def test_defaults_when_sections_missing(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("[vision]\ndim = 64\nheads = 4\n", encoding="utf-8")
        config = load_model_config(path)
        assert config.vit.dim == 64
        assert config.fusion.dim == 64

    def test_partial_file_takes_dataclass_defaults(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("[vision]\nheads = 4\n", encoding="utf-8")
        assert load_model_config(path) == ModelConfig()

    def test_unknown_section_and_key_reported_with_line(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("[vision]\ndim = 32\n[decoder]\n", encoding="utf-8")
        with pytest.raises(DataError, match="model.txt:3"):
            load_model_config(path)
        path.write_text("[fusion]\n\nwidth = 4\n", encoding="utf-8")
        with pytest.raises(DataError, match="model.txt:3"):
            load_model_config(path)

    def test_bad_value_reported(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("[vision]\ndim = many\n", encoding="utf-8")
        with pytest.raises(DataError, match="vision.dim"):
            load_model_config(path)

    def test_bad_line_reported_with_number(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("[vision]\nnonsense line\n", encoding="utf-8")
        with pytest.raises(DataError, match="model.txt:2"):
            load_model_config(path)
