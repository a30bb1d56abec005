"""Model assembly, config files, checkpoint integration."""

import numpy as np
import numpy.testing as npt
import pytest

from vtfpar.errors import DataError, UsageError
from vtfpar.fusion import FusionConfig
from vtfpar.model import ModelConfig, VideoAttributeModel, load_model_config
from vtfpar.params import load_checkpoint, read_checkpoint_arrays, save_checkpoint
from vtfpar.schema import default_schema
from vtfpar.tensor import Tensor
from vtfpar.text import TextConfig
from vtfpar.vision import VitConfig


def _small_config(blocks=1):
    return ModelConfig(
        vit=VitConfig(image_size=16, patch_size=8, dim=16, depth=1, heads=2, mlp_ratio=2),
        text=TextConfig(dim=16, blocks=1, heads=2, max_len=16, mlp_ratio=2),
        fusion=FusionConfig(dim=16, heads=2, blocks=blocks, mlp_ratio=2),
    )


def test_dim_mismatch_rejected():
    with pytest.raises(UsageError, match="token dims disagree"):
        ModelConfig(vit=VitConfig(dim=96), text=TextConfig(dim=64),
                    fusion=FusionConfig(dim=96))


def test_parameter_names_unique_and_partitioned():
    model = VideoAttributeModel(_small_config(), default_schema(), seed=0)
    names = model.params.names()
    assert len(names) == len(set(names))
    model.set_freeze(True)
    frozen = {p.name for p in model.params if not p.requires_grad}
    assert all(n.startswith(("vision.", "text.")) for n in frozen)
    trainable = {p.name for p in model.params.trainable()}
    assert all(n.startswith(("fusion.", "heads.")) for n in trainable)


def test_save_load_roundtrip(tmp_path):
    model = VideoAttributeModel(_small_config(), default_schema(), seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model.params, path)
    other = VideoAttributeModel(_small_config(), default_schema(), seed=9)
    load_checkpoint(other.params, read_checkpoint_arrays(path), path)
    for p in model.params:
        npt.assert_array_equal(other.params[p.name].data, p.data)
    rng = np.random.default_rng(0)
    clip = rng.random((2, 12, 9, 3)).astype(np.float32)
    npt.assert_array_equal(model.logits_batch(clip[None]).data,
                           other.logits_batch(clip[None]).data)


@pytest.mark.parametrize("blocks", [0, 1, 2])
def test_fuse_classify_matches_heads_on_full_output(blocks):
    # the last fusion block computes only the text rows; slicing the full
    # output before the heads gives the same logits. With zero blocks the
    # stack is the identity, and the heads read text + the mean visual token
    config = _small_config(blocks)
    model = VideoAttributeModel(config, default_schema(), seed=0, dtype=np.float64)
    n_v, m, d = config.vit.n_tokens, model.n_classes, config.fusion.dim
    rng = np.random.default_rng(0)
    visual, text = rng.normal(size=(3, n_v, d)), rng.normal(size=(m, d))
    collect = []
    logits = model.fuse_classify(Tensor(visual), Tensor(text), collect).data
    x = np.concatenate([visual, np.broadcast_to(text, (3, m, d))], axis=1)
    read = model.fusion(Tensor(x)).data[:, n_v:]
    if not blocks:
        read = read + visual.mean(axis=1, keepdims=True)
    full = model.heads(Tensor(read)).data
    npt.assert_allclose(logits, full, rtol=0, atol=1e-12)
    n = n_v + m
    assert [c.shape for c in collect] == (
        [(3, 2, n, n)] * (blocks - 1) + [(3, 2, m, n)] if blocks else [])


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
        assert config.text.dim == 32  # text and fusion take the vision dim
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
        # a well-formed line with a non-integer value is a usage error, at its line
        path = tmp_path / "model.txt"
        path.write_text("[vision]\ndim = many\n", encoding="utf-8")
        with pytest.raises(UsageError, match="model.txt:2: bad value for vision.dim"):
            load_model_config(path)

    def test_bad_line_reported_with_number(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("[vision]\nnonsense line\n", encoding="utf-8")
        with pytest.raises(DataError, match="model.txt:2"):
            load_model_config(path)
