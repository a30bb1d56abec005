"""Parameter sets: dtype ownership, seeded initialisation, pinned initial bytes."""

import hashlib

import numpy as np
import numpy.testing as npt
import pytest

from vtfpar.fusion import FusionConfig
from vtfpar.gradcheck import _tiny_model
from vtfpar.model import ModelConfig, VideoAttributeModel
from vtfpar.params import ParameterSet, save_checkpoint
from vtfpar.schema import default_schema

# SHA-256 of the initial parameters. Both depend only on PCG64 draws and
# IEEE casts, so they are the same on every platform; a change to
# parameter names, draw order or initial scales moves them.
DEFAULT_MODEL_SEED0_CHECKPOINT = (
    "34ee75c981a5f52ac4e456041f8c2ebbd99203f7a158b4d254a739cccf8b6b08")
GRADCHECK_MODEL_PARAMETERS = (
    "309938225c86a78d090e01a59e8019849ebe77536f1a329a20d527b827d48d50")


def test_initial_checkpoint_bytes_pinned(tmp_path):
    path = tmp_path / "init.ckpt"
    model = VideoAttributeModel(ModelConfig(), default_schema(), seed=0)
    save_checkpoint(model.params, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEFAULT_MODEL_SEED0_CHECKPOINT


def test_gradcheck_model_parameters_pinned():
    params = _tiny_model().params
    digest = hashlib.sha256()
    for name in sorted(params.names()):
        data = params[name].data
        assert data.dtype == np.float64, name
        digest.update(name.encode())
        digest.update(repr(data.shape).encode())
        digest.update(np.ascontiguousarray(data, dtype="<f8").tobytes())
    assert digest.hexdigest() == GRADCHECK_MODEL_PARAMETERS


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_normal_is_cast_then_scaled_bitwise(dtype):
    params = ParameterSet(dtype)
    p = params.normal("w", (7, 5), 0.02, np.random.default_rng(4))
    expected = 0.02 * np.random.default_rng(4).standard_normal((7, 5)).astype(dtype)
    assert p.data.dtype == dtype
    npt.assert_array_equal(p.data, expected)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_add_casts_to_the_set_dtype(dtype):
    params = ParameterSet(dtype)
    assert params.add("ints", np.arange(3)).data.dtype == dtype
    assert params.add("f32", np.ones(2, dtype=np.float32)).data.dtype == dtype
    assert params.add("f64", np.ones(2)).data.dtype == dtype


@pytest.mark.parametrize("blocks", [2, 0])
@pytest.mark.parametrize("kwargs,dtype", [({}, np.float32), ({"dtype": np.float64}, np.float64)])
def test_model_parameters_all_take_the_model_dtype(kwargs, dtype, blocks):
    model = VideoAttributeModel(ModelConfig(fusion=FusionConfig(blocks=blocks)),
                                default_schema(), **kwargs)
    assert model.params.dtype == dtype
    assert {p.data.dtype for p in model.params} == {np.dtype(dtype)}
    clips = np.zeros((1, 1, 8, 6, 3), dtype=np.float32)
    assert model.logits_batch(clips).dtype == dtype
