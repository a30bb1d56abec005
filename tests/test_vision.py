"""Padding, patch embedding, the vision encoder and the time average."""

import numpy as np
import numpy.testing as npt
import pytest

from vtfpar.errors import UsageError
from vtfpar.params import ParameterSet
from vtfpar.tensor import Tensor, tensor_mean
from vtfpar.vision import (VisionEncoder, VitConfig, bilinear_resize,
                           pad_to_square, patchify)
from tests.blas import assert_equal_on_skylakex


class TestPadToSquare:
    def test_square_input_unchanged_bitwise(self):
        rng = np.random.default_rng(0)
        frame = rng.random((8, 8, 3)).astype(np.float32)
        npt.assert_array_equal(pad_to_square(frame, 8), frame)

    def test_tall_ones_frame_pads_sides(self):
        frame = np.ones((4, 2, 3), dtype=np.float32)
        out = pad_to_square(frame, 4)
        assert out.shape == (4, 4, 3)
        npt.assert_array_equal(out[:, 1:3], np.ones((4, 2, 3)))
        npt.assert_array_equal(out[:, 0], np.zeros((4, 3)))
        npt.assert_array_equal(out[:, 3], np.zeros((4, 3)))

    def test_odd_padding_goes_right_bottom(self):
        frame = np.ones((4, 3, 3), dtype=np.float32)
        out = pad_to_square(frame, 4)
        # pad total 1 -> left 0, right 1
        assert out[:, 0].sum() > 0
        npt.assert_array_equal(out[:, 3], np.zeros((4, 3)))

    def test_padding_adds_no_mass(self):
        rng = np.random.default_rng(1)
        frame = rng.random((6, 6, 3)).astype(np.float32)
        out = pad_to_square(frame, 6)
        assert out.sum() == pytest.approx(frame.sum())

    def test_wide_frame(self):
        frame = np.ones((2, 4, 3), dtype=np.float32)
        out = pad_to_square(frame, 8)
        assert out.shape == (8, 8, 3)
        # content resized to 4x8, centered rows 2..5
        npt.assert_array_equal(out[:2], np.zeros((2, 8, 3)))
        npt.assert_array_equal(out[6:], np.zeros((2, 8, 3)))
        npt.assert_array_equal(out[2:6], np.ones((4, 8, 3)))

    @pytest.mark.parametrize("h, w", [(28, 28), (24, 16), (16, 24)])
    def test_batch_equals_stacked_per_frame_calls(self, h, w):
        rng = np.random.default_rng(4)
        frames = rng.random((2, 3, h, w, 3)).astype(np.float32)
        out = pad_to_square(frames, 32)
        assert out.shape == (2, 3, 32, 32, 3)
        per_frame = np.stack([pad_to_square(f, 32) for f in frames.reshape(6, h, w, 3)])
        npt.assert_array_equal(out.reshape(6, 32, 32, 3), per_frame)

    def test_zero_area_rejected(self):
        with pytest.raises(UsageError, match="pad_to_square: zero-area frame"):
            pad_to_square(np.zeros((0, 3, 3), dtype=np.float32), 4)


class TestBilinearResize:
    def test_identity(self):
        rng = np.random.default_rng(2)
        img = rng.random((5, 7, 3))
        npt.assert_array_equal(bilinear_resize(img, 5, 7), img)
        batch = rng.random((4, 6, 9, 3)).astype(np.float32)
        out = bilinear_resize(batch, 6, 9)
        assert out.dtype == np.float32
        npt.assert_array_equal(out, batch)

    def test_constant_preserved(self):
        img = np.full((3, 4, 3), 0.25, dtype=np.float64)
        out = bilinear_resize(img, 9, 16)
        npt.assert_allclose(out, 0.25, rtol=1e-12)

    def test_range_preserved(self):
        rng = np.random.default_rng(3)
        img = rng.random((6, 6, 3))
        out = bilinear_resize(img, 17, 11)
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12

    @pytest.mark.parametrize("h, w", [(28, 28), (24, 16), (16, 24)])
    def test_batch_equals_per_image_reference(self, h, w):
        # reference: the per-image row-then-column gather, one image at a time
        def one_image(img, new_h, new_w):
            def axis_coords(n_new, n_old):
                src = np.clip((np.arange(n_new) + 0.5) * (n_old / n_new) - 0.5,
                              0.0, n_old - 1.0)
                lo = np.floor(src).astype(np.int64)
                return lo, np.minimum(lo + 1, n_old - 1), (src - lo).astype(img.dtype)

            y0, y1, ty = axis_coords(new_h, img.shape[0])
            x0, x1, tx = axis_coords(new_w, img.shape[1])
            ty, tx = ty[:, None, None], tx[None, :, None]
            top = img[y0][:, x0] * (1 - tx) + img[y0][:, x1] * tx
            bot = img[y1][:, x0] * (1 - tx) + img[y1][:, x1] * tx
            return top * (1 - ty) + bot * ty

        rng = np.random.default_rng(5)
        images = rng.random((4, h, w, 3)).astype(np.float32)
        new_h, new_w = (32, round(w * 32 / h)) if h >= w else (round(h * 32 / w), 32)
        npt.assert_array_equal(bilinear_resize(images, new_h, new_w),
                               np.stack([one_image(im, new_h, new_w) for im in images]))

    @staticmethod
    def rows_then_columns(img, new_h, new_w):
        """Oracle: gather rows, then columns of the row-gathered views."""
        def axis_coords(n_new, n_old):
            src = np.clip((np.arange(n_new) + 0.5) * (n_old / n_new) - 0.5,
                          0.0, n_old - 1.0)
            lo = np.floor(src).astype(np.int64)
            return lo, np.minimum(lo + 1, n_old - 1), (src - lo).astype(img.dtype)

        y0, y1, ty = axis_coords(new_h, img.shape[-3])
        x0, x1, tx = axis_coords(new_w, img.shape[-2])
        ty, tx = ty[:, None, None], tx[None, :, None]
        rows0, rows1 = img[..., y0, :, :], img[..., y1, :, :]
        top = rows0[..., x0, :] * (1 - tx) + rows0[..., x1, :] * tx
        bot = rows1[..., x0, :] * (1 - tx) + rows1[..., x1, :] * tx
        return top * (1 - ty) + bot * ty

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("h, w", [(28, 28), (24, 16), (16, 24), (1, 5), (5, 1),
                                      (1, 1), (7, 3), (4, 4), (33, 2)])
    def test_bitwise_equals_rows_then_columns(self, h, w, lead, dtype):
        rng = np.random.default_rng(h * 100 + w)
        img = rng.random(lead + (h, w, 3)).astype(dtype)
        for new_h, new_w in [(32, 32), (1, 1), (9, 17), (h, w)]:
            out = bilinear_resize(img, new_h, new_w)
            expected = self.rows_then_columns(img, new_h, new_w)
            assert out.dtype == expected.dtype and out.shape == expected.shape
            assert out.tobytes() == expected.tobytes()


class TestPatchify:
    def test_row_major_patch_order(self):
        s, p = 4, 2
        frame = np.arange(s * s * 3, dtype=np.float32).reshape(1, s, s, 3)
        out = patchify(frame, p)
        assert out.shape == (1, 4, p * p * 3)
        npt.assert_array_equal(out[0, 0], frame[0, :2, :2].reshape(-1))
        npt.assert_array_equal(out[0, 1], frame[0, :2, 2:].reshape(-1))
        npt.assert_array_equal(out[0, 2], frame[0, 2:, :2].reshape(-1))


class TestVisionEncoder:
    def _encoder(self, cfg, seed=0):
        return VisionEncoder(ParameterSet(), cfg, np.random.default_rng(seed))

    def test_paper_geometry_token_count(self):
        cfg = VitConfig(image_size=224, patch_size=16, dim=512, depth=1, heads=8)
        assert cfg.n_tokens == 197

    def test_desk_geometry(self):
        cfg = VitConfig(image_size=32, patch_size=8, dim=64, depth=2, heads=4)
        assert cfg.n_tokens == 17
        enc = self._encoder(cfg)
        out = enc.encode(np.zeros((1, 32, 32, 3), dtype=np.float32))
        assert out.shape == (1, 17, 64)

    def test_identical_frames_identical_outputs(self):
        cfg = VitConfig(image_size=16, patch_size=8, dim=16, depth=1, heads=2)
        enc = self._encoder(cfg)
        rng = np.random.default_rng(4)
        frame = rng.random((16, 16, 3)).astype(np.float32)
        out = enc.encode(np.stack([frame, frame])).data
        # on Haswell they differed by at most 3.6e-7, values up to 4.3
        assert_equal_on_skylakex(out[0], out[1], atol=1e-5)

    def test_output_depends_only_on_parameters_for_zero_frames(self):
        cfg = VitConfig(image_size=16, patch_size=8, dim=16, depth=1, heads=2)
        enc = self._encoder(cfg)
        a = enc.encode(np.zeros((1, 16, 16, 3), dtype=np.float32)).data
        b = enc.encode(np.zeros((1, 16, 16, 3), dtype=np.float32)).data
        npt.assert_array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_encode_casts_and_pads_its_frames(self, dtype):
        # unpadded 12x9 frames: the same bits as frames cast and padded by hand
        enc = self._encoder(VitConfig(image_size=16, patch_size=8, dim=16, depth=1, heads=2))
        frames = np.random.default_rng(6).random((3, 12, 9, 3)).astype(dtype)
        by_hand = pad_to_square(frames.astype(np.float32), 16)
        out = enc.encode(frames)
        assert out.dtype == np.float32
        npt.assert_array_equal(out.data, enc.encode(by_hand).data)

    def test_encode_rejects_frames_without_batch_axis(self):
        enc = self._encoder(VitConfig(image_size=16, patch_size=8, dim=16, depth=1, heads=2))
        with pytest.raises(UsageError,
                           match=r"^encode expects frames \(b, h, w, 3\), got \(12, 9, 3\)$"):
            enc.encode(np.zeros((12, 9, 3), dtype=np.float32))

    def test_config_validation(self):
        with pytest.raises(UsageError,
                           match="image size 30 must be a positive multiple of patch 8"):
            VitConfig(image_size=30, patch_size=8)
        with pytest.raises(UsageError,
                           match="vision dim 30 must be a positive multiple of heads 4"):
            VitConfig(dim=30, heads=4)


class TestTemporalAverage:
    """The model's time average: mean over the frame axis of (b, t, n, d)."""

    def test_single_frame_identity(self):
        x = Tensor(np.random.default_rng(5).random((1, 1, 4, 3)).astype(np.float32))
        npt.assert_array_equal(tensor_mean(x, axis=1).data, x.data[:, 0])

    def test_two_frame_mean(self):
        x = Tensor(np.stack([np.zeros((3, 2)), np.full((3, 2), 2.0)])[None])
        npt.assert_array_equal(tensor_mean(x, axis=1).data, np.ones((1, 3, 2)))

    def test_permutation_invariance_within_tolerance(self):
        rng = np.random.default_rng(6)
        frames = rng.random((1, 6, 5, 4)).astype(np.float32)
        base = tensor_mean(Tensor(frames), axis=1).data
        for _ in range(10):
            perm = rng.permutation(6)
            shuffled = tensor_mean(Tensor(frames[:, perm]), axis=1).data
            assert np.abs(shuffled - base).max() < 1e-6
