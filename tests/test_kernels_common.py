"""Tests for padding arithmetic and window extraction."""

import numpy as np
import pytest

from repro.kernels.common import (
    conv_output_size,
    extract_patches,
    normalize_stride,
    resolve_padding,
    same_padding,
)
from repro.kernels.elementwise import pad2d
from repro.kernels.quantized.optimized import qpad2d
from repro.quantize import choose_qparams
from repro.util.errors import KernelError


class TestStride:
    def test_scalar_expands(self):
        assert normalize_stride(2) == (2, 2)

    def test_pair_passthrough(self):
        assert normalize_stride((1, 3)) == (1, 3)

    def test_rejects_zero(self):
        with pytest.raises(KernelError):
            normalize_stride(0)


class TestSamePadding:
    @pytest.mark.parametrize("size,k,s", [(8, 3, 1), (8, 3, 2), (7, 3, 2),
                                          (5, 5, 1), (9, 2, 3)])
    def test_output_is_ceil_div(self, size, k, s):
        before, after = same_padding(size, k, s)
        out = (size + before + after - k) // s + 1
        assert out == -(-size // s)

    def test_asymmetric_extra_goes_after(self):
        before, after = same_padding(8, 3, 2)
        assert after >= before


class TestResolvePadding:
    def test_valid_is_zero(self):
        assert resolve_padding("valid", 8, 8, 3, 3, 1, 1) == ((0, 0), (0, 0))

    def test_explicit_passthrough(self):
        pad = ((1, 2), (0, 3))
        assert resolve_padding(pad, 8, 8, 3, 3, 1, 1) == pad

    def test_rejects_negative(self):
        with pytest.raises(KernelError):
            resolve_padding(((-1, 0), (0, 0)), 8, 8, 3, 3, 1, 1)

    def test_rejects_unknown_mode(self):
        with pytest.raises(KernelError):
            resolve_padding("wat", 8, 8, 3, 3, 1, 1)


class TestConvOutputSize:
    def test_basic(self):
        assert conv_output_size(8, 3, 1, (1, 1)) == 8
        assert conv_output_size(8, 3, 2, (0, 1)) == 4

    def test_window_too_large(self):
        with pytest.raises(KernelError):
            conv_output_size(2, 5, 1, (0, 0))


class TestExtractPatches:
    def test_shape(self, rng):
        x = rng.normal(size=(2, 6, 7, 3))
        patches = extract_patches(x, 3, 3, 1, 1, ((0, 0), (0, 0)))
        assert patches.shape == (2, 4, 5, 3, 3, 3)

    def test_values_match_manual_window(self, rng):
        x = rng.normal(size=(1, 5, 5, 2))
        patches = extract_patches(x, 3, 3, 2, 2, ((0, 0), (0, 0)))
        np.testing.assert_allclose(patches[0, 1, 1], x[0, 2:5, 2:5, :])

    def test_padding_value_used(self):
        x = np.ones((1, 2, 2, 1))
        patches = extract_patches(x, 3, 3, 1, 1, ((1, 0), (1, 0)), pad_value=-5.0)
        assert patches.min() == -5.0

    def test_rejects_non_nhwc(self):
        with pytest.raises(KernelError):
            extract_patches(np.ones((3, 3)), 2, 2, 1, 1, ((0, 0), (0, 0)))

    def test_rejects_oversized_window(self):
        with pytest.raises(KernelError):
            extract_patches(np.ones((1, 2, 2, 1)), 4, 4, 1, 1, ((0, 0), (0, 0)))


class TestPadOpValidation:
    """The ``pad2d`` op's paddings bypass :func:`resolve_padding`, so the
    shared pad helper itself rejects what the op cannot mean."""

    PARAMS = choose_qparams(-1.0, 3.0, "int8")

    def _pads(self, x, paddings):
        return (lambda: pad2d(x.astype(np.float32), paddings),
                lambda: qpad2d(x.astype(np.int8), self.PARAMS, paddings))

    @pytest.mark.parametrize("paddings", [((-1, 0), (0, 0)), ((0, -2), (1, 1)),
                                          ((1, 1), (-1, 0)), ((0, 0), (0, -3))])
    def test_negative_pad_rejected(self, paddings):
        for pad in self._pads(np.ones((1, 4, 4, 2)), paddings):
            with pytest.raises(KernelError, match="negative padding"):
                pad()

    def test_non_nhwc_rejected(self):
        for pad in self._pads(np.ones((4, 4, 2)), ((1, 1), (1, 1))):
            with pytest.raises(KernelError, match="NHWC"):
                pad()

    def test_qpad2d_fills_zero_point(self):
        out = qpad2d(np.full((1, 2, 2, 1), 5, np.int8), self.PARAMS,
                     ((1, 0), (0, 1)))
        zp = int(self.PARAMS.zero_point.item())
        assert out.dtype == np.int8 and out.shape == (1, 3, 3, 1)
        assert out[0, 0, :, 0].tolist() == [zp] * 3
        assert out[0, 1:, 2, 0].tolist() == [zp] * 2
        assert (out[0, 1:, :2] == 5).all()
