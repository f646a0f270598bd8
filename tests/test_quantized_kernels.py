"""Integer kernel tests: fidelity to float, opt/ref bit-equality, bug flags."""

import numpy as np
import pytest

from repro import kernels as K
from repro.kernels.common import extract_patches, resolve_padding
from repro.kernels.quantized import (
    NO_BUGS,
    PAPER_OPTIMIZED_BUGS,
    PAPER_REFERENCE_BUGS,
    KernelBugs,
    apply_lut,
    build_lut,
    fused_activation_bounds,
    optimized as qopt,
    output_multiplier,
    reference as qref,
    requantize,
    rescale_tensor,
    wrap_to_bits,
)
from repro.quantize import choose_qparams, choose_qparams_per_channel
from repro.util.errors import KernelError


def qpair(rng, shape, lo=-1.0, hi=1.0):
    """A float tensor plus its int8 quantization."""
    x = rng.uniform(lo, hi, shape)
    params = choose_qparams(lo, hi, "int8")
    return x, params.quantize(x), params


class TestRequantHelpers:
    def test_wrap_to_bits_identity_in_range(self):
        acc = np.array([100.0, -100.0])
        np.testing.assert_array_equal(wrap_to_bits(acc, 16), acc)

    def test_wrap_to_bits_wraps(self):
        assert wrap_to_bits(np.array([32768.0]), 16)[0] == -32768
        assert wrap_to_bits(np.array([-32769.0]), 16)[0] == 32767

    def test_wrap_narrower_bits(self):
        assert wrap_to_bits(np.array([4096.0]), 13)[0] == -4096

    def test_fused_relu_bounds(self):
        params = choose_qparams(-1.0, 1.0, "int8")
        lo, hi = fused_activation_bounds("relu", params)
        assert lo == int(params.zero_point.item()) and hi == 127

    def test_fused_relu6_bounds(self):
        params = choose_qparams(0.0, 6.0, "int8")
        lo, hi = fused_activation_bounds("relu6", params)
        assert lo == -128 and hi == 127

    def test_fused_unknown_rejected(self):
        params = choose_qparams(-1.0, 1.0, "int8")
        with pytest.raises(ValueError):
            fused_activation_bounds("hard_swish", params)

    def test_requantize_clips_to_dtype(self):
        out_p = choose_qparams(-1.0, 1.0, "int8")
        q = requantize(np.array([1e9, -1e9]), np.float64(1.0), out_p)
        assert q[0] == 127 and q[1] == -128

    def test_rescale_tensor_identity(self):
        p = choose_qparams(-1.0, 1.0, "int8")
        q = np.array([-128, 0, 127], dtype=np.int8)
        np.testing.assert_array_equal(rescale_tensor(q, p, p), q)


class TestLUT:
    def test_lut_matches_float_detour(self, rng):
        in_p = choose_qparams(-4.0, 4.0, "int8")
        out_p = choose_qparams(-1.0, 1.0, "int8")
        lut = build_lut(K.tanh, in_p, out_p)
        q = rng.integers(-128, 128, size=50).astype(np.int8)
        got = apply_lut(q, lut, in_p)
        want = out_p.quantize(np.tanh(in_p.dequantize(q)))
        np.testing.assert_array_equal(got, want)

    def test_lut_covers_full_domain(self):
        in_p = choose_qparams(-1.0, 1.0, "int8")
        lut = build_lut(K.relu, in_p, in_p)
        assert lut.shape == (256,)


class TestQConv2d:
    def test_close_to_float(self, rng):
        x, x_q, in_p = qpair(rng, (2, 6, 6, 3))
        w = rng.normal(0, 0.3, (3, 3, 3, 4))
        w_p = choose_qparams_per_channel(w, axis=3)
        w_q = w_p.quantize(w)
        float_out = K.conv2d(x, w)
        out_p = choose_qparams(float_out.min(), float_out.max(), "int8")
        got = out_p.dequantize(qopt.qconv2d(x_q, in_p, w_q, w_p, None, out_p))
        # Error bounded by a few output quantization steps.
        assert np.abs(got - float_out).max() < 6 * out_p.scale.item()

    @pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "same"),
                                                (1, "valid")])
    def test_optimized_equals_reference(self, rng, stride, padding):
        x, x_q, in_p = qpair(rng, (2, 7, 7, 3))
        w = rng.normal(0, 0.3, (3, 3, 3, 5))
        w_p = choose_qparams_per_channel(w, axis=3)
        w_q = w_p.quantize(w)
        bias_q = rng.integers(-50, 50, 5).astype(np.int32)
        out_p = choose_qparams(-2.0, 2.0, "int8")
        a = qopt.qconv2d(x_q, in_p, w_q, w_p, bias_q, out_p, stride, padding, "relu")
        b = qref.qconv2d(x_q, in_p, w_q, w_p, bias_q, out_p, stride, padding, "relu")
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("bugs", [NO_BUGS, PAPER_OPTIMIZED_BUGS],
                             ids=["no_bugs", "paper_optimized"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_1x1_optimized_equals_reference(self, rng, stride, bugs):
        # The pointwise fast path (one GEMM over the flattened pixels)
        # against the per-channel reference loop.
        x, x_q, in_p = qpair(rng, (6, 9, 9, 4), 0.0, 6.0)
        w = rng.normal(0, 0.5, (1, 1, 4, 6))
        w_p = choose_qparams_per_channel(w, axis=3)
        w_q = w_p.quantize(w)
        bias_q = rng.integers(-50, 50, 6).astype(np.int32)
        out_p = choose_qparams(-4.0, 4.0, "int8")
        a = qopt.qconv2d(x_q, in_p, w_q, w_p, bias_q, out_p, stride,
                         "same", "relu6", bugs)
        b = qref.qconv2d(x_q, in_p, w_q, w_p, bias_q, out_p, stride,
                         "same", "relu6", bugs)
        np.testing.assert_array_equal(a, b)


def einsum_qdepthwise(x_q, in_p, w_q, w_p, bias_q, out_p, bugs):
    """The patch-tensor depthwise kernel the tap loop replaced, bug included."""
    pad = resolve_padding("same", x_q.shape[1], x_q.shape[2],
                          w_q.shape[0], w_q.shape[1], 1, 1)
    xc = x_q.astype(np.float64) - float(in_p.zero_point.item())
    patches = extract_patches(xc, w_q.shape[0], w_q.shape[1], 1, 1, pad)
    acc = np.einsum("nhwklc,klcm->nhwcm", patches, w_q.astype(np.float64))
    acc = acc.reshape(acc.shape[:3] + (-1,))
    if bugs.dwconv_accumulator_bits is not None:
        acc = wrap_to_bits(acc, bugs.dwconv_accumulator_bits)
    acc = acc + bias_q.astype(np.float64)
    return requantize(acc, output_multiplier(in_p, w_p, out_p), out_p, "relu6")


class TestQDepthwise:
    @pytest.mark.parametrize("bugs", [NO_BUGS, PAPER_OPTIMIZED_BUGS],
                             ids=["no_bugs", "paper_optimized"])
    @pytest.mark.parametrize("mult", [1, 2, 3])
    def test_tap_loop_byte_identical(self, rng, mult, bugs):
        # Exact integer accumulation makes the tap order immaterial: the
        # optimized kernel matches the reference loop when correct, and
        # the patch-tensor kernel it replaced under the overflow bug.
        x, x_q, in_p = qpair(rng, (4, 7, 7, 4), 0.0, 6.0)
        w = rng.normal(0, 0.5, (3, 3, 4, mult))
        w_p = choose_qparams_per_channel(w.reshape(3, 3, 4 * mult), axis=2)
        w_q = w_p.quantize(w.reshape(3, 3, 4 * mult)).reshape(w.shape)
        bias_q = rng.integers(-50, 50, 4 * mult).astype(np.int32)
        out_p = choose_qparams(-6.0, 6.0, "int8")
        args = (x_q, in_p, w_q, w_p, bias_q, out_p)
        got = qopt.qdepthwise_conv2d(*args, 1, "same", "relu6", bugs)
        np.testing.assert_array_equal(
            got, einsum_qdepthwise(*args, bugs=bugs))
        ref = qref.qdepthwise_conv2d(*args, 1, "same", "relu6", bugs)
        if bugs.dwconv_accumulator_bits is None:
            np.testing.assert_array_equal(got, ref)
        else:
            assert not np.array_equal(got, ref)  # the overflow fired

    def test_optimized_equals_reference_when_correct(self, rng):
        x, x_q, in_p = qpair(rng, (2, 6, 6, 4))
        w = rng.normal(0, 0.3, (3, 3, 4, 1))
        w_p = choose_qparams_per_channel(w, axis=2)
        w_q = w_p.quantize(w)
        out_p = choose_qparams(-2.0, 2.0, "int8")
        a = qopt.qdepthwise_conv2d(x_q, in_p, w_q, w_p, None, out_p)
        b = qref.qdepthwise_conv2d(x_q, in_p, w_q, w_p, None, out_p)
        np.testing.assert_array_equal(a, b)

    def test_overflow_bug_only_affects_optimized(self, rng):
        """The §4.4 signature: optimized and reference kernels diverge ONLY
        when the injected overflow bug is active."""
        x, x_q, in_p = qpair(rng, (1, 6, 6, 4), 0.0, 6.0)
        w = rng.normal(0, 0.5, (3, 3, 4, 1))
        w_p = choose_qparams_per_channel(w, axis=2)
        w_q = w_p.quantize(w)
        out_p = choose_qparams(-6.0, 6.0, "int8")
        clean = qopt.qdepthwise_conv2d(x_q, in_p, w_q, w_p, None, out_p)
        buggy = qopt.qdepthwise_conv2d(x_q, in_p, w_q, w_p, None, out_p,
                                       bugs=PAPER_OPTIMIZED_BUGS)
        ref = qref.qdepthwise_conv2d(x_q, in_p, w_q, w_p, None, out_p,
                                     bugs=PAPER_OPTIMIZED_BUGS)
        assert not np.array_equal(clean, buggy)
        np.testing.assert_array_equal(clean, ref)  # ref kernel immune


class TestFilterChecks:
    """Int8 conv kernels reject ill-shaped filters like the float kernels."""

    @pytest.mark.parametrize("module", [qopt, qref], ids=["optimized", "reference"])
    @pytest.mark.parametrize("kernel", ["qconv2d", "qdepthwise_conv2d"])
    def test_channel_mismatch_raises(self, rng, module, kernel):
        # A (2,6,6,1) input against 4-channel filters used to broadcast
        # silently into a (2,6,6,4) depthwise output.
        _, x_q, in_p = qpair(rng, (2, 6, 6, 1))
        w_q = rng.integers(-127, 128, (3, 3, 4, 1)).astype(np.int8)
        w_p = choose_qparams(-1.0, 1.0, "int8")
        with pytest.raises(KernelError, match="channels"):
            getattr(module, kernel)(x_q, in_p, w_q, w_p, None, in_p)

    @pytest.mark.parametrize("module", [qopt, qref], ids=["optimized", "reference"])
    @pytest.mark.parametrize("kernel", ["qconv2d", "qdepthwise_conv2d"])
    def test_bad_filter_rank_raises(self, rng, module, kernel):
        _, x_q, in_p = qpair(rng, (2, 6, 6, 3))
        w_q = rng.integers(-127, 128, (3, 3, 3)).astype(np.int8)
        w_p = choose_qparams(-1.0, 1.0, "int8")
        with pytest.raises(KernelError, match="4-D"):
            getattr(module, kernel)(x_q, in_p, w_q, w_p, None, in_p)


class TestQDense:
    def test_optimized_equals_reference(self, rng):
        x, x_q, in_p = qpair(rng, (4, 10))
        w = rng.normal(0, 0.3, (10, 6))
        w_p = choose_qparams_per_channel(w, axis=1)
        w_q = w_p.quantize(w)
        out_p = choose_qparams(-4.0, 4.0, "int8")
        a = qopt.qdense(x_q, in_p, w_q, w_p, None, out_p)
        b = qref.qdense(x_q, in_p, w_q, w_p, None, out_p)
        np.testing.assert_array_equal(a, b)

    def test_close_to_float(self, rng):
        x, x_q, in_p = qpair(rng, (4, 10))
        w = rng.normal(0, 0.3, (10, 6))
        w_p = choose_qparams_per_channel(w, axis=1)
        float_out = x @ w
        out_p = choose_qparams(float_out.min(), float_out.max(), "int8")
        got = out_p.dequantize(qopt.qdense(x_q, in_p, w_p.quantize(w), w_p,
                                           None, out_p))
        assert np.abs(got - float_out).max() < 6 * out_p.scale.item()


class TestQPooling:
    def test_avg_pool_close_to_float(self, rng):
        x, x_q, in_p = qpair(rng, (1, 6, 6, 2), 0.0, 6.0)
        out_p = in_p
        got = out_p.dequantize(qopt.qavg_pool2d(x_q, in_p, out_p, 2))
        want = K.avg_pool2d(x, 2)
        assert np.abs(got - want).max() < 3 * out_p.scale.item()

    def test_avgpool_zero_point_bug_saturates_full_extent_pool(self, rng):
        x, x_q, in_p = qpair(rng, (1, 4, 4, 2), 0.0, 6.0)  # zp = -128
        out_p = in_p
        buggy = qopt.qavg_pool2d(x_q, in_p, out_p, pool_size=(4, 4),
                                 bugs=PAPER_REFERENCE_BUGS)
        assert buggy.shape[1:3] == (1, 1)
        assert np.all(buggy == out_p.qmax)  # pinned at qmax: constant output

    def test_avgpool_bug_skips_windowed_pools(self, rng):
        """Only full-extent (1x1-output) pools carry the bug — Inception's
        3x3 branch pools and DenseNet transitions are unaffected (§4.4)."""
        x, x_q, in_p = qpair(rng, (1, 4, 4, 2), 0.0, 6.0)
        clean = qopt.qavg_pool2d(x_q, in_p, in_p, pool_size=2)
        buggy = qopt.qavg_pool2d(x_q, in_p, in_p, pool_size=2,
                                 bugs=PAPER_REFERENCE_BUGS)
        np.testing.assert_array_equal(clean, buggy)

    def test_avgpool_bug_skips_mean_op(self, rng):
        """The Mean op (v1/v2 global pooling) has a separate correct kernel."""
        x, x_q, in_p = qpair(rng, (1, 4, 4, 2), 0.0, 6.0)
        a = qopt.qglobal_avg_pool(x_q, in_p, in_p)
        b = qopt.qglobal_avg_pool(x_q, in_p, in_p, bugs=PAPER_REFERENCE_BUGS)
        np.testing.assert_array_equal(a, b)

    def test_avgpool_bug_off_by_default(self, rng):
        x, x_q, in_p = qpair(rng, (1, 4, 4, 2), 0.0, 6.0)
        a = qopt.qglobal_avg_pool(x_q, in_p, in_p)
        b = qopt.qglobal_avg_pool(x_q, in_p, in_p, bugs=NO_BUGS)
        np.testing.assert_array_equal(a, b)

    def test_max_pool_commutes_with_quantization(self, rng):
        x, x_q, in_p = qpair(rng, (1, 4, 4, 1))
        got = qopt.qmax_pool2d(x_q, in_p, in_p, 2)
        want = in_p.quantize(K.max_pool2d(in_p.dequantize(x_q), 2))
        np.testing.assert_array_equal(got, want)


class TestQElementwise:
    def test_qadd_close_to_float(self, rng):
        a, a_q, a_p = qpair(rng, (3, 4), -1, 1)
        b, b_q, b_p = qpair(rng, (3, 4), -2, 2)
        out_p = choose_qparams(-3.0, 3.0, "int8")
        got = out_p.dequantize(qopt.qadd(a_q, a_p, b_q, b_p, out_p))
        want = a_p.dequantize(a_q) + b_p.dequantize(b_q)
        assert np.abs(got - want).max() <= out_p.scale.item()

    def test_qmul_close_to_float(self, rng):
        a, a_q, a_p = qpair(rng, (3, 4), -1, 1)
        b, b_q, b_p = qpair(rng, (3, 4), 0, 1)
        out_p = choose_qparams(-1.0, 1.0, "int8")
        got = out_p.dequantize(qopt.qmul(a_q, a_p, b_q, b_p, out_p))
        want = a_p.dequantize(a_q) * b_p.dequantize(b_q)
        assert np.abs(got - want).max() <= out_p.scale.item()

    def test_qpad_fills_zero_point(self, rng):
        _, x_q, in_p = qpair(rng, (1, 2, 2, 1), 0.0, 6.0)
        out = qopt.qpad2d(x_q, in_p, ((1, 1), (1, 1)))
        assert out[0, 0, 0, 0] == in_p.zero_point.item()

    def test_qpad_bug_fills_literal_zero(self, rng):
        _, x_q, in_p = qpair(rng, (1, 2, 2, 1), 0.0, 6.0)
        out = qopt.qpad2d(x_q, in_p, ((1, 1), (1, 1)),
                          bugs=KernelBugs(pad_ignores_zero_point=True))
        assert out[0, 0, 0, 0] == 0
        assert in_p.zero_point.item() != 0  # the bug is observable


class TestKernelBugsConfig:
    def test_defaults_off(self):
        assert not NO_BUGS.any()

    def test_paper_configs_on(self):
        assert PAPER_OPTIMIZED_BUGS.any()
        assert PAPER_REFERENCE_BUGS.any()
        assert PAPER_OPTIMIZED_BUGS.dwconv_accumulator_bits is not None
        assert PAPER_REFERENCE_BUGS.avgpool_zero_point_bug

    def test_with_override(self):
        bugs = NO_BUGS.with_(pad_ignores_zero_point=True)
        assert bugs.pad_ignores_zero_point and not NO_BUGS.pad_ignores_zero_point
