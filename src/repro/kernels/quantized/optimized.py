"""Optimized (vectorized) int8 kernels — the production execution path.

These are the analogue of TFLite's builtin ``OpResolver`` kernels: the fast
path an app actually ships with. They share requantization math with the
reference kernels in :mod:`repro.kernels.quantized.reference`; on correct
configurations both paths produce **bit-identical** outputs, which is exactly
the property the paper exploits ("any accuracy discrepancies in int8
fully-quantized model between builtin op and builtin reference op should be
treated as a bug").

Convolutions run on *centered* activations with the float kernels'
strategies: ``qconv2d`` is one GEMM over the batch (a 1x1 filter multiplies
the flattened pixels, larger filters the im2col patches) and
``qdepthwise_conv2d`` is one multiply-add per filter tap.

Accumulation is exact. Centered activations (``|x - zp| <= 255``) and int8
weights (``|w| <= 128``) are integers, and so is every partial sum. A layer
whose outputs each sum K products (``kh*kw*Cin`` for conv, ``kh*kw`` for
depthwise, the input features for dense) accumulates in float32 when
``K*255*128 < 2**24`` (:func:`accumulator_dtype`), where float32 holds every
partial sum, so any BLAS order or FMA gives the float64 result; a larger
layer accumulates in float64. Either way the kernels stay bit-identical to
the per-channel reference loops. The bias add and requantization run in
float64, in place.

``prepare_q*`` computes once what each call of a conv, depthwise or dense
layer needs (the accumulator dtype, the cast weights, the float64 bias, the
multiplier, clamp bounds and zero points) and returns the function to call
per input. The execution plan prepares every such node when it compiles;
the one-shot ``q*`` kernels prepare and call.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.kernels.common import (
    Padding,
    check_filter_bank,
    depthwise_taps,
    extract_patches,
    im2col_rows,
    normalize_stride,
    pad_spatial,
    resolve_padding,
    window_geometry,
)
from repro.kernels.quantized.bugs import NO_BUGS, KernelBugs
from repro.kernels.quantized.requant import (
    Requantizer,
    output_multiplier,
    requantize,
    wrap_to_bits,
)
from repro.quantize.params import QuantParams

PreparedLayer = Callable[[np.ndarray, KernelBugs], np.ndarray]
"""A prepared layer: ``run(x_q, bugs) -> out_q``."""


def accumulator_dtype(terms: int) -> np.dtype:
    """The float dtype that sums ``terms`` centered int8 products exactly:
    float32 while ``terms * 255 * 128 < 2**24``, else float64."""
    return np.dtype(np.float32 if terms * 255 * 128 < 2**24 else np.float64)


def _centered(x_q: np.ndarray, in_params: QuantParams) -> np.ndarray:
    """Zero-point-corrected activations in float64 (exact for int8 data)."""
    return x_q.astype(np.float64) - float(in_params.zero_point.item())


class _Layer:
    """The per-call constants shared by conv, depthwise and dense."""

    def __init__(self, terms: int, w_q: np.ndarray, in_params: QuantParams,
                 w_params: QuantParams, bias_q: np.ndarray | None,
                 out_params: QuantParams, activation: str):
        self.weights = w_q.astype(accumulator_dtype(terms))
        self.zero_point = float(in_params.zero_point.item())
        self.bias = None if bias_q is None else bias_q.astype(np.float64)
        self.multiplier = output_multiplier(in_params, w_params, out_params)
        self.requantize = Requantizer.for_output(out_params, activation)

    def center(self, x_q: np.ndarray) -> np.ndarray:
        """``x_q - zp`` in the accumulator dtype (exact: at most 255)."""
        xc = x_q.astype(self.weights.dtype)
        xc -= self.zero_point
        return xc

    def finish(self, acc: np.ndarray) -> np.ndarray:
        """Widen to float64, then add the bias and requantize in place."""
        q = acc.astype(np.float64, copy=False)
        if self.bias is not None:
            q += self.bias
        q *= self.multiplier
        return self.requantize(q)


def prepare_qconv2d(
    in_params: QuantParams,
    w_q: np.ndarray,
    w_params: QuantParams,
    bias_q: np.ndarray | None,
    out_params: QuantParams,
    stride: int | tuple[int, int],
    padding: Padding,
    activation: str,
) -> PreparedLayer:
    """Prepare a quantized 2-D convolution (see :func:`qconv2d`)."""
    kh, kw, cin, cout = w_q.shape
    layer = _Layer(kh * kw * cin, w_q.reshape(kh * kw * cin, cout), in_params,
                   w_params, bias_q, out_params, activation)

    def run(x_q: np.ndarray, bugs: KernelBugs) -> np.ndarray:
        sh, sw, pad, oh, ow = window_geometry(x_q, kh, kw, stride, padding)
        acc = im2col_rows(layer.center(x_q), kh, kw, sh, sw, pad) @ layer.weights
        return layer.finish(acc.reshape(x_q.shape[0], oh, ow, cout))
    return run


def qconv2d(
    x_q: np.ndarray,
    in_params: QuantParams,
    w_q: np.ndarray,
    w_params: QuantParams,
    bias_q: np.ndarray | None,
    out_params: QuantParams,
    stride: int | tuple[int, int] = 1,
    padding: Padding = "same",
    activation: str = "linear",
    bugs: KernelBugs = NO_BUGS,
) -> np.ndarray:
    """Quantized 2-D convolution (one GEMM on centered integers).

    Padding with the input zero point is implemented by centering first and
    zero-padding after, which is arithmetically identical.
    """
    check_filter_bank(x_q, w_q, "conv2d", "kh,kw,Cin,Cout")
    return prepare_qconv2d(in_params, w_q, w_params, bias_q, out_params,
                           stride, padding, activation)(x_q, bugs)


def prepare_qdepthwise_conv2d(
    in_params: QuantParams,
    w_q: np.ndarray,
    w_params: QuantParams,
    bias_q: np.ndarray | None,
    out_params: QuantParams,
    stride: int | tuple[int, int],
    padding: Padding,
    activation: str,
) -> PreparedLayer:
    """Prepare a quantized depthwise convolution (see
    :func:`qdepthwise_conv2d`)."""
    kh, kw = w_q.shape[:2]
    layer = _Layer(kh * kw, w_q, in_params, w_params, bias_q, out_params,
                   activation)

    def run(x_q: np.ndarray, bugs: KernelBugs) -> np.ndarray:
        sh, sw, pad, oh, ow = window_geometry(x_q, kh, kw, stride, padding)
        xc = pad_spatial(layer.center(x_q), pad)
        acc = depthwise_taps(xc, layer.weights, oh, ow, sh, sw)
        if bugs.dwconv_accumulator_bits is not None:
            acc = wrap_to_bits(acc, bugs.dwconv_accumulator_bits)
        return layer.finish(acc)
    return run


def qdepthwise_conv2d(
    x_q: np.ndarray,
    in_params: QuantParams,
    w_q: np.ndarray,
    w_params: QuantParams,
    bias_q: np.ndarray | None,
    out_params: QuantParams,
    stride: int | tuple[int, int] = 1,
    padding: Padding = "same",
    activation: str = "linear",
    bugs: KernelBugs = NO_BUGS,
) -> np.ndarray:
    """Quantized depthwise convolution.

    When :attr:`KernelBugs.dwconv_accumulator_bits` is set, the full window
    sum wraps through a narrow accumulator before the bias add — the
    overflow-behaviour bug class the paper discovered in TFLite's optimized
    kernel (§4.4, Figure 6 left).
    """
    check_filter_bank(x_q, w_q, "depthwise", "kh,kw,C,mult")
    return prepare_qdepthwise_conv2d(in_params, w_q, w_params, bias_q,
                                     out_params, stride, padding,
                                     activation)(x_q, bugs)


def prepare_qdense(
    in_params: QuantParams,
    w_q: np.ndarray,
    w_params: QuantParams,
    bias_q: np.ndarray | None,
    out_params: QuantParams,
    activation: str,
) -> PreparedLayer:
    """Prepare a quantized fully-connected layer (see :func:`qdense`)."""
    layer = _Layer(w_q.shape[0], w_q, in_params, w_params, bias_q, out_params,
                   activation)

    def run(x_q: np.ndarray, bugs: KernelBugs) -> np.ndarray:
        return layer.finish(layer.center(x_q) @ layer.weights)
    return run


def qdense(
    x_q: np.ndarray,
    in_params: QuantParams,
    w_q: np.ndarray,
    w_params: QuantParams,
    bias_q: np.ndarray | None,
    out_params: QuantParams,
    activation: str = "linear",
    bugs: KernelBugs = NO_BUGS,
) -> np.ndarray:
    """Quantized fully-connected layer."""
    return prepare_qdense(in_params, w_q, w_params, bias_q, out_params,
                          activation)(x_q, bugs)


def _requant_mean(
    mean_centered: np.ndarray,
    in_params: QuantParams,
    out_params: QuantParams,
    bugs: KernelBugs,
) -> np.ndarray:
    """Requantize a centered mean.

    Under :attr:`KernelBugs.avgpool_zero_point_bug` the kernel applies the
    output zero point with the wrong sign. With ReLU-style asymmetric
    activations (strongly negative zero point) every output shifts by
    ``-2*zp`` and saturates at qmax — the constant-output, 0%-accuracy
    failure the paper reports for quantized MobileNet v3 under the
    reference resolver (Figure 6 right: rMSE peaks at every average-pool
    layer).
    """
    scale_ratio = float(in_params.scale.item()) / float(out_params.scale.item())
    zp_out = float(out_params.zero_point.item())
    if bugs.avgpool_zero_point_bug:
        zp_out = -zp_out
    q = np.round(mean_centered * scale_ratio) + zp_out
    return np.clip(q, out_params.qmin, out_params.qmax).astype(
        np.dtype(out_params.dtype)
    )


def qavg_pool2d(
    x_q: np.ndarray,
    in_params: QuantParams,
    out_params: QuantParams,
    pool_size: int | tuple[int, int] = 2,
    stride: int | tuple[int, int] | None = None,
    padding: Padding = "valid",
    bugs: KernelBugs = NO_BUGS,
) -> np.ndarray:
    """Quantized average pooling (count excludes padding, as in TFLite).

    The injected reference-kernel zero-point bug applies only to
    *full-extent* pools (output 1x1) — the squeeze-excite and
    efficient-last-stage pools MobileNet v3 introduced. Windowed pools
    (Inception branch pools, DenseNet transitions) and the ``Mean`` op
    (v1/v2 global pooling) use a separate, correct code path, matching the
    paper's observation that only v3 was affected (§4.4).
    """
    kh, kw = normalize_stride(pool_size)
    sh, sw = normalize_stride(stride if stride is not None else (kh, kw))
    pad = resolve_padding(padding, x_q.shape[1], x_q.shape[2], kh, kw, sh, sw)
    patches = extract_patches(_centered(x_q, in_params), kh, kw, sh, sw, pad)
    ones = np.ones((1,) + x_q.shape[1:3] + (1,), dtype=np.float64)
    counts = extract_patches(ones, kh, kw, sh, sw, pad).sum(axis=(3, 4))[0, :, :, 0]
    mean = patches.sum(axis=(3, 4)) / counts[None, :, :, None]
    full_extent = mean.shape[1] == 1 and mean.shape[2] == 1
    effective_bugs = bugs if full_extent else bugs.with_(avgpool_zero_point_bug=False)
    return _requant_mean(mean, in_params, out_params, effective_bugs)


def qmax_pool2d(
    x_q: np.ndarray,
    in_params: QuantParams,
    out_params: QuantParams,
    pool_size: int | tuple[int, int] = 2,
    stride: int | tuple[int, int] | None = None,
    padding: Padding = "valid",
    bugs: KernelBugs = NO_BUGS,
) -> np.ndarray:
    """Quantized max pooling (max commutes with the affine map)."""
    kh, kw = normalize_stride(pool_size)
    sh, sw = normalize_stride(stride if stride is not None else (kh, kw))
    pad = resolve_padding(padding, x_q.shape[1], x_q.shape[2], kh, kw, sh, sw)
    patches = extract_patches(
        x_q.astype(np.float64), kh, kw, sh, sw, pad, pad_value=float(out_params.qmin)
    )
    mx = patches.max(axis=(3, 4)) - float(in_params.zero_point.item())
    return _requant_mean(mx, in_params, out_params, bugs.with_(avgpool_zero_point_bug=False))


def qglobal_avg_pool(
    x_q: np.ndarray,
    in_params: QuantParams,
    out_params: QuantParams,
    keepdims: bool = False,
    bugs: KernelBugs = NO_BUGS,
) -> np.ndarray:
    """Quantized global mean over H, W (the TFLite ``Mean`` op).

    The ``Mean`` op has its own (correct) kernel in both resolvers — the
    injected avg-pool bug does not reach it, which is why v1/v2 (whose
    global pooling exports as Mean) survive the buggy reference resolver.
    """
    mean = _centered(x_q, in_params).mean(axis=(1, 2), keepdims=keepdims)
    return _requant_mean(mean, in_params, out_params,
                         bugs.with_(avgpool_zero_point_bug=False))


def qadd(
    a_q: np.ndarray,
    a_params: QuantParams,
    b_q: np.ndarray,
    b_params: QuantParams,
    out_params: QuantParams,
    activation: str = "linear",
    bugs: KernelBugs = NO_BUGS,
) -> np.ndarray:
    """Quantized elementwise add: rescale both operands into the output scale."""
    real = (
        (a_q.astype(np.float64) - float(a_params.zero_point.item()))
        * float(a_params.scale.item())
        + (b_q.astype(np.float64) - float(b_params.zero_point.item()))
        * float(b_params.scale.item())
    )
    return Requantizer.for_output(out_params, activation)(
        real / float(out_params.scale.item()))


def qmul(
    a_q: np.ndarray,
    a_params: QuantParams,
    b_q: np.ndarray,
    b_params: QuantParams,
    out_params: QuantParams,
    activation: str = "linear",
    bugs: KernelBugs = NO_BUGS,
) -> np.ndarray:
    """Quantized elementwise multiply (SE gating), with fused activation."""
    acc = (
        (a_q.astype(np.float64) - float(a_params.zero_point.item()))
        * (b_q.astype(np.float64) - float(b_params.zero_point.item()))
    )
    mult = (
        float(a_params.scale.item())
        * float(b_params.scale.item())
        / float(out_params.scale.item())
    )
    return requantize(acc, np.float64(mult), out_params, activation)


def qpad2d(
    x_q: np.ndarray,
    in_params: QuantParams,
    paddings: tuple[tuple[int, int], tuple[int, int]],
    bugs: KernelBugs = NO_BUGS,
) -> np.ndarray:
    """Quantized spatial padding: fills with the zero point (or literal 0
    under :attr:`KernelBugs.pad_ignores_zero_point`)."""
    fill = 0 if bugs.pad_ignores_zero_point else int(in_params.zero_point.item())
    return pad_spatial(x_q, paddings, fill)
