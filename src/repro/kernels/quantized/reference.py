"""Reference (naive) int8 kernels — the debugging execution path.

The analogue of TFLite's ``RefOpResolver``: easy-to-audit implementations
structured as per-output-channel loops, used to rule optimization out when
diagnosing a quantized model (§4.4). They are drastically slower on a real
device (Table 4 shows three orders of magnitude); our performance model
charges them accordingly, while the numerics remain exact.

Only conv, depthwise and dense have a reference loop: the ``reference``
backend registers these three and runs the shared pool, add, mul and pad
kernels of :mod:`repro.kernels.quantized.optimized` for every other op. No
bug flag reaches these loops. On correct configurations they agree
bit-for-bit with the optimized kernels.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.common import (
    Padding,
    check_filter_bank,
    extract_patches,
    normalize_stride,
    pad_spatial,
    resolve_padding,
)
from repro.kernels.quantized.requant import output_multiplier, requantize
from repro.quantize.params import QuantParams


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
) -> np.ndarray:
    """Reference quantized convolution: loops over output channels."""
    check_filter_bank(x_q, w_q, "conv2d", "kh,kw,Cin,Cout")
    kh, kw, cin, cout = w_q.shape
    sh, sw = normalize_stride(stride)
    pad = resolve_padding(padding, x_q.shape[1], x_q.shape[2], kh, kw, sh, sw)
    patches = extract_patches(
        x_q.astype(np.float64) - float(in_params.zero_point.item()),
        kh, kw, sh, sw, pad,
    )
    n, oh, ow = patches.shape[:3]
    cols = patches.reshape(n * oh * ow, kh * kw * cin)
    wf = w_q.astype(np.float64).reshape(kh * kw * cin, cout)
    acc = np.empty((n * oh * ow, cout), dtype=np.float64)
    for c in range(cout):  # naive per-channel loop, as in a reference kernel
        acc[:, c] = cols @ wf[:, c]
    acc = acc.reshape(n, oh, ow, cout)
    if bias_q is not None:
        acc = acc + bias_q.astype(np.float64)
    mult = output_multiplier(in_params, w_params, out_params)
    return requantize(acc, mult, out_params, activation)


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
) -> np.ndarray:
    """Reference quantized depthwise convolution: loops over channels.

    Uses a full-width int32-style accumulator — the reference kernel does
    **not** exhibit the optimized kernel's overflow bug, matching the paper's
    account of differing overflow behaviour between the two kernels.
    """
    check_filter_bank(x_q, w_q, "depthwise", "kh,kw,C,mult")
    kh, kw, c, mult_ch = w_q.shape
    sh, sw = normalize_stride(stride)
    pad = resolve_padding(padding, x_q.shape[1], x_q.shape[2], kh, kw, sh, sw)
    xc = pad_spatial(
        x_q.astype(np.float64) - float(in_params.zero_point.item()), pad)
    # (N, oh, ow, C, kh, kw) strided windows: a view, so the per-channel
    # loop below materializes one channel's patches at a time and sums them
    # against its taps in one GEMM (exact: integer sums in float64).
    windows = np.lib.stride_tricks.sliding_window_view(
        xc, (kh, kw), axis=(1, 2))[:, ::sh, ::sw]
    n, oh, ow = windows.shape[:3]
    taps = w_q.astype(np.float64).reshape(kh * kw, c, mult_ch)
    acc = np.empty((n, oh, ow, c, mult_ch), dtype=np.float64)
    for ch in range(c):  # naive per-channel loop
        win = windows[..., ch, :, :].reshape(n * oh * ow, kh * kw)
        acc[..., ch, :] = (win @ taps[:, ch]).reshape(n, oh, ow, mult_ch)
    acc = acc.reshape(n, oh, ow, c * mult_ch)
    if bias_q is not None:
        acc = acc + bias_q.astype(np.float64)
    mult = output_multiplier(in_params, w_params, out_params)
    return requantize(acc, mult, out_params, activation)


def qdense(
    x_q: np.ndarray,
    in_params: QuantParams,
    w_q: np.ndarray,
    w_params: QuantParams,
    bias_q: np.ndarray | None,
    out_params: QuantParams,
    activation: str = "linear",
) -> np.ndarray:
    """Reference quantized dense layer: loops over output units."""
    xc = x_q.astype(np.float64) - float(in_params.zero_point.item())
    dout = w_q.shape[1]
    acc = np.empty(x_q.shape[:-1] + (dout,), dtype=np.float64)
    for j in range(dout):
        acc[..., j] = xc @ w_q[:, j].astype(np.float64)
    if bias_q is not None:
        acc = acc + bias_q.astype(np.float64)
    mult = output_multiplier(in_params, w_params, out_params)
    return requantize(acc, mult, out_params, activation)

