"""Reference (naive) int8 kernels — the debugging execution path.

The analogue of TFLite's ``RefOpResolver``: easy-to-audit implementations
structured as per-output-channel loops, used to rule optimization out when
diagnosing a quantized model (§4.4). They are drastically slower on a real
device (Table 4 shows three orders of magnitude); our performance model
charges them accordingly, while the numerics remain exact.

On correct configurations these kernels agree bit-for-bit with
:mod:`repro.kernels.quantized.optimized`.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.common import (
    Padding,
    check_filter_bank,
    extract_patches,
    normalize_stride,
    resolve_padding,
)
from repro.kernels.quantized import optimized as _opt
from repro.kernels.quantized.bugs import NO_BUGS, KernelBugs
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
    bugs: KernelBugs = NO_BUGS,
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
    bugs: KernelBugs = NO_BUGS,
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
    patches = extract_patches(
        x_q.astype(np.float64) - float(in_params.zero_point.item()),
        kh, kw, sh, sw, pad,
    )  # (N, oh, ow, kh, kw, C)
    n, oh, ow = patches.shape[:3]
    acc = np.empty((n, oh, ow, c, mult_ch), dtype=np.float64)
    for ch in range(c):  # naive per-channel loop
        for m in range(mult_ch):
            acc[..., ch, m] = (patches[..., ch] * w_q[:, :, ch, m]).sum(axis=(3, 4))
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
    bugs: KernelBugs = NO_BUGS,
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


def qavg_pool2d(
    x_q: np.ndarray,
    in_params: QuantParams,
    out_params: QuantParams,
    pool_size: int | tuple[int, int] = 2,
    stride: int | tuple[int, int] | None = None,
    padding: Padding = "valid",
    bugs: KernelBugs = NO_BUGS,
) -> np.ndarray:
    """Reference quantized average pool.

    Subject to :attr:`KernelBugs.avgpool_zero_point_bug` — the paper's
    reference-kernel bug that breaks quantized MobileNet v3 (§4.4).
    """
    return _opt.qavg_pool2d(
        x_q, in_params, out_params, pool_size, stride, padding, bugs
    )


def qglobal_avg_pool(
    x_q: np.ndarray,
    in_params: QuantParams,
    out_params: QuantParams,
    keepdims: bool = False,
    bugs: KernelBugs = NO_BUGS,
) -> np.ndarray:
    """Reference quantized global mean; shares the avg-pool bug surface."""
    return _opt.qglobal_avg_pool(x_q, in_params, out_params, keepdims, bugs)


# Elementwise/max-pool/pad reference kernels share the optimized
# implementations — they have no interesting naive/optimized split and are
# already exact.
qmax_pool2d = _opt.qmax_pool2d
qadd = _opt.qadd
qmul = _opt.qmul
qpad2d = _opt.qpad2d
