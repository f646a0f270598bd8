"""Float convolution kernels (NHWC, TF weight layouts).

``conv2d`` uses the im2col + GEMM strategy; ``depthwise_conv2d`` contracts the
window dimensions per channel with einsum. Both match TensorFlow semantics so
that converted "mobile" models behave like their training-pipeline
counterparts up to float associativity.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.common import (
    Padding,
    extract_patches,
    normalize_stride,
    resolve_padding,
)
from repro.util.errors import KernelError


def conv2d(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int | tuple[int, int] = 1,
    padding: Padding = "same",
) -> np.ndarray:
    """2-D convolution.

    Parameters
    ----------
    x:
        Input activations, shape (N, H, W, C_in).
    weights:
        Filter bank, shape (kh, kw, C_in, C_out) — the TF layout.
    bias:
        Optional per-output-channel bias, shape (C_out,).
    stride, padding:
        Spatial stride and padding ("same", "valid", or explicit pads).
    """
    if weights.ndim != 4:
        raise KernelError(f"conv2d weights must be 4-D (kh,kw,Cin,Cout), got {weights.shape}")
    kh, kw, cin, cout = weights.shape
    if x.shape[-1] != cin:
        raise KernelError(f"input channels {x.shape[-1]} != filter channels {cin}")
    sh, sw = normalize_stride(stride)
    pad = resolve_padding(padding, x.shape[1], x.shape[2], kh, kw, sh, sw)
    patches = extract_patches(x, kh, kw, sh, sw, pad)
    n, oh, ow = patches.shape[:3]
    cols = patches.reshape(n * oh * ow, kh * kw * cin)
    w2 = weights.reshape(kh * kw * cin, cout)
    res = cols @ w2
    res = res.reshape(n, oh, ow, cout)
    if bias is not None:
        res = res + bias
    return res


def depthwise_conv2d(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
    stride: int | tuple[int, int] = 1,
    padding: Padding = "same",
) -> np.ndarray:
    """Depthwise 2-D convolution.

    Parameters
    ----------
    x:
        Input activations, shape (N, H, W, C).
    weights:
        Depthwise filters, shape (kh, kw, C, multiplier) — the TF layout.
        Output has C * multiplier channels, grouped per input channel.
    """
    if weights.ndim != 4:
        raise KernelError(
            f"depthwise weights must be 4-D (kh,kw,C,mult), got {weights.shape}"
        )
    kh, kw, c, mult = weights.shape
    if x.shape[-1] != c:
        raise KernelError(f"input channels {x.shape[-1]} != filter channels {c}")
    sh, sw = normalize_stride(stride)
    pad = resolve_padding(padding, x.shape[1], x.shape[2], kh, kw, sh, sw)
    patches = extract_patches(x, kh, kw, sh, sw, pad)  # (N, oh, ow, kh, kw, C)
    n, oh, ow = patches.shape[:3]
    res = np.einsum("nhwklc,klcm->nhwcm", patches, weights, optimize=True)
    res = res.reshape(n, oh, ow, c * mult)
    if bias is not None:
        res = res + bias
    return res
