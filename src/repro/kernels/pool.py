"""Float pooling kernels (NHWC).

``max_pool2d`` keeps a running elementwise maximum over the window taps
(strided views of the -inf-padded input), so no patch tensor is built; max
is order-independent, so this equals the patch reduction exactly.
``avg_pool2d`` sums im2col patches: its float32 summation order is the one
calibration and the quantized zoo graphs were built against.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.common import (
    Padding,
    extract_patches,
    normalize_stride,
    pad_spatial,
    resolve_padding,
    tap_view,
    window_geometry,
)
from repro.util.errors import KernelError


def _pool_counts(
    in_h: int, in_w: int, kh: int, kw: int, sh: int, sw: int,
    pad: tuple[tuple[int, int], tuple[int, int]],
) -> np.ndarray:
    """Number of *valid* (non-padding) elements under each window position.

    TFLite average pooling divides by the count of in-bounds elements, not by
    the full window size; this matters for 'same'-padded edges.
    """
    ones = np.ones((1, in_h, in_w, 1), dtype=np.float64)
    counts = extract_patches(ones, kh, kw, sh, sw, pad).sum(axis=(3, 4))
    return counts[0, :, :, 0]


def avg_pool2d(
    x: np.ndarray,
    pool_size: int | tuple[int, int] = 2,
    stride: int | tuple[int, int] | None = None,
    padding: Padding = "valid",
) -> np.ndarray:
    """Average pooling over spatial windows, excluding padding from the mean."""
    kh, kw = normalize_stride(pool_size)  # reuse the (h, w) pair validation
    sh, sw = normalize_stride(stride if stride is not None else (kh, kw))
    pad = resolve_padding(padding, x.shape[1], x.shape[2], kh, kw, sh, sw)
    patches = extract_patches(x, kh, kw, sh, sw, pad)
    sums = patches.sum(axis=(3, 4))
    counts = _pool_counts(x.shape[1], x.shape[2], kh, kw, sh, sw, pad)
    # The float64 counts promote the quotient; hand back the input dtype.
    return (sums / counts[None, :, :, None]).astype(x.dtype, copy=False)


def max_pool2d(
    x: np.ndarray,
    pool_size: int | tuple[int, int] = 2,
    stride: int | tuple[int, int] | None = None,
    padding: Padding = "valid",
) -> np.ndarray:
    """Max pooling over spatial windows (padding uses -inf, never wins)."""
    kh, kw = normalize_stride(pool_size)
    sh, sw, pad, oh, ow = window_geometry(
        x, kh, kw, stride if stride is not None else (kh, kw), padding)
    xp = pad_spatial(x, pad, value=-np.inf)
    out = tap_view(xp, 0, 0, oh, ow, sh, sw).copy()
    for i in range(kh):
        for j in range(kw):
            if i or j:
                np.maximum(out, tap_view(xp, i, j, oh, ow, sh, sw), out=out)
    return out


def global_avg_pool(x: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Mean over the full spatial extent (the TFLite ``Mean`` op over H, W)."""
    if x.ndim != 4:
        raise KernelError(f"expected NHWC input, got shape {x.shape}")
    return x.mean(axis=(1, 2), keepdims=keepdims)
