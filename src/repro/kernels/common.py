"""Shared kernel helpers: padding arithmetic, window geometry and extraction.

The float and int8 convolution kernels share their data movement here: the
GEMM rows of a convolution (:func:`im2col_rows`), the per-tap strided views
of a padded input (:func:`tap_view`) and the depthwise tap loop built on
them (:func:`depthwise_taps`). Every runtime pad, the ``pad2d`` ops included,
is one preallocated fill plus one slice assignment (:func:`pad_spatial`).

All image kernels in this library use the NHWC layout (batch, height, width,
channels) and TensorFlow-style padding semantics, because that is the layout
and convention of the TFLite models the paper instruments.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import KernelError

Padding = str | tuple[tuple[int, int], tuple[int, int]]


def normalize_stride(stride: int | tuple[int, int]) -> tuple[int, int]:
    """Accept a scalar or (sh, sw) stride and return (sh, sw)."""
    if isinstance(stride, int):
        if stride < 1:
            raise KernelError(f"stride must be >= 1, got {stride}")
        return stride, stride
    sh, sw = stride
    if sh < 1 or sw < 1:
        raise KernelError(f"stride must be >= 1, got {stride}")
    return int(sh), int(sw)


def same_padding(size: int, kernel: int, stride: int) -> tuple[int, int]:
    """TF 'SAME' padding for one spatial dim: output = ceil(size / stride).

    Returns (pad_before, pad_after); the asymmetric extra pixel goes after,
    matching TensorFlow/TFLite behaviour.
    """
    out = -(-size // stride)  # ceil division
    total = max((out - 1) * stride + kernel - size, 0)
    before = total // 2
    return before, total - before


def resolve_padding(
    padding: Padding,
    in_h: int,
    in_w: int,
    kh: int,
    kw: int,
    sh: int,
    sw: int,
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Resolve a padding spec to explicit ((top, bottom), (left, right))."""
    if isinstance(padding, str):
        mode = padding.lower()
        if mode == "valid":
            return (0, 0), (0, 0)
        if mode == "same":
            return same_padding(in_h, kh, sh), same_padding(in_w, kw, sw)
        raise KernelError(f"unknown padding mode {padding!r}")
    (top, bottom), (left, right) = padding
    if min(top, bottom, left, right) < 0:
        raise KernelError(f"negative padding {padding!r}")
    return (int(top), int(bottom)), (int(left), int(right))


def conv_output_size(size: int, kernel: int, stride: int, pad: tuple[int, int]) -> int:
    """Output spatial size of a convolution/pool along one dimension."""
    padded = size + pad[0] + pad[1]
    if padded < kernel:
        raise KernelError(
            f"window {kernel} larger than padded input {padded} (size={size}, pad={pad})"
        )
    return (padded - kernel) // stride + 1


def check_filter_bank(x: np.ndarray, weights: np.ndarray, kind: str, layout: str) -> None:
    """Reject a filter bank that is not 4-D or does not fit the input's channels.

    Both the conv (kh, kw, Cin, Cout) and the depthwise (kh, kw, C, mult)
    layouts carry the input channel count on axis 2.
    """
    if weights.ndim != 4:
        raise KernelError(f"{kind} weights must be 4-D ({layout}), got {weights.shape}")
    if x.shape[-1] != weights.shape[2]:
        raise KernelError(
            f"input channels {x.shape[-1]} != filter channels {weights.shape[2]}")


def window_geometry(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: int | tuple[int, int],
    padding: Padding,
) -> tuple[int, int, tuple[tuple[int, int], tuple[int, int]], int, int]:
    """Stride, resolved padding and output size of a kh x kw window over NHWC ``x``.

    Returns ``(sh, sw, pad, oh, ow)``.
    """
    if x.ndim != 4:
        raise KernelError(f"expected NHWC input, got shape {x.shape}")
    sh, sw = normalize_stride(stride)
    pad = resolve_padding(padding, x.shape[1], x.shape[2], kh, kw, sh, sw)
    oh = conv_output_size(x.shape[1], kh, sh, pad[0])
    ow = conv_output_size(x.shape[2], kw, sw, pad[1])
    return sh, sw, pad, oh, ow


def pad_spatial(
    x: np.ndarray,
    pad: tuple[tuple[int, int], tuple[int, int]],
    value: float = 0.0,
) -> np.ndarray:
    """Pad the H and W axes of an NHWC tensor with ``value`` (no-op if unpadded).

    Byte-identical to ``np.pad(..., constant_values=value)`` at a tenth of its
    per-call cost at batch 1. Raises :class:`KernelError` on a negative pad.
    """
    if x.ndim != 4:
        raise KernelError(f"expected NHWC input, got shape {x.shape}")
    (pt, pb), (pl, pr) = pad
    if min(pt, pb, pl, pr) < 0:
        raise KernelError(f"negative padding {pad!r}")
    if not (pt or pb or pl or pr):
        return x
    n, h, w, c = x.shape
    out = np.full((n, pt + h + pb, pl + w + pr, c), value, dtype=x.dtype)
    out[:, pt:pt + h, pl:pl + w, :] = x
    return out


def tap_view(
    xp: np.ndarray, i: int, j: int, oh: int, ow: int, sh: int, sw: int
) -> np.ndarray:
    """The (N, oh, ow, C) view of a padded input that window tap (i, j) reads."""
    return xp[:, i:i + (oh - 1) * sh + 1:sh, j:j + (ow - 1) * sw + 1:sw, :]


def im2col_rows(
    x: np.ndarray,
    kh: int,
    kw: int,
    sh: int,
    sw: int,
    pad: tuple[tuple[int, int], tuple[int, int]],
) -> np.ndarray:
    """The (N*oh*ow, kh*kw*C) left operand of a convolution GEMM.

    A 1x1 window's rows are the strided pixels themselves, so they skip the
    patch copy; the values and layout match :func:`extract_patches`, so the
    GEMM over them is bit-identical.
    """
    if kh == 1 and kw == 1:
        pixels = pad_spatial(x, pad)[:, ::sh, ::sw, :]
        return np.ascontiguousarray(pixels.reshape(-1, x.shape[-1]))
    patches = extract_patches(x, kh, kw, sh, sw, pad)
    return patches.reshape(-1, kh * kw * x.shape[-1])


def depthwise_taps(
    xp: np.ndarray, weights: np.ndarray, oh: int, ow: int, sh: int, sw: int
) -> np.ndarray:
    """Depthwise window sums as one multiply-add per filter tap.

    ``xp`` is the padded (N, H, W, C) input and ``weights`` the
    (kh, kw, C, mult) filters, already in the accumulator dtype. Returns the
    (N, oh, ow, C*mult) accumulator, summed over taps in row-major order.
    """
    kh, kw, c, mult = weights.shape
    w = weights[..., 0] if mult == 1 else weights
    acc = scratch = None
    for i in range(kh):
        for j in range(kw):
            tap = tap_view(xp, i, j, oh, ow, sh, sw)
            if mult != 1:
                tap = tap[..., None]
            if acc is None:
                acc = tap * w[i, j]
                scratch = np.empty_like(acc)
            else:
                np.multiply(tap, w[i, j], out=scratch)
                acc += scratch
    return acc.reshape(xp.shape[0], oh, ow, c * mult)


def extract_patches(
    x: np.ndarray,
    kh: int,
    kw: int,
    sh: int,
    sw: int,
    pad: tuple[tuple[int, int], tuple[int, int]],
    pad_value: float = 0.0,
) -> np.ndarray:
    """Extract sliding windows from an NHWC tensor.

    Returns an array of shape (N, out_h, out_w, kh, kw, C). This is the
    vectorized core of every convolution and pooling kernel (the "im2col"
    step), implemented with :func:`numpy.lib.stride_tricks.sliding_window_view`
    so no Python-level loops run over pixels.
    """
    x = pad_spatial(x, pad, pad_value)
    n, h, w, c = x.shape
    if h < kh or w < kw:
        raise KernelError(f"window ({kh},{kw}) larger than padded input ({h},{w})")
    # (N, H-kh+1, W-kw+1, C, kh, kw)
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    windows = windows[:, ::sh, ::sw]
    # -> (N, out_h, out_w, kh, kw, C)
    return np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3))
