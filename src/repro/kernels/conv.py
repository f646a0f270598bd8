"""Float convolution kernels (NHWC, TF weight layouts).

``conv2d`` runs one GEMM per sample: a 1x1 filter multiplies the flattened
pixels directly (bit-identical to im2col, without the patch copy;
MobileNet-family graphs are mostly pointwise convolutions), larger filters
multiply the im2col patch matrix. Each sample's GEMM has the shape of a
batch-1 call, so row i of a batch-N result equals a batch-1 run on sample i
byte for byte (one GEMM over all ``N*oh*ow`` rows would not be: BLAS
blocks the rows differently as their count changes). ``depthwise_conv2d``
accumulates one multiply-add per filter tap over strided (N, oh, ow, C)
views of the padded input instead of materializing an
(N, oh, ow, kh, kw, C) patch tensor. Both match TensorFlow semantics so
that converted "mobile" models behave like their training-pipeline
counterparts up to float associativity.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.common import (
    Padding,
    check_filter_bank,
    depthwise_taps,
    im2col_rows,
    pad_spatial,
    window_geometry,
)


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
    check_filter_bank(x, weights, "conv2d", "kh,kw,Cin,Cout")
    kh, kw, cin, cout = weights.shape
    sh, sw, pad, oh, ow = window_geometry(x, kh, kw, stride, padding)
    cols = im2col_rows(x, kh, kw, sh, sw, pad)
    res = np.matmul(cols.reshape(x.shape[0], oh * ow, kh * kw * cin),
                    weights.reshape(kh * kw * cin, cout))
    res = res.reshape(x.shape[0], oh, ow, cout)
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
    check_filter_bank(x, weights, "depthwise", "kh,kw,C,mult")
    kh, kw = weights.shape[:2]
    sh, sw, pad, oh, ow = window_geometry(x, kh, kw, stride, padding)
    res = depthwise_taps(pad_spatial(x, pad), weights, oh, ow, sh, sw)
    if bias is not None:
        res = res + bias
    return res
