"""Elementwise and shape-manipulation float kernels."""

from __future__ import annotations

import numpy as np

from repro.kernels.common import pad_spatial
from repro.util.errors import KernelError


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Broadcasting elementwise addition (residual connections)."""
    return a + b


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Broadcasting elementwise multiplication (SE gating)."""
    return a * b


def sub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Broadcasting elementwise subtraction."""
    return a - b


def pad2d(x: np.ndarray, paddings: tuple[tuple[int, int], tuple[int, int]],
          value: float = 0.0) -> np.ndarray:
    """Explicit spatial padding of an NHWC tensor (the TFLite ``Pad`` op)."""
    return pad_spatial(x, paddings, value)


def concat(tensors: list[np.ndarray], axis: int = -1) -> np.ndarray:
    """Concatenate tensors along ``axis`` (inception branches, FPN merges)."""
    if not tensors:
        raise KernelError("concat needs at least one tensor")
    return np.concatenate(tensors, axis=axis)


def reshape(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reshape preserving the batch dim when shape[0] == -1."""
    return x.reshape(shape)


def flatten(x: np.ndarray) -> np.ndarray:
    """Flatten all but the batch dimension."""
    return x.reshape(x.shape[0], -1)


def resize_nearest(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbour spatial upsampling of an NHWC tensor (decoder ops)."""
    if x.ndim != 4:
        raise KernelError(f"resize_nearest expects NHWC input, got {x.shape}")
    n, h, w, c = x.shape
    rows = (np.arange(out_h) * h // out_h).clip(0, h - 1)
    cols = (np.arange(out_w) * w // out_w).clip(0, w - 1)
    return x[:, rows][:, :, cols]
