"""Fully-connected (dense) float kernel."""

from __future__ import annotations

import numpy as np

from repro.util.errors import KernelError


def dense(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None = None,
) -> np.ndarray:
    """Fully-connected layer: ``y = x @ W + b``.

    Parameters
    ----------
    x:
        Input of shape (N, D) or any (..., D); leading dims are preserved.
    weights:
        Weight matrix of shape (D, units).
    bias:
        Optional bias of shape (units,).
    """
    if weights.ndim != 2:
        raise KernelError(f"dense weights must be 2-D (in,out), got {weights.shape}")
    if x.shape[-1] != weights.shape[0]:
        raise KernelError(
            f"dense input dim {x.shape[-1]} != weight rows {weights.shape[0]}"
        )
    res = x @ weights
    if bias is not None:
        res = res + bias
    return res
