"""Normalization float kernels: inference-mode batch norm and layer norm."""

from __future__ import annotations

import numpy as np

from repro.util.errors import KernelError


def batch_norm(
    x: np.ndarray,
    mean: np.ndarray,
    variance: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-3,
) -> np.ndarray:
    """Inference-mode batch normalization over the channel (last) axis.

    This op exists only in *checkpoint* graphs; the checkpoint→mobile
    converter folds it into the preceding conv/dense weights
    (see :mod:`repro.convert.fold_batch_norm`).
    """
    for name, p in (("mean", mean), ("variance", variance), ("gamma", gamma), ("beta", beta)):
        if p.shape != (x.shape[-1],):
            raise KernelError(
                f"batch_norm {name} shape {p.shape} != channels ({x.shape[-1]},)"
            )
    inv = gamma / np.sqrt(variance + eps)
    return x * inv + (beta - mean * inv)


def layer_norm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-6,
) -> np.ndarray:
    """Layer normalization over the last axis (transformer blocks).

    Runs in ``x``'s dtype (``gamma``/``beta`` promote); its variance is
    byte for byte ``x.var``'s, from the one centered input."""
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / np.sqrt(var + eps) * gamma + beta
