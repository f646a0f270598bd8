"""Sequence-model float kernels: embeddings, matmul, and attention.

These back the NNLM-lite and micro-BERT text models in the zoo.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.activations import softmax
from repro.util.errors import KernelError


def embedding_lookup(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Gather rows of ``table`` (V, D) by integer ``ids`` (..., ) -> (..., D)."""
    if table.ndim != 2:
        raise KernelError(f"embedding table must be 2-D (V,D), got {table.shape}")
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise KernelError(
            f"ids out of range [0, {table.shape[0]}): [{ids.min()}, {ids.max()}]"
        )
    return table[ids]


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched matrix multiplication."""
    return a @ b


def scaled_dot_product_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Attention(Q, K, V) = softmax(QK^T / sqrt(d)) V.

    Shapes: q (..., Lq, d), k (..., Lk, d), v (..., Lk, dv).
    ``mask`` broadcasts against (..., Lq, Lk); masked positions get -inf.
    """
    d = q.shape[-1]
    # np.sqrt returns an np.float64 scalar, which promotes float32 scores;
    # the result is cast back to the input dtype once, at the end.
    scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(float(d))
    if mask is not None:
        scores = np.where(mask, scores, -1e30)
    return (softmax(scores, axis=-1) @ v).astype(q.dtype, copy=False)


def split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    """(B, L, D) -> (B, heads, L, D/heads)."""
    b, l, d = x.shape
    if d % num_heads:
        raise KernelError(f"model dim {d} not divisible by {num_heads} heads")
    return x.reshape(b, l, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """(B, heads, L, dh) -> (B, L, heads*dh)."""
    b, h, l, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * dh)
