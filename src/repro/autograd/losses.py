"""Training losses with fused, numerically stable backwards."""

from __future__ import annotations

import numpy as np

from repro.autograd.variable import Var, as_var


def softmax_cross_entropy(logits: Var, labels: np.ndarray,
                          weights: np.ndarray | None = None) -> Var:
    """(Weighted) mean softmax cross-entropy over integer class labels.

    ``logits``: (..., K); ``labels``: integer array matching the leading
    dims. Optional ``weights`` (same shape as labels) reweight examples —
    used by the grid detector to counter background-cell dominance. The
    backward is the fused ``(softmax - onehot) * w / sum(w)`` form.
    """
    logits = as_var(logits)
    labels = np.asarray(labels)
    flat = logits.data.reshape(-1, logits.shape[-1])
    flat_labels = labels.reshape(-1)
    if weights is None:
        flat_weights = np.ones(len(flat_labels), dtype=np.float64)
    else:
        flat_weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    total_weight = max(float(flat_weights.sum()), 1e-12)
    shifted = flat - flat.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1))
    nll = logsumexp - shifted[np.arange(len(flat_labels)), flat_labels]
    out = Var(np.float32((nll * flat_weights).sum() / total_weight),
              logits.requires_grad, (logits,))

    def backward(g):
        if logits.requires_grad:
            probs = np.exp(shifted - logsumexp[:, None])
            probs[np.arange(len(flat_labels)), flat_labels] -= 1.0
            probs *= flat_weights[:, None] / total_weight
            logits.accumulate_grad(g * probs.reshape(logits.shape))
    out._backward_fn = backward
    return out


def mse(pred: Var, targets: np.ndarray, mask: np.ndarray | None = None) -> Var:
    """Mean squared error, optionally masked (for box-regression targets)."""
    pred = as_var(pred)
    targets = np.asarray(targets, dtype=np.float32)
    diff = pred.data - targets
    if mask is not None:
        diff = diff * mask
        denom = max(float(mask.sum()), 1.0)
    else:
        denom = float(diff.size)
    out = Var(np.float32((diff**2).sum() / denom), pred.requires_grad, (pred,))

    def backward(g):
        if pred.requires_grad:
            pred.accumulate_grad(g * 2.0 * diff / denom)
    out._backward_fn = backward
    return out
