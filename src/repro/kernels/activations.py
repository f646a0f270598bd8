"""Float activation kernels.

Includes the mobile-specific activations (relu6, hard-swish, hard-sigmoid)
that MobileNet v1/v2/v3 use, plus the transformer activations (gelu) used by
the micro-BERT model.
"""

from __future__ import annotations

import numpy as np


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit: max(x, 0)."""
    return np.maximum(x, 0.0)


def relu6(x: np.ndarray) -> np.ndarray:
    """ReLU clipped at 6 — the canonical MobileNet activation."""
    return np.clip(x, 0.0, 6.0)


def hard_sigmoid(x: np.ndarray) -> np.ndarray:
    """Piecewise-linear sigmoid used in MobileNet v3: relu6(x + 3) / 6."""
    return np.clip(x + 3.0, 0.0, 6.0) / 6.0


def hard_swish(x: np.ndarray) -> np.ndarray:
    """Hard swish used in MobileNet v3: x * relu6(x + 3) / 6."""
    return x * hard_sigmoid(x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    out = np.empty_like(x, dtype=np.result_type(x, np.float32))
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def tanh(x: np.ndarray) -> np.ndarray:
    """Hyperbolic tangent."""
    return np.tanh(x)


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian error linear unit (tanh approximation, as in BERT)."""
    # The np.float64 constant promotes float32 inputs; cast back once.
    y = 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))
    return y.astype(x.dtype, copy=False)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=axis, keepdims=True)


ACTIVATIONS = {
    "linear": lambda x: x,
    "relu": relu,
    "relu6": relu6,
    "hard_sigmoid": hard_sigmoid,
    "hard_swish": hard_swish,
    "sigmoid": sigmoid,
    "tanh": tanh,
    "gelu": gelu,
}
"""Registry of fusable activations by name (used by the activation-fusion pass)."""
