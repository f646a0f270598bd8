"""Classification metrics: top-k accuracy and confusion matrices."""

from __future__ import annotations

import numpy as np

from repro.util.errors import ValidationError


def top_k_accuracy(scores: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Fraction of rows whose true label is among the top-k scores.

    ``scores``: (N, K) class scores/probabilities; ``labels``: (N,) ints.
    """
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    if scores.ndim != 2 or len(scores) != len(labels):
        raise ValidationError(
            f"scores {scores.shape} and labels {labels.shape} misaligned"
        )
    if len(labels) == 0:
        raise ValidationError("empty evaluation set")
    topk = np.argsort(-scores, axis=1)[:, :k]
    return float((topk == labels[:, None]).any(axis=1).mean())


def top_1_accuracy(scores: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy (the headline metric of Figures 4(a) and 5)."""
    return top_k_accuracy(scores, labels, k=1)


def confusion_matrix(pred: np.ndarray, labels: np.ndarray,
                     num_classes: int) -> np.ndarray:
    """(num_classes, num_classes) counts: rows true, columns predicted."""
    pred = np.asarray(pred).ravel()
    labels = np.asarray(labels).ravel()
    mat = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(mat, (labels, pred), 1)
    return mat
