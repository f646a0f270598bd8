"""Generic training loops over the architecture DSL.

All zoo models train with the same machinery: Adam on minibatches of the
seeded synthetic datasets, with deterministic shuffling. Losses cover the
three task shapes (classification / dense per-pixel / grid detection).
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Adam, Var, mse, ops, softmax_cross_entropy
from repro.util.rng import derive_rng
from repro.zoo.arch import Layer, run_arch
from repro.zoo.backends import ParamStore, TrainBackend


def _strip_softmax(arch: list[Layer]) -> list[Layer]:
    """Train on logits: drop a trailing softmax layer if present."""
    if arch and arch[-1].kind == "softmax":
        return arch[:-1]
    return arch


def classification_loss(out: Var, targets: np.ndarray) -> Var:
    """Cross-entropy on (..., K) logits against integer labels."""
    return softmax_cross_entropy(out, targets)


def make_detection_loss(num_classes: int):
    """Grid-detector loss over the fused (cls+box) head tensor.

    Targets: dict with ``cls`` (N,G,G) int, ``box`` (N,G,G,4) float,
    ``mask`` (N,G,G,1) float marking cells containing an object. Object
    cells weigh 8x in the classification term — background cells dominate
    ~20:1 and an unweighted loss collapses to all-background predictions —
    and the box term weighs 2x.
    """
    box_weight, positive_weight = 2.0, 8.0

    def loss(out: Var, targets: dict) -> Var:
        cls_logits = ops.slice_channels(out, 0, num_classes + 1)
        box_pred = ops.slice_channels(out, num_classes + 1, num_classes + 5)
        cell_weights = 1.0 + (positive_weight - 1.0) * targets["mask"][..., 0]
        cls_loss = softmax_cross_entropy(cls_logits, targets["cls"],
                                         weights=cell_weights)
        box_loss = mse(box_pred, targets["box"],
                       mask=np.broadcast_to(targets["mask"], box_pred.shape))
        return ops.add(cls_loss, ops.scale(box_loss, box_weight))

    return loss


def train_model(
    arch: list[Layer],
    train_inputs: np.ndarray,
    train_targets,
    loss_fn=classification_loss,
    epochs: int = 4,
    batch_size: int = 96,
    lr: float = 3e-3,
    seed: int = 0,
) -> tuple[ParamStore, list[float]]:
    """Train an architecture; returns the parameter store and loss history.

    ``train_targets`` is either an integer label array or (for detection) a
    dict of target arrays sliced per batch.
    """
    store = ParamStore(seed)
    train_arch = _strip_softmax(arch)
    # One tiny forward materializes every parameter so Adam sees them all.
    run_arch(train_arch, Var(train_inputs[:2]), TrainBackend(store, training=True))
    optimizer = Adam(store.params, lr=lr)
    rng = derive_rng(seed, "train-shuffle")
    n = len(train_inputs)
    history: list[float] = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        epoch_loss, batches = 0.0, 0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            xb = Var(train_inputs[idx])
            if isinstance(train_targets, dict):
                tb = {k: v[idx] for k, v in train_targets.items()}
            else:
                tb = train_targets[idx]
            backend = TrainBackend(store, training=True)
            out = run_arch(train_arch, xb, backend)
            loss = loss_fn(out, tb)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            epoch_loss += loss.item()
            batches += 1
        history.append(epoch_loss / max(batches, 1))
    return store, history


def predict(
    arch: list[Layer],
    store: ParamStore,
    inputs: np.ndarray,
) -> np.ndarray:
    """Float (training-framework) forward pass in eval mode, 256 inputs at
    a time."""
    outs = []
    for start in range(0, len(inputs), 256):
        backend = TrainBackend(store, training=False)
        out = run_arch(arch, Var(inputs[start:start + 256]), backend)
        outs.append(out.data)
    return np.concatenate(outs, axis=0)


def classification_accuracy(
    arch: list[Layer], store: ParamStore, inputs: np.ndarray, labels: np.ndarray
) -> float:
    """Eval-mode top-1 accuracy of a trained (not yet exported) model."""
    scores = predict(arch, store, inputs)
    flat_scores = scores.reshape(-1, scores.shape[-1])
    flat_labels = np.asarray(labels).reshape(-1)
    return float((flat_scores.argmax(axis=1) == flat_labels).mean())
