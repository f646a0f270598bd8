"""Grid-detector target encoding and postprocessing (SSD-lite conventions).

The detector head emits, per grid cell, ``num_classes + 1`` class logits
(class 0 = background) concatenated with 4 box parameters
``(dy, dx, log h, log w)`` relative to the cell. Encoding assigns each
ground-truth object to the cell containing its center.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.activations import softmax
from repro.metrics.detection import DetectionResult, non_max_suppression

GRID = 6
"""Default grid resolution of the zoo detectors."""


def encode_targets(
    annotations: list[list],
    grid: int,
    image_size: int,
    num_classes: int,
) -> dict[str, np.ndarray]:
    """Build dense training targets from per-image box annotations."""
    n = len(annotations)
    cell = image_size / grid
    cls = np.zeros((n, grid, grid), dtype=np.int64)
    box = np.zeros((n, grid, grid, 4), dtype=np.float32)
    mask = np.zeros((n, grid, grid, 1), dtype=np.float32)
    for i, anns in enumerate(annotations):
        for ann in anns:
            y0, x0, y1, x1 = ann.box
            cy, cx = (y0 + y1) / 2.0, (x0 + x1) / 2.0
            gy = min(int(cy / cell), grid - 1)
            gx = min(int(cx / cell), grid - 1)
            cls[i, gy, gx] = ann.label + 1  # 0 is background
            box[i, gy, gx] = (
                (cy - (gy + 0.5) * cell) / cell,
                (cx - (gx + 0.5) * cell) / cell,
                np.log(max(y1 - y0, 1e-3) / cell),
                np.log(max(x1 - x0, 1e-3) / cell),
            )
            mask[i, gy, gx, 0] = 1.0
    return {"cls": cls, "box": box, "mask": mask}


SCORE_THRESHOLD = 0.35
"""Lowest object-class probability a decoded cell keeps."""


def decode_predictions(
    head: np.ndarray,
    num_classes: int,
    image_size: int,
) -> list[list[DetectionResult]]:
    """Turn head tensors (N, G, G, K+5) into per-image detection lists.

    Cells whose best object-class probability is below
    :data:`SCORE_THRESHOLD` are dropped; the rest go through per-class NMS.
    """
    n, grid = head.shape[0], head.shape[1]
    cell = image_size / grid
    cls_probs = softmax(head[..., : num_classes + 1], axis=-1)
    boxes = head[..., num_classes + 1:]
    results: list[list[DetectionResult]] = []
    for i in range(n):
        dets: list[DetectionResult] = []
        for gy in range(grid):
            for gx in range(grid):
                probs = cls_probs[i, gy, gx]
                label = int(probs[1:].argmax()) + 1
                score = float(probs[label])
                if score < SCORE_THRESHOLD:
                    continue
                dy, dx, lh, lw = boxes[i, gy, gx]
                cy = (gy + 0.5) * cell + dy * cell
                cx = (gx + 0.5) * cell + dx * cell
                h = float(np.exp(np.clip(lh, -4, 4)) * cell)
                w = float(np.exp(np.clip(lw, -4, 4)) * cell)
                dets.append(DetectionResult(
                    label=label - 1, score=score,
                    box=(cy - h / 2, cx - w / 2, cy + h / 2, cx + w / 2),
                ))
        results.append(non_max_suppression(dets))
    return results
