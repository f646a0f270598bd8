"""Detection metrics: IoU, greedy matching, and mAP@0.5 (11-point interp)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Box = tuple[float, float, float, float]  # y0, x0, y1, x1


@dataclass(frozen=True)
class DetectionResult:
    """One predicted object: label, confidence, pixel box."""

    label: int
    score: float
    box: Box


def iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two [y0, x0, y1, x1] boxes."""
    y0 = max(a[0], b[0])
    x0 = max(a[1], b[1])
    y1 = min(a[2], b[2])
    x1 = min(a[3], b[3])
    inter = max(0.0, y1 - y0) * max(0.0, x1 - x0)
    area_a = max(0.0, a[2] - a[0]) * max(0.0, a[3] - a[1])
    area_b = max(0.0, b[2] - b[0]) * max(0.0, b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


MATCH_IOU = 0.5
"""IoU at which a detection matches a ground-truth box (mAP@0.5)."""

NMS_IOU = 0.45
"""IoU above which NMS suppresses the lower-scoring same-class box."""


def average_precision(
    predictions: list[list[DetectionResult]],
    ground_truth: list[list[tuple[int, Box]]],
    label: int,
) -> float:
    """11-point interpolated AP for one class over a dataset."""
    scored: list[tuple[float, bool]] = []
    total_gt = 0
    for preds, gts in zip(predictions, ground_truth):
        gt_boxes = [box for cls, box in gts if cls == label]
        total_gt += len(gt_boxes)
        matched = [False] * len(gt_boxes)
        for det in sorted((p for p in preds if p.label == label),
                          key=lambda d: -d.score):
            best, best_iou = -1, MATCH_IOU
            for j, gt_box in enumerate(gt_boxes):
                if matched[j]:
                    continue
                overlap = iou(det.box, gt_box)
                if overlap >= best_iou:
                    best, best_iou = j, overlap
            if best >= 0:
                matched[best] = True
                scored.append((det.score, True))
            else:
                scored.append((det.score, False))
    if total_gt == 0:
        return 0.0
    scored.sort(key=lambda s: -s[0])
    tp = np.cumsum([1.0 if hit else 0.0 for _, hit in scored]) if scored else np.array([])
    fp = np.cumsum([0.0 if hit else 1.0 for _, hit in scored]) if scored else np.array([])
    if len(scored) == 0:
        return 0.0
    recall = tp / total_gt
    precision = tp / (tp + fp)
    ap = 0.0
    for r in np.linspace(0, 1, 11):
        mask = recall >= r
        ap += precision[mask].max() if mask.any() else 0.0
    return float(ap / 11.0)


def mean_average_precision(
    predictions: list[list[DetectionResult]],
    ground_truth: list[list[tuple[int, Box]]],
    num_classes: int,
) -> float:
    """mAP@0.5 IoU over all classes (the Figure 4(b) metric)."""
    aps = [
        average_precision(predictions, ground_truth, c)
        for c in range(num_classes)
    ]
    return float(np.mean(aps))


def non_max_suppression(
    detections: list[DetectionResult],
) -> list[DetectionResult]:
    """Greedy per-class NMS."""
    kept: list[DetectionResult] = []
    for det in sorted(detections, key=lambda d: -d.score):
        if all(det.label != k.label or iou(det.box, k.box) < NMS_IOU
               for k in kept):
            kept.append(det)
    return kept
