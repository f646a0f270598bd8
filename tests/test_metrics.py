"""Task-metric tests: top-k, confusion, detection AP/NMS, mIoU."""

import numpy as np
import pytest

from repro.metrics import (
    DetectionResult,
    average_precision,
    confusion_matrix,
    iou,
    mean_average_precision,
    mean_iou,
    non_max_suppression,
    top_1_accuracy,
    top_k_accuracy,
)
from repro.util.errors import ValidationError


class TestTopK:
    def test_top1(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        assert top_1_accuracy(scores, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_top_k_recovers(self):
        scores = np.array([[0.5, 0.3, 0.2]])
        assert top_k_accuracy(scores, np.array([1]), k=1) == 0.0
        assert top_k_accuracy(scores, np.array([1]), k=2) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            top_1_accuracy(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_misaligned_rejected(self):
        with pytest.raises(ValidationError):
            top_1_accuracy(np.zeros((2, 3)), np.zeros(3, dtype=int))


class TestConfusion:
    def test_diagonal_for_perfect(self):
        labels = np.array([0, 1, 2, 1])
        mat = confusion_matrix(labels, labels, 3)
        assert mat.trace() == 4 and mat.sum() == 4

    def test_off_diagonal(self):
        mat = confusion_matrix(np.array([1]), np.array([0]), 2)
        assert mat[0, 1] == 1


class TestIoU:
    def test_identical_boxes(self):
        assert iou((0, 0, 2, 2), (0, 0, 2, 2)) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 1, 1), (5, 5, 6, 6)) == 0.0

    def test_half_overlap(self):
        assert iou((0, 0, 2, 2), (0, 1, 2, 3)) == pytest.approx(1 / 3)

    def test_degenerate(self):
        assert iou((0, 0, 0, 0), (0, 0, 1, 1)) == 0.0


def det(label, score, box):
    return DetectionResult(label=label, score=score, box=box)


class TestAveragePrecision:
    def test_perfect_predictions(self):
        gt = [[(0, (0.0, 0.0, 10.0, 10.0))]]
        preds = [[det(0, 0.9, (0.0, 0.0, 10.0, 10.0))]]
        assert average_precision(preds, gt, 0) == pytest.approx(1.0)

    def test_miss_scores_zero(self):
        gt = [[(0, (0.0, 0.0, 10.0, 10.0))]]
        preds = [[det(0, 0.9, (50.0, 50.0, 60.0, 60.0))]]
        assert average_precision(preds, gt, 0) == 0.0

    def test_duplicate_detections_penalized(self):
        gt = [[(0, (0.0, 0.0, 10.0, 10.0))]]
        box = (0.0, 0.0, 10.0, 10.0)
        dup = [[det(0, 0.9, box), det(0, 0.8, box), det(0, 0.7, box)]]
        single = [[det(0, 0.9, box)]]
        assert average_precision(dup, gt, 0) < average_precision(single, gt, 0) + 1e-9
        assert average_precision(dup, gt, 0) == pytest.approx(1.0)  # 11-pt interp

    def test_no_gt_gives_zero(self):
        assert average_precision([[det(0, 0.9, (0, 0, 1, 1))]], [[]], 0) == 0.0

    def test_map_averages_classes(self):
        gt = [[(0, (0.0, 0.0, 10.0, 10.0)), (1, (20.0, 20.0, 30.0, 30.0))]]
        preds = [[det(0, 0.9, (0.0, 0.0, 10.0, 10.0))]]  # class 1 missed
        assert mean_average_precision(preds, gt, 2) == pytest.approx(0.5)


class TestNMS:
    def test_suppresses_overlaps(self):
        dets = [det(0, 0.9, (0, 0, 10, 10)), det(0, 0.8, (1, 1, 11, 11))]
        assert len(non_max_suppression(dets)) == 1

    def test_keeps_distinct_classes(self):
        dets = [det(0, 0.9, (0, 0, 10, 10)), det(1, 0.8, (0, 0, 10, 10))]
        assert len(non_max_suppression(dets)) == 2

    def test_highest_score_kept(self):
        dets = [det(0, 0.5, (0, 0, 10, 10)), det(0, 0.9, (1, 1, 11, 11))]
        kept = non_max_suppression(dets)
        assert kept[0].score == 0.9


class TestMeanIoU:
    def test_perfect(self):
        masks = np.array([[0, 1], [2, 1]])
        assert mean_iou(masks, masks, 3) == 1.0

    def test_absent_class_ignored(self):
        pred = np.array([[0, 0]])
        true = np.array([[0, 0]])
        assert mean_iou(pred, true, 4) == 1.0

    def test_partial(self):
        pred = np.array([0, 0, 1, 1])
        true = np.array([0, 1, 1, 1])
        # class0: inter 1 union 2; class1: inter 2 union 3
        assert mean_iou(pred, true, 2) == pytest.approx((0.5 + 2 / 3) / 2)
