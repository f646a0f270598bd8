"""Detection target encoding / prediction decoding round-trips."""

import numpy as np
import pytest

from repro.datasets.detection import BoxAnnotation
from repro.kernels.activations import softmax
from repro.metrics import mean_average_precision
from repro.pipelines.detection import GRID, decode_predictions, encode_targets


class TestEncodeTargets:
    def test_background_default(self):
        targets = encode_targets([[]], GRID, 48, 4)
        assert targets["cls"].sum() == 0 and targets["mask"].sum() == 0

    def test_object_assigned_to_center_cell(self):
        ann = BoxAnnotation(2, (8.0, 8.0, 16.0, 16.0))  # center (12,12) -> cell 1,1
        targets = encode_targets([[ann]], GRID, 48, 4)
        assert targets["cls"][0, 1, 1] == 3  # label+1
        assert targets["mask"][0, 1, 1, 0] == 1.0

    def test_box_offsets_centered(self):
        cell = 48 / GRID
        ann = BoxAnnotation(0, (cell, cell, 2 * cell, 2 * cell))  # exactly cell 1,1
        targets = encode_targets([[ann]], GRID, 48, 4)
        dy, dx, lh, lw = targets["box"][0, 1, 1]
        assert abs(dy) < 1e-6 and abs(dx) < 1e-6
        assert lh == pytest.approx(0.0, abs=1e-6)  # log(cell/cell)


class TestDecodeRoundTrip:
    def build_head(self, targets, num_classes=4, confidence=8.0):
        """Construct head logits that decode back to the encoded targets."""
        n, g, _ = targets["cls"].shape
        head = np.zeros((n, g, g, num_classes + 5), dtype=np.float32)
        head[..., 0] = confidence  # background by default
        for i in range(n):
            for gy in range(g):
                for gx in range(g):
                    cls = targets["cls"][i, gy, gx]
                    if cls > 0:
                        head[i, gy, gx, 0] = 0.0
                        head[i, gy, gx, cls] = confidence
                        head[i, gy, gx, num_classes + 1:] = targets["box"][i, gy, gx]
        return head

    def test_roundtrip_recovers_objects(self):
        anns = [[BoxAnnotation(1, (8.0, 8.0, 24.0, 24.0)),
                 BoxAnnotation(3, (30.0, 30.0, 44.0, 44.0))]]
        targets = encode_targets(anns, GRID, 48, 4)
        head = self.build_head(targets)
        decoded = decode_predictions(head, 4, 48)
        assert len(decoded[0]) == 2
        labels = sorted(d.label for d in decoded[0])
        assert labels == [1, 3]
        gt = [[(a.label, a.box) for a in anns[0]]]
        assert mean_average_precision(decoded, gt, 4) > 0.4

    def test_threshold_filters(self):
        targets = encode_targets([[]], GRID, 48, 4)
        head = self.build_head(targets)
        decoded = decode_predictions(head, 4, 48)
        assert decoded[0] == []

    def test_scores_are_softmax_probs(self):
        anns = [[BoxAnnotation(0, (8.0, 8.0, 24.0, 24.0))]]
        targets = encode_targets(anns, GRID, 48, 4)
        head = self.build_head(targets, confidence=3.0)
        decoded = decode_predictions(head, 4, 48)
        probs = softmax(head[0, 1, 1, :5])
        assert decoded[0][0].score == pytest.approx(float(probs.max()), abs=1e-5)
