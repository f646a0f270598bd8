"""Accuracy validation: the first gate of the Figure 2 flowchart.

Compares the task metric computed from edge logs against the reference
pipeline's on the same data; a degradation beyond a tolerance indicates a
deployment issue and triggers the fine-grained per-layer analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.instrument.store import EXrayLog
from repro.metrics.classification import top_1_accuracy
from repro.util.errors import ValidationError


@dataclass(frozen=True)
class AccuracyReport:
    """Outcome of the accuracy-validation stage."""

    edge_metric: float
    ref_metric: float
    tolerance: float
    metric_name: str = "top1"

    @property
    def degradation(self) -> float:
        return self.ref_metric - self.edge_metric

    @property
    def degraded(self) -> bool:
        """True when edge accuracy fell beyond tolerance — issue indicated."""
        return self.degradation > self.tolerance

    def render(self) -> str:
        status = "DEGRADED" if self.degraded else "ok"
        return (
            f"accuracy[{self.metric_name}] edge={self.edge_metric:.4f} "
            f"reference={self.ref_metric:.4f} "
            f"delta={self.degradation:+.4f} ({status})"
        )

    # ------------------------------------------------------------ wire format
    def to_doc(self) -> dict:
        """JSON-native document (floats round-trip exactly through JSON)."""
        return {
            "edge_metric": self.edge_metric,
            "ref_metric": self.ref_metric,
            "tolerance": self.tolerance,
            "metric_name": self.metric_name,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "AccuracyReport":
        return cls(
            edge_metric=doc["edge_metric"],
            ref_metric=doc["ref_metric"],
            tolerance=doc["tolerance"],
            metric_name=doc.get("metric_name", "top1"),
        )


def _log_outputs_and_labels(log: EXrayLog) -> tuple[np.ndarray, np.ndarray]:
    outputs = log.stacked("model_output")
    try:
        labels = log.scalar_series("label").astype(np.int64)
    except KeyError:
        raise ValidationError(
            "log has no 'label' scalars; run the pipeline with labels"
        ) from None
    return outputs, labels


def classification_accuracy_from_log(log: EXrayLog) -> float:
    """Top-1 accuracy over a log's model outputs and recorded labels."""
    outputs, labels = _log_outputs_and_labels(log)
    scores = outputs.reshape(len(outputs), -1)
    return top_1_accuracy(scores, labels)


def validate_accuracy(edge_log: EXrayLog, ref_log: EXrayLog) -> AccuracyReport:
    """Stage-1 validation: edge vs reference top-1 accuracy on the same
    data, degraded when the edge drops more than 0.02 below the reference."""
    return AccuracyReport(
        edge_metric=classification_accuracy_from_log(edge_log),
        ref_metric=classification_accuracy_from_log(ref_log),
        tolerance=0.02,
        metric_name="top1",
    )
