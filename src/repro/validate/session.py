"""The deployment-validation session: Figure 2's flowchart, executable.

1. **Accuracy validation** — match the edge pipeline's task metric against
   the reference pipeline on the same (played-back) data.
2. **Per-layer validation** — if accuracy dropped, scrutinize layer-level
   outputs with normalized rMSE and locate the first discrepancy.
3. **Root-cause analysis** — run built-in and user-defined assertion
   functions; failed assertions carry the diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.instrument.store import EXrayLog
from repro.util.errors import ValidationError
from repro.util.tabulate import format_table
from repro.validate.accuracy import AccuracyReport, validate_accuracy
from repro.validate.assertions import (
    AssertionResult,
    DeploymentAssertion,
    FunctionAssertion,
    ValidationContext,
    default_assertions,
)
from repro.validate.layerdiff import LayerDiff, locate_discrepancies, per_layer_diff


@dataclass
class ValidationReport:
    """Everything a DebugSession found, renderable as a text report."""

    accuracy: AccuracyReport | None
    layer_diffs: list[LayerDiff] = field(default_factory=list)
    flagged_layers: list[LayerDiff] = field(default_factory=list)
    assertions: list[AssertionResult] = field(default_factory=list)

    @property
    def issues(self) -> list[AssertionResult]:
        """Failed assertions — the root causes ML-EXray reports."""
        return [a for a in self.assertions if not a.passed]

    @property
    def healthy(self) -> bool:
        return not self.issues and (
            self.accuracy is None or not self.accuracy.degraded
        )

    # ------------------------------------------------- fingerprint views
    # Cross-variant triage consumes the full per-layer drift vector, not
    # just the flagged subset, so the report exposes schedule-aligned views.

    def layer_schedule(self) -> tuple[tuple[str, str], ...]:
        """Stable ``(layer, op)`` keys of the compared layers, in order."""
        return tuple((d.layer, d.op) for d in self.layer_diffs)

    def drift_vector(self) -> np.ndarray:
        """Per-layer error aligned to :meth:`layer_schedule` (float64)."""
        return np.array([d.error for d in self.layer_diffs], dtype=np.float64)

    @property
    def first_flagged_index(self) -> int:
        """Index (into the schedule) of the first drift jump, or -1."""
        return self.flagged_layers[0].index if self.flagged_layers else -1

    @property
    def degenerate_indices(self) -> frozenset[int]:
        """Schedule indices whose reference output was constant (unit change)."""
        return frozenset(d.index for d in self.layer_diffs if d.degenerate_ref)

    @property
    def failed_checks(self) -> frozenset[str]:
        """Names of the failed assertions — the fingerprint's symptom set."""
        return frozenset(a.check for a in self.issues)

    # ---------------------------------------------------------- wire format
    def to_doc(self) -> dict:
        """JSON-native document for shard artifacts and merged reports.

        ``flagged`` stores positions into ``layer_diffs`` (not schedule
        indices), so :meth:`from_doc` rebuilds ``flagged_layers`` as views
        of the same :class:`LayerDiff` list — drift vectors, schedules, and
        fingerprints derived from a round-tripped report are identical to
        the original's.
        """
        return {
            "accuracy": (self.accuracy.to_doc()
                         if self.accuracy is not None else None),
            "layer_diffs": [d.to_doc() for d in self.layer_diffs],
            "flagged": [self.layer_diffs.index(d) for d in self.flagged_layers],
            "assertions": [a.to_doc() for a in self.assertions],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ValidationReport":
        accuracy = doc.get("accuracy")
        diffs = [LayerDiff.from_doc(d) for d in doc.get("layer_diffs", [])]
        positions = doc.get("flagged", [])
        if any(not 0 <= i < len(diffs) for i in positions):
            raise ValidationError(
                "malformed validation-report document: 'flagged' names a "
                "layer-diff position that does not exist")
        flagged = [diffs[i] for i in positions]
        return cls(
            accuracy=(AccuracyReport.from_doc(accuracy)
                      if accuracy is not None else None),
            layer_diffs=diffs,
            flagged_layers=flagged,
            assertions=[AssertionResult.from_doc(a)
                        for a in doc.get("assertions", [])],
        )

    def render(self) -> str:
        lines = ["=== ML-EXray deployment validation report ==="]
        if self.accuracy is not None:
            lines.append(self.accuracy.render())
        if self.flagged_layers:
            rows = [(d.index, d.layer, d.op, f"{d.error:.4f}")
                    for d in self.flagged_layers]
            lines.append(format_table(
                ("layer#", "name", "op", "nrMSE"), rows,
                title="per-layer discrepancies (drift jumps):"))
        elif self.layer_diffs:
            worst = max(self.layer_diffs, key=lambda d: d.error)
            lines.append(
                f"per-layer drift: max nrMSE {worst.error:.4f} at layer "
                f"{worst.index} ({worst.layer}) — no suspicious jumps")
        for result in self.assertions:
            lines.append(result.render())
        verdict = "HEALTHY" if self.healthy else (
            f"{len(self.issues)} issue(s) found")
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)


class DebugSession:
    """Compare an edge log against a reference log and diagnose issues.

    Parameters
    ----------
    edge_log / ref_log:
        Instrumented runs over the same played-back data. Either may be an
        eager in-memory log or a lazy directory-backed one
        (:meth:`EXrayLog.load`): every stage consumes the logs through
        the streaming/random-access reader APIs, so validating a streamed
        trace never materializes all of its per-layer tensors at once.
    task:
        Selects the built-in assertion suite and the accuracy metric (top-1
        for classification, speech and text; other tasks skip the accuracy
        gate). An edge-vs-reference drop above 0.02 triggers the
        fine-grained analysis.
    """

    def __init__(
        self,
        edge_log: EXrayLog,
        ref_log: EXrayLog,
        task: str = "classification",
    ):
        self.edge_log = edge_log
        self.ref_log = ref_log
        self.task = task

    def run(
        self,
        assertions: list | None = None,
        always_run_assertions: bool = False,
    ) -> ValidationReport:
        """Execute the three-stage flowchart and return the report.

        ``assertions`` extends/overrides the task's built-in suite; plain
        functions are wrapped automatically. By default assertions and
        per-layer analysis only run when accuracy degraded (the flowchart's
        conditional edge); ``always_run_assertions`` forces them. Layer
        drift is nrMSE, flagged by :func:`locate_discrepancies`' defaults.
        """
        # Stage 1: accuracy validation.
        accuracy: AccuracyReport | None = None
        if self.task in ("classification", "speech", "text"):
            try:
                accuracy = validate_accuracy(self.edge_log, self.ref_log)
            except (KeyError, ValidationError):
                accuracy = None  # labels/outputs not logged: skip the gate

        suspicious = accuracy.degraded if accuracy is not None else True
        report = ValidationReport(accuracy=accuracy)
        if not suspicious and not always_run_assertions:
            return report

        # Stage 2: per-layer drift localization (when layer logs exist).
        if self.edge_log.layer_names() and self.ref_log.layer_names():
            report.layer_diffs = per_layer_diff(self.edge_log, self.ref_log)
            report.flagged_layers = locate_discrepancies(report.layer_diffs)

        # Stage 3: root-cause assertions.
        suite: list[DeploymentAssertion] = default_assertions(self.task)
        for extra in assertions or []:
            if isinstance(extra, DeploymentAssertion):
                suite.append(extra)
            else:
                suite.append(FunctionAssertion(extra))
        ctx = ValidationContext(
            self.edge_log, self.ref_log, report.layer_diffs)
        report.assertions = [assertion.run(ctx) for assertion in suite]
        return report
