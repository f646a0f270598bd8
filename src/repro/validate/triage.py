"""Cross-variant root-cause triage: the Figure-6 decision rule, fleet-wide.

A sweep's per-variant reports say *that* variants broke; triage says *why*,
and which variants broke for the same reason. Variants are reduced to
:class:`~repro.validate.fingerprint.DriftFingerprint`\\ s, clustered by
fingerprint similarity, and each cluster is labelled with a root-cause
hypothesis via the paper's localization rule (§3.4, Figure 6):

* drift already present at the **input layer** (first flagged index 0, or a
  failed preprocessing-class assertion) ⇒ *preprocessing* bug;
* first drift jump at an **internal op** ⇒ *kernel/quantization* bug at
  that op class;
* **uniform** elevated drift with no jump ⇒ *stage mismatch* (wrong model
  artifact deployed);
* per-layer latency assertion failures without drift ⇒ *performance*
  issue; no drift and no failures ⇒ *healthy*;
* broken under some kernel **backends** but healthy under others with the
  *same* preprocessing, bug preset, stage, and device ⇒
  *kernel-implementation* difference (:data:`CAUSE_BACKEND`) — the §4.4
  optimized-vs-reference comparison generalized to every registered
  backend (see :func:`backend_divergences`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.util.tabulate import format_table
from repro.validate.fingerprint import (
    DriftFingerprint,
    cluster_fingerprints,
    fingerprint_report,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (reporting imports us)
    from repro.validate.reporting import SweepReport

CAUSE_HEALTHY = "healthy"
CAUSE_PREPROCESSING = "preprocessing"
CAUSE_KERNEL = "kernel/quantization"
CAUSE_STAGE = "stage-mismatch"
CAUSE_PERFORMANCE = "performance"
CAUSE_BACKEND = "kernel-backend"
CAUSE_UNLOCALIZED = "unlocalized"

PREPROCESS_CHECKS = frozenset({
    "channel_arrangement", "normalization_range", "orientation",
    "resize_function", "spectrogram_normalization",
})
"""Assertion names that implicate the preprocessing stage when they fail."""

PERFORMANCE_CHECKS = frozenset({"per_layer_latency"})
"""Assertion names about latency, not numerical drift."""


def root_cause_hypothesis(
    fp: DriftFingerprint, drift_threshold: float = 0.1,
) -> tuple[str, str]:
    """Apply the Figure-6 decision rule to one fingerprint.

    Returns ``(cause, detail)`` where ``cause`` is one of the ``CAUSE_*``
    constants and ``detail`` localizes it (e.g. the first drifting op
    class).
    """
    # Degenerate-reference layers carry absolute-unit rMSE, not
    # span-normalized values; keep them out of every magnitude judgement
    # (as fingerprint_distance already does).
    drift = np.asarray([e for i, e in enumerate(fp.drift)
                        if i not in fp.degenerate])
    if fp.healthy and (drift.size == 0 or float(drift.max()) <= drift_threshold):
        return CAUSE_HEALTHY, "no drift, all assertions pass"
    if fp.failed_checks & PREPROCESS_CHECKS:
        checks = sorted(fp.failed_checks & PREPROCESS_CHECKS)
        detail = ("input-layer drift" if fp.first_flagged == 0
                  else "preprocessing assertions failed")
        return CAUSE_PREPROCESSING, f"{detail} ({', '.join(checks)})"
    # Uniform drift is checked before the input-layer rule: a genuinely
    # flat profile trips the jump detector at layer 0 too (anything beats
    # the near-zero initial running level), but same-everywhere drift is
    # the stage-mismatch signature, not an input bug that washes through.
    if drift.size:
        mean = float(np.mean(drift))
        spread = float(drift.max() - drift.min())
        if mean > drift_threshold and spread <= 0.25 * mean:
            return CAUSE_STAGE, (
                f"uniform drift across all {drift.size} layers")
    if fp.first_flagged == 0:
        return CAUSE_PREPROCESSING, "input-layer drift"
    if fp.first_flagged > 0:
        return CAUSE_KERNEL, (
            f"first drift jump at internal op {fp.first_flagged_op!r} "
            f"(layer {fp.first_flagged})")
    if fp.failed_checks and fp.failed_checks <= PERFORMANCE_CHECKS:
        return CAUSE_PERFORMANCE, (
            "budget assertions failed without numerical drift: "
            + ", ".join(sorted(fp.failed_checks)))
    return CAUSE_UNLOCALIZED, fp.describe()


@dataclass
class TriageCluster:
    """Variants sharing one failure signature, with a root-cause label."""

    cause: str
    detail: str
    members: list[DriftFingerprint]

    @property
    def label(self) -> str:
        """The cluster's one-line root-cause label (names the drifting op)."""
        if self.cause in (CAUSE_KERNEL, CAUSE_BACKEND):
            # Name the op from a member that actually localized a jump —
            # clustering by distance can admit members without one.
            op = next((m.first_flagged_op for m in self.members
                       if m.first_flagged > 0), None)
            return f"{self.cause} @ {op}" if op else self.cause
        if self.cause == CAUSE_PREPROCESSING:
            return f"{self.cause} @ input"
        return self.cause

    @property
    def variant_names(self) -> list[str]:
        return [m.variant for m in self.members]

    # ------------------------------------------------------------ wire format
    def to_doc(self) -> dict:
        return {"cause": self.cause, "detail": self.detail,
                "members": [m.to_doc() for m in self.members]}

    @classmethod
    def from_doc(cls, doc: dict) -> "TriageCluster":
        return cls(cause=doc["cause"], detail=doc["detail"],
                   members=[DriftFingerprint.from_doc(m)
                            for m in doc["members"]])


@dataclass
class TriageReport:
    """Clustered root-cause view over a whole sweep."""

    clusters: list[TriageCluster]
    unfingerprinted: list[str]

    def render(self) -> str:
        rows = []
        for i, cluster in enumerate(self.clusters, start=1):
            rows.append((i, cluster.label, " ".join(cluster.variant_names),
                         cluster.detail))
        lines = [format_table(
            ("cluster", "root cause", "variants", "evidence"), rows,
            title=f"root-cause triage: {len(self.clusters)} cluster(s)")]
        if self.unfingerprinted:
            lines.append("not fingerprinted (no report): "
                         + ", ".join(self.unfingerprinted))
        return "\n".join(lines)

    # ------------------------------------------------------------ wire format
    def to_doc(self) -> dict:
        return {"clusters": [c.to_doc() for c in self.clusters],
                "unfingerprinted": list(self.unfingerprinted)}

    @classmethod
    def from_doc(cls, doc: dict) -> "TriageReport":
        return cls(clusters=[TriageCluster.from_doc(c)
                             for c in doc.get("clusters", [])],
                   unfingerprinted=list(doc.get("unfingerprinted", [])))


def triage_fingerprints(
    fingerprints: list[DriftFingerprint],
    threshold: float = 0.3,
    unfingerprinted: list[str] | None = None,
) -> TriageReport:
    """Cluster fingerprints and label each cluster with its root cause.

    A cluster's cause is the majority hypothesis over its members (ties
    break toward the earliest member — deterministic).
    """
    clusters = []
    for members in cluster_fingerprints(fingerprints, threshold=threshold):
        hypotheses = [root_cause_hypothesis(m) for m in members]
        causes = [cause for cause, _ in hypotheses]
        majority = max(set(causes), key=lambda c: (causes.count(c), -causes.index(c)))
        detail = next(d for c, d in hypotheses if c == majority)
        clusters.append(TriageCluster(cause=majority, detail=detail,
                                      members=members))
    return TriageReport(clusters=clusters,
                        unfingerprinted=list(unfingerprinted or []))


def _variant_base_key(variant) -> tuple:
    """A variant's configuration minus the kernel backend.

    Two variants sharing this key differ only in their resolver — the
    controlled comparison ``expand_backends`` constructs.
    """
    return (
        variant.stage,
        variant.kernel_bugs,
        variant.device,
        tuple(sorted((k, repr(v)) for k, v in variant.overrides.items())),
    )


def backend_divergences(results) -> dict[str, str]:
    """Detect variants that break only under some kernel backends.

    Groups completed :class:`~repro.validate.reporting.VariantResult`\\ s
    by everything *except* the resolver; inside a group spanning several
    backends, an unhealthy variant with a healthy sibling is evidence for
    the §4.4 kernel-implementation hypothesis — the preprocessing, bug
    preset, stage, and device are all identical, so the backend's kernels
    are the only thing left to blame. Returns ``{variant name: detail}``
    for each such variant.
    """
    groups: dict[tuple, list] = {}
    for result in results:
        if result.completed:
            groups.setdefault(_variant_base_key(result.variant), []).append(result)
    divergent: dict[str, str] = {}
    for group in groups.values():
        if len({r.variant.resolver for r in group}) < 2:
            continue
        healthy = sorted(r.variant.resolver for r in group if r.healthy)
        broken = [r for r in group if not r.healthy]
        if not healthy or not broken:
            continue
        for r in broken:
            divergent[r.variant.name] = (
                f"same preprocessing and bug preset pass on "
                f"{', '.join(healthy)} but fail on {r.variant.resolver} "
                f"=> kernel-implementation difference")
    return divergent


def triage_sweep(report: "SweepReport", threshold: float = 0.3) -> TriageReport:
    """Fingerprint and cluster every completed variant of a sweep.

    When the sweep carries a backend axis (``expand_backends``), clusters
    whose members all diverge across backends — identical configuration,
    healthy on at least one backend, broken on this one — are relabelled
    with the kernel-implementation hypothesis (:data:`CAUSE_BACKEND`).
    """
    fingerprints = [
        fingerprint_report(r.variant.name, r.report)
        for r in report.results if r.report is not None
    ]
    unfingerprinted = [
        r.variant.name for r in report.results if r.report is None]
    triage = triage_fingerprints(fingerprints, threshold=threshold,
                                 unfingerprinted=unfingerprinted)
    divergent = backend_divergences(report.results)
    for cluster in triage.clusters:
        names = cluster.variant_names
        if names and all(name in divergent for name in names):
            cluster.cause = CAUSE_BACKEND
            cluster.detail = divergent[names[0]]
    return triage
