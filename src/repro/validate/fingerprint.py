"""Layer-drift fingerprints: comparable per-variant drift signatures.

Cross-variant triage needs each variant's :class:`ValidationReport` reduced
to something comparable: a :class:`DriftFingerprint` holds the per-layer
nrMSE vector over the variant's layer schedule — the stable ``(layer, op)``
keys that :func:`~repro.validate.layerdiff.per_layer_diff` takes from
:meth:`EXrayLog.layer_schedule` and threads through the report's layer
diffs — plus the index and op class of the first flagged drift jump and
the failed-assertion set. Distances between
fingerprints combine drift-vector shape, first-drifting-op agreement, and
symptom-set overlap, so variants broken by the same root cause measure
close even when their absolute error magnitudes differ.

Layers whose reference output was constant (``LayerDiff.degenerate_ref``)
report rMSE in absolute units rather than span-normalized ones; their
schedule indices are excluded from the drift-distance computation so the
unit change cannot masquerade as a cluster boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.validate.session import ValidationReport


@dataclass(frozen=True)
class DriftFingerprint:
    """A variant's drift signature over its layer schedule.

    ``first_flagged`` is the schedule index of the first drift jump
    (:func:`~repro.validate.layerdiff.locate_discrepancies`), or -1 when no
    layer was flagged. An *empty* fingerprint (no per-layer data — the
    session's accuracy gate passed and skipped stage 2) with no failed
    checks is a healthy variant.
    """

    variant: str
    schedule: tuple[tuple[str, str], ...]
    drift: tuple[float, ...]
    first_flagged: int
    flagged: tuple[int, ...]
    failed_checks: frozenset[str]
    degenerate: frozenset[int]
    accuracy_degraded: bool = False

    @property
    def empty(self) -> bool:
        return not self.drift

    @property
    def healthy(self) -> bool:
        return (not self.failed_checks and not self.flagged
                and not self.accuracy_degraded)

    @property
    def first_flagged_op(self) -> str | None:
        """Op class of the first drift jump (the Figure-6 localization)."""
        if self.first_flagged < 0:
            return None
        return self.schedule[self.first_flagged][1]

    def describe(self) -> str:
        if self.healthy and self.empty:
            return "no drift"
        parts = []
        if self.first_flagged >= 0:
            parts.append(f"first drift at layer {self.first_flagged} "
                         f"({self.first_flagged_op})")
        elif self.drift:
            parts.append(f"max nrMSE {max(self.drift):.3f}, no jump")
        if self.accuracy_degraded:
            parts.append("accuracy degraded")
        if self.failed_checks:
            parts.append("failed: " + ",".join(sorted(self.failed_checks)))
        return "; ".join(parts) or "no drift"

    # ------------------------------------------------------------ wire format
    def to_doc(self) -> dict:
        """JSON-native document (sets serialize sorted, tuples as lists)."""
        return {
            "variant": self.variant,
            "schedule": [[layer, op] for layer, op in self.schedule],
            "drift": list(self.drift),
            "first_flagged": self.first_flagged,
            "flagged": list(self.flagged),
            "failed_checks": sorted(self.failed_checks),
            "degenerate": sorted(self.degenerate),
            "accuracy_degraded": self.accuracy_degraded,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "DriftFingerprint":
        """Rebuild an *equal* fingerprint: tuple/frozenset field types are
        restored, and JSON float round-tripping is exact."""
        return cls(
            variant=doc["variant"],
            schedule=tuple((layer, op) for layer, op in doc["schedule"]),
            drift=tuple(float(e) for e in doc["drift"]),
            first_flagged=doc["first_flagged"],
            flagged=tuple(doc["flagged"]),
            failed_checks=frozenset(doc["failed_checks"]),
            degenerate=frozenset(doc["degenerate"]),
            accuracy_degraded=doc.get("accuracy_degraded", False),
        )


def fingerprint_report(variant: str, report: ValidationReport) -> DriftFingerprint:
    """Derive a variant's fingerprint from its validation report."""
    return DriftFingerprint(
        variant=variant,
        schedule=report.layer_schedule(),
        drift=tuple(float(e) for e in report.drift_vector()),
        first_flagged=report.first_flagged_index,
        flagged=tuple(d.index for d in report.flagged_layers),
        failed_checks=report.failed_checks,
        degenerate=report.degenerate_indices,
        accuracy_degraded=(report.accuracy is not None
                           and report.accuracy.degraded),
    )


def _aligned_drift(a: DriftFingerprint, b: DriftFingerprint):
    """Drift vectors restricted to the shared, non-degenerate schedule keys."""
    index_b = {key: i for i, key in enumerate(b.schedule)}
    va, vb = [], []
    for i, key in enumerate(a.schedule):
        j = index_b.get(key)
        if j is None or i in a.degenerate or j in b.degenerate:
            continue
        va.append(a.drift[i])
        vb.append(b.drift[j])
    return np.asarray(va, dtype=np.float64), np.asarray(vb, dtype=np.float64)


def fingerprint_distance(a: DriftFingerprint, b: DriftFingerprint) -> float:
    """Dissimilarity in [0, 1]: 0 = same failure signature.

    Weighted blend of three comparisons:

    * **drift shape** (weight 0.5): relative L2 distance between the
      log-compressed drift vectors over shared non-degenerate layers
      (``log1p`` keeps a 10x-magnitude version of the same drift profile
      close);
    * **localization** (0.3): whether the first flagged drift jump hits the
      same op class;
    * **symptoms** (0.2): Jaccard distance between failed-assertion sets
      (with accuracy degradation counted as a symptom).

    When neither fingerprint has layer data, the symptom distance also
    stands in for the drift component — otherwise all no-drift variants
    would cluster together no matter how disjoint their failures.
    """
    sym_a = set(a.failed_checks) | ({"accuracy_degraded"}
                                    if a.accuracy_degraded else set())
    sym_b = set(b.failed_checks) | ({"accuracy_degraded"}
                                    if b.accuracy_degraded else set())
    union = sym_a | sym_b
    sym_d = len(sym_a ^ sym_b) / len(union) if union else 0.0

    if a.empty and b.empty:
        drift_d = sym_d
    elif a.empty or b.empty:
        drift_d = 1.0
    else:
        va, vb = _aligned_drift(a, b)
        if va.size == 0:
            drift_d = 1.0
        else:
            la, lb = np.log1p(va), np.log1p(vb)
            denom = float(np.linalg.norm(la) + np.linalg.norm(lb))
            drift_d = (0.0 if denom == 0.0
                       else float(np.linalg.norm(la - lb)) / denom)

    op_d = 0.0 if a.first_flagged_op == b.first_flagged_op else 1.0

    return 0.5 * drift_d + 0.3 * op_d + 0.2 * sym_d


CLUSTER_THRESHOLD = 0.3
"""Largest :func:`fingerprint_distance` at which a fingerprint joins a
cluster."""


def cluster_fingerprints(
    fingerprints: list[DriftFingerprint],
) -> list[list[DriftFingerprint]]:
    """Greedy exemplar clustering: deterministic, order-stable.

    Each fingerprint joins the first existing cluster whose exemplar (its
    first member) is within :data:`CLUSTER_THRESHOLD`; otherwise it founds
    a new cluster. Good enough for fleet triage — sweeps have tens of
    variants and a handful of root causes — while keeping results
    reproducible across runs (no randomized seeding).
    """
    clusters: list[list[DriftFingerprint]] = []
    for fp in fingerprints:
        for members in clusters:
            if fingerprint_distance(members[0], fp) <= CLUSTER_THRESHOLD:
                members.append(fp)
                break
        else:
            clusters.append([fp])
    return clusters
