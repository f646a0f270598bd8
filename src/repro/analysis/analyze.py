"""The ``repro analyze`` driver: ranges + liveness + arena in one report.

:func:`analyze_graph` runs the interval abstract interpreter
(:mod:`~repro.analysis.dataflow`) and the liveness analysis
(:mod:`~repro.analysis.liveness`) over a graph and bundles the results into
a versioned :class:`AnalysisReport` — per-tensor value ranges, per-tensor
live intervals (rendered as a Gantt chart), and peak activation memory
under naive per-tensor allocation versus a packed static arena. With
``arena=True`` the report also carries the packed
:class:`~repro.analysis.arena.ArenaLayout` and the independent verifier's
verdict over it, which is what the CI zoo gate consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.arena import ArenaLayout, pack_arena, verify_layout
from repro.analysis.dataflow import Interval, analyze_ranges
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.liveness import (
    liveness_from_graph,
    merge_alias_ranges,
    packable_aliases,
    peak_live_bytes,
)
from repro.graph.graph import Graph
from repro.util.errors import ValidationError
from repro.util.tabulate import format_table

ANALYSIS_SCHEMA_VERSION = 1
"""Version of the AnalysisReport JSON wire format."""


@dataclass
class AnalysisReport:
    """Everything one ``repro analyze`` run derived about a graph.

    ``tensors`` rows are JSON-native dicts (name, dtype, storage/real range
    docs, live interval, bytes) so the report round-trips through its wire
    format without reconstructing analysis objects.
    """

    target: str
    graph: str
    batch: int
    tensors: list[dict] = field(default_factory=list)
    accumulators: dict[str, list] = field(default_factory=dict)
    contradictions: list[dict] = field(default_factory=list)
    naive_bytes: int = 0
    peak_live_bytes: int = 0
    arena: ArenaLayout | None = None
    arena_diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def arena_verified(self) -> bool:
        """Whether a layout was packed and passed the independent proof."""
        return self.arena is not None and not self.arena_diagnostics

    @property
    def ok(self) -> bool:
        """No range contradictions, and any packed arena verified."""
        if self.contradictions:
            return False
        return self.arena is None or self.arena_verified

    # ------------------------------------------------------------ wire format
    def to_doc(self) -> dict:
        return {
            "schema_version": ANALYSIS_SCHEMA_VERSION,
            "target": self.target,
            "graph": self.graph,
            "batch": self.batch,
            "tensors": [dict(row) for row in self.tensors],
            "accumulators": dict(self.accumulators),
            "contradictions": [dict(c) for c in self.contradictions],
            "naive_bytes": self.naive_bytes,
            "peak_live_bytes": self.peak_live_bytes,
            "arena": None if self.arena is None else self.arena.to_doc(),
            "arena_verified": self.arena_verified,
            "arena_diagnostics": [d.to_doc() for d in self.arena_diagnostics],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "AnalysisReport":
        version = doc.get("schema_version")
        if version != ANALYSIS_SCHEMA_VERSION:
            raise ValidationError(
                f"analysis-report document has schema version {version!r}; "
                f"this reader understands version {ANALYSIS_SCHEMA_VERSION}")
        for fieldname in ("target", "graph", "batch"):
            if fieldname not in doc:
                raise ValidationError(
                    f"malformed analysis-report document: missing field "
                    f"{fieldname!r}")
        arena_doc = doc.get("arena")
        return cls(
            target=doc["target"],
            graph=doc["graph"],
            batch=int(doc["batch"]),
            tensors=[dict(row) for row in doc.get("tensors", [])],
            accumulators=dict(doc.get("accumulators", {})),
            contradictions=[dict(c) for c in doc.get("contradictions", [])],
            naive_bytes=int(doc.get("naive_bytes", 0)),
            peak_live_bytes=int(doc.get("peak_live_bytes", 0)),
            arena=None if arena_doc is None else ArenaLayout.from_doc(arena_doc),
            arena_diagnostics=[Diagnostic.from_doc(d)
                               for d in doc.get("arena_diagnostics", [])],
        )

    # ---------------------------------------------------------------- render
    def render(self) -> str:
        """Human-readable ranges table, live-range Gantt, and memory lines."""
        rows = [(row["name"],
                 row["dtype"],
                 _fmt_range(row["range"]),
                 _fmt_range(row["real_range"]),
                 f"[{row['start']}, {row['end']}]",
                 _fmt_bytes(row["nbytes"]))
                for row in self.tensors]
        parts = [format_table(
            ("tensor", "dtype", "range", "real range", "live", "bytes"),
            rows, title=f"value ranges & liveness: {self.target} "
                        f"(batch={self.batch})")]
        parts.append("")
        parts.append(self._gantt())
        parts.append("")
        parts.append(f"activation memory (batch={self.batch}):")
        parts.append(f"  naive (one buffer per tensor): "
                     f"{_fmt_bytes(self.naive_bytes)}")
        parts.append(f"  peak simultaneously live:      "
                     f"{_fmt_bytes(self.peak_live_bytes)}")
        if self.arena is not None:
            saved = self.naive_bytes - self.arena.arena_bytes
            pct = 100.0 * saved / self.naive_bytes if self.naive_bytes else 0.0
            verdict = "VERIFIED" if self.arena_verified else "REJECTED"
            parts.append(f"  packed arena:                  "
                         f"{_fmt_bytes(self.arena.arena_bytes)} "
                         f"({pct:.1f}% below naive) [{verdict}]")
            for d in self.arena_diagnostics:
                parts.append(f"    {d.describe()}")
        for problem in self.contradictions:
            parts.append(f"  contradiction: tensor {problem['tensor']!r} "
                         f"({problem['kind']})")
        return "\n".join(parts)

    def _gantt(self) -> str:
        horizon = max((row["end"] for row in self.tensors), default=0)
        width = max(len(row["name"]) for row in self.tensors) \
            if self.tensors else 0
        lines = [f"live ranges (step -1..{horizon}):"]
        for row in sorted(self.tensors,
                          key=lambda r: (r["start"], r["end"], r["name"])):
            cells = "".join(
                "#" if row["start"] <= step <= row["end"] else "."
                for step in range(-1, horizon + 1))
            lines.append(f"  {row['name']:<{width}} {cells}")
        return "\n".join(lines)


def _fmt_range(doc: list | None) -> str:
    if doc is None:
        return "-"
    lo = "-inf" if doc[0] is None else f"{doc[0]:.4g}"
    hi = "+inf" if doc[1] is None else f"{doc[1]:.4g}"
    if doc[0] is not None and doc[1] is not None and doc[0] > doc[1]:
        return "(empty)"
    return f"[{lo}, {hi}]"


def _fmt_bytes(n: int) -> str:
    if n >= 1 << 20:
        return f"{n / (1 << 20):.2f} MiB"
    if n >= 1 << 10:
        return f"{n / (1 << 10):.2f} KiB"
    return f"{n} B"


def analyze_graph(
    graph: Graph,
    *,
    batch: int = 1,
    arena: bool = False,
    target: str | None = None,
    input_ranges: dict[str, Interval] | None = None,
) -> AnalysisReport:
    """Run the full static analysis over one graph.

    Always derives value ranges and live ranges; with ``arena=True`` also
    packs a static arena layout and runs the independent verifier over it,
    recording its diagnostics (an unverified layout is still reported — the
    caller decides whether that fails the run, as the CLI and CI gate do).
    """
    facts = analyze_ranges(graph, input_ranges)
    live = liveness_from_graph(graph, batch)
    tensors = []
    for name, r in sorted(live.items(), key=lambda kv: (kv[1].start,
                                                        kv[1].end, kv[0])):
        iv = facts.ranges.get(name)
        real = facts.real_range(name) if name in facts.ranges else None
        tensors.append({
            "name": name,
            "dtype": graph.spec(name).dtype,
            "range": None if iv is None else iv.to_doc(),
            "real_range": None if real is None else real.to_doc(),
            "start": r.start,
            "end": r.end,
            "nbytes": r.nbytes,
        })
    report = AnalysisReport(
        target=target or graph.name,
        graph=graph.name,
        batch=batch,
        tensors=tensors,
        accumulators={name: iv.to_doc()
                      for name, iv in sorted(facts.accumulators.items())},
        contradictions=list(facts.contradictions),
        naive_bytes=sum(r.nbytes for r in live.values()),
        peak_live_bytes=peak_live_bytes(
            merge_alias_ranges(live, packable_aliases(graph, live))),
    )
    if arena:
        layout = pack_arena(graph, batch=batch)
        report.arena = layout
        report.arena_diagnostics = verify_layout(graph, layout)
    return report


__all__ = [
    "ANALYSIS_SCHEMA_VERSION",
    "AnalysisReport",
    "analyze_graph",
]
