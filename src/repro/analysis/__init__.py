"""Static analysis: verify graphs, plans, and deployments before they run.

ML-EXray's dynamic layer diffing catches deployment bugs at runtime; this
package is the static complement — ``repro lint``. A registry of
:class:`~repro.analysis.registry.LintRule` checks (stable ids G/Q/D/P/A/S
###) runs over a graph and its deployment context and emits structured
:class:`~repro.analysis.diagnostics.Diagnostic` findings:

* **graph** rules (G001–G005): wiring, topological order, dead nodes,
  shape/dtype consistency along every edge, duplicate names;
* **quant** rules (Q001–Q005): scale/zero-point sanity, per-channel length
  vs weight shape, guaranteed int8 saturation, float/quant boundaries;
* **dataflow** rules (D001–D004): proofs from the interval abstract
  interpreter — accumulator overflow, guaranteed requant saturation,
  constant-foldable subgraphs, range contradictions;
* **plan** rules (P001–P002): kernel-binding completeness, a free
  schedule that releases each tensor exactly at its last consumer;
* **arena** rules (A001): the static memory layout's independent
  soundness proof (no two live tensors share bytes);
* **pipeline** rules (S001–S005): preprocess-recipe contract vs the input
  spec, sweep-variant registry names, vacuous kernel-bug presets, unknown
  override keys, unbuildable stages.

Entry points: :func:`lint_graph` (the driver behind ``repro lint``),
:func:`analyze_graph` (ranges + liveness + arena behind ``repro analyze``),
:func:`verify_pass` (convert-pass post-conditions behind ``verify=True``),
and :func:`preflight_lineup` (sweep pre-flight gating).
"""

from repro.analysis.analyze import (
    ANALYSIS_SCHEMA_VERSION,
    AnalysisReport,
    analyze_graph,
)
from repro.analysis.arena import (
    ARENA_SCHEMA_VERSION,
    ArenaLayout,
    ArenaSlot,
    pack_arena,
    verify_layout,
)
from repro.analysis.dataflow import (
    Interval,
    RangeFacts,
    analyze_ranges,
    default_input_ranges,
)
from repro.analysis.diagnostics import (
    LINT_SCHEMA_VERSION,
    SEVERITIES,
    Diagnostic,
    LintReport,
    jsonable_evidence,
    severity_rank,
)
from repro.analysis.liveness import (
    VIEW_OPS,
    LiveRange,
    liveness_from_graph,
    merge_alias_ranges,
    packable_aliases,
    peak_live_bytes,
    view_alias_map,
)
from repro.analysis.preflight import preflight_lineup, preflight_variant
from repro.analysis.registry import (
    CATEGORIES,
    RULES,
    LintRule,
    RuleContext,
    explain_rule,
    lint_graph,
    make_diagnostic,
    register_rule,
    rule_catalog,
    verify_pass,
)

__all__ = [
    "ANALYSIS_SCHEMA_VERSION",
    "ARENA_SCHEMA_VERSION",
    "AnalysisReport",
    "ArenaLayout",
    "ArenaSlot",
    "CATEGORIES",
    "Diagnostic",
    "Interval",
    "LINT_SCHEMA_VERSION",
    "LintReport",
    "LintRule",
    "LiveRange",
    "RULES",
    "RangeFacts",
    "RuleContext",
    "SEVERITIES",
    "analyze_graph",
    "analyze_ranges",
    "VIEW_OPS",
    "default_input_ranges",
    "explain_rule",
    "jsonable_evidence",
    "lint_graph",
    "liveness_from_graph",
    "merge_alias_ranges",
    "make_diagnostic",
    "pack_arena",
    "peak_live_bytes",
    "packable_aliases",
    "view_alias_map",
    "preflight_lineup",
    "preflight_variant",
    "register_rule",
    "rule_catalog",
    "severity_rank",
    "verify_layout",
    "verify_pass",
]
