"""Per-tensor live intervals, the interference graph they induce, and the
activation-memory peak.

The interpreter's reference-counted activation arena gives every tensor a
life span over the plan's topological schedule: a tensor is born when its
producer runs (graph inputs are born before node 0), and dies after its
last consumer runs (graph outputs never die — the keep set). Because the
interpreter allocates a node's output *before* freeing its inputs, a
node's inputs and its output are simultaneously live: live ranges are
closed intervals, and two tensors interfere iff their intervals overlap.

This module is the only activation-memory model. The interpreter's
``last_peak_activation_bytes``
(:meth:`~repro.runtime.plan.ExecutionPlan.peak_activation_bytes`),
``repro analyze`` and the arena packer all take :func:`peak_live_bytes`
over live ranges with view outputs folded into their roots by one alias
rule, :func:`packable_aliases`. The number is static — the TFLite-style
planned arena — so it never depends on who owns the feed buffers.

Two independent derivations are provided on purpose:

* :func:`liveness_from_plan` replays the plan's own schedule and
  ``initial_refcounts`` — what the runtime will actually do (P002 verifies
  those refcounts against the graph);
* :func:`liveness_from_graph` re-derives everything from the graph alone —
  what the arena verifier (:func:`~repro.analysis.arena.verify_layout`)
  uses, so a corrupted plan cannot vouch for its own layout.

:func:`check_liveness_consistency` cross-checks the two, the same
relationship rule P002 establishes for the raw refcounts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.graph import Graph

VIEW_OPS = frozenset({"reshape", "flatten", "channel_reverse"})
"""Ops whose builtin executors return a numpy *view* of their input.

Exactly the ops of the builtin executors marked ``aliases_input``. A view
shares its input's buffer byte-for-byte, so (a) the activation peak must
charge the shared buffer once, not once per tensor, and (b) a static arena
may place the view in its input's slot — provided the liveness model
merges the two ranges first (:func:`merge_alias_ranges`).
"""


@dataclass(frozen=True)
class LiveRange:
    """One tensor's life span over the node schedule.

    ``start`` is the producing node index (-1 for graph inputs); ``end`` is
    the index of the last consuming node, or ``len(nodes)`` for graph
    outputs (kept alive past the last node). A produced-but-never-consumed
    tensor dies where it is born.
    """

    tensor: str
    start: int
    end: int
    nbytes: int

    def overlaps(self, other: "LiveRange") -> bool:
        """Whether the two closed live intervals intersect."""
        return self.start <= other.end and other.start <= self.end


def liveness_from_graph(graph: Graph, batch: int = 1) -> dict[str, LiveRange]:
    """Derive live ranges from the graph alone (no plan involved)."""
    start: dict[str, int] = {t: -1 for t in graph.inputs}
    end: dict[str, int] = {}
    for index, node in enumerate(graph.nodes):
        for t in node.inputs:
            end[t] = index
        for t in node.outputs:
            start[t] = index
    horizon = len(graph.nodes)
    ranges: dict[str, LiveRange] = {}
    outputs = set(graph.outputs)
    for t, born in start.items():
        died = horizon if t in outputs else end.get(t, born)
        ranges[t] = LiveRange(tensor=t, start=born, end=died,
                              nbytes=graph.spec(t).nbytes(batch))
    return ranges


def liveness_from_plan(plan, batch: int = 1) -> dict[str, LiveRange]:
    """Replay a plan's schedule and refcounts into live ranges.

    This trusts the plan the way the interpreter does: a refcount overcount
    keeps the tensor live to the end of the schedule (the leak P002 warns
    about), an undercount ends its range at the node that drained it.
    """
    graph = plan.graph
    refcounts = dict(plan.initial_refcounts)
    start: dict[str, int] = {t: -1 for t in graph.inputs}
    end: dict[str, int] = {}
    keep = set(plan.keep)
    for binding in plan.bindings:
        node = binding.node
        for t in node.outputs:
            start[t] = binding.index
        for t in node.inputs:
            refcounts[t] = refcounts.get(t, 0) - 1
            if refcounts[t] == 0 and t not in keep:
                end[t] = binding.index
    horizon = len(plan.bindings)
    ranges: dict[str, LiveRange] = {}
    for t, born in start.items():
        if t in keep or refcounts.get(t, 0) > 0:
            died = horizon
        else:
            died = end.get(t, born)
        ranges[t] = LiveRange(tensor=t, start=born, end=died,
                              nbytes=graph.spec(t).nbytes(batch))
    return ranges


def view_alias_map(
    graph: Graph, eligible: set[str] | None = None
) -> dict[str, str]:
    """Map each :data:`VIEW_OPS` output to the *materialized* tensor it
    aliases.

    Alias chains (a reshape of a flatten) resolve transitively to the root:
    every value in the returned map is a tensor that is itself produced by
    a non-view op (or is a graph input), never another view. ``eligible``
    optionally restricts the analysis to a set of node *names* —
    :func:`packable_aliases` passes the nodes whose bound executors actually
    promise to return views, so a custom (copying) ``reshape`` kernel is
    never aliased.
    """
    alias: dict[str, str] = {}
    for node in graph.nodes:
        if node.op not in VIEW_OPS:
            continue
        if len(node.inputs) != 1 or len(node.outputs) != 1:
            continue
        if eligible is not None and node.name not in eligible:
            continue
        src = node.inputs[0]
        alias[node.outputs[0]] = alias.get(src, src)
    return alias


def packable_aliases(graph: Graph, ranges: dict[str, LiveRange],
                     plan=None) -> dict[str, str]:
    """The view aliases a memory model may fold, root-resolved.

    The one alias rule shared by the plan's activation peak, the arena
    packer and ``repro analyze``. With a plan, only nodes whose *bound
    executor* carries the ``aliases_input`` annotation are eligible — a
    custom, copying ``reshape`` kernel gets its own buffer. Size mismatches
    (which a well-formed graph never produces for a view op) drop the
    alias rather than risking an undersized shared buffer.
    """
    eligible = None
    if plan is not None:
        eligible = {b.node.name for b in plan.bindings if b.alias}
    amap = view_alias_map(graph, eligible=eligible)
    return {t: root for t, root in amap.items()
            if t in ranges and root in ranges
            and ranges[t].nbytes == ranges[root].nbytes}


def merge_alias_ranges(
    ranges: dict[str, LiveRange], alias_map: dict[str, str]
) -> dict[str, LiveRange]:
    """Collapse alias groups onto their root tensor's live range.

    The root's range is widened to cover every view of it (the shared
    buffer is resident as long as *any* member is live); the views
    themselves are dropped. The result is the true resident-bytes model:
    :func:`peak_live_bytes` over the merged ranges is what a correct
    runtime actually holds in memory, while the unmerged ranges
    double-count every view.
    """
    merged = {t: r for t, r in ranges.items() if t not in alias_map}
    for t, root in alias_map.items():
        r, v = merged.get(root), ranges.get(t)
        if r is None or v is None:
            continue
        merged[root] = LiveRange(tensor=root, start=min(r.start, v.start),
                                 end=max(r.end, v.end), nbytes=r.nbytes)
    return merged


def peak_live_bytes(ranges: dict[str, LiveRange]) -> int:
    """Max bytes simultaneously live — the lower bound any arena must meet."""
    if not ranges:
        return 0
    peak = 0
    steps = range(min(r.start for r in ranges.values()),
                  max(r.end for r in ranges.values()) + 1)
    for step in steps:
        live = sum(r.nbytes for r in ranges.values()
                   if r.start <= step <= r.end)
        peak = max(peak, live)
    return peak


def check_liveness_consistency(graph: Graph, plan,
                               batch: int = 1) -> list[str]:
    """Cross-check plan-derived live ranges against graph-derived ones.

    Returns human-readable mismatch descriptions (empty means consistent —
    the P002 relationship extended from refcounts to whole live ranges).
    """
    from_graph = liveness_from_graph(graph, batch)
    from_plan = liveness_from_plan(plan, batch)
    problems: list[str] = []
    for t in sorted(set(from_graph) | set(from_plan)):
        a, b = from_graph.get(t), from_plan.get(t)
        if a is None or b is None:
            problems.append(
                f"tensor {t!r} is known to "
                f"{'the plan only' if a is None else 'the graph only'}")
        elif (a.start, a.end, a.nbytes) != (b.start, b.end, b.nbytes):
            problems.append(
                f"tensor {t!r}: graph derives [{a.start}, {a.end}] "
                f"({a.nbytes} B), plan derives [{b.start}, {b.end}] "
                f"({b.nbytes} B)")
    return problems
