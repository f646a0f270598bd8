"""Per-tensor live intervals, the view aliases that share a buffer, and the
activation-memory peak.

Every tensor has a life span over the graph's topological node order (the
plan's schedule): it is born when its producer runs (graph inputs are born
before node 0), and dies after its last consumer runs (graph outputs never
die). Because the interpreter allocates a node's output *before* freeing
its inputs, a node's inputs and its output are simultaneously live: live
ranges are closed intervals, and two tensors interfere iff their intervals
overlap.

:func:`liveness_from_graph` is the one place that decides when a tensor
dies. The execution plan frees each tensor where it says
(:attr:`~repro.runtime.plan.ExecutionPlan.frees`), and lint rule P002
re-checks that free schedule against its own walk of the graph.

This module is also the only activation-memory model. The interpreter's
``last_peak_activation_bytes``
(:meth:`~repro.runtime.plan.ExecutionPlan.peak_activation_bytes`),
``repro analyze`` and the arena packer all take :func:`peak_live_bytes`
over live ranges with view outputs folded into their roots by one alias
rule, :func:`packable_aliases`. The number is static — the TFLite-style
planned arena — so it never depends on who owns the feed buffers.
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
    """Derive every tensor's live range from the graph's node order."""
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

