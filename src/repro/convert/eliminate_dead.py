"""Dead-node elimination: drop nodes whose outputs nothing consumes."""

from __future__ import annotations

from repro.convert.rebuild import rebuild
from repro.graph.graph import Graph


def eliminate_dead_nodes(graph: Graph) -> Graph:
    """Remove nodes not reachable (backwards) from the graph outputs.

    The result's structural post-conditions are linted
    (:func:`~repro.analysis.registry.verify_pass`); since this pass's whole
    contract is "no dead nodes remain", any G003 (dead-node) finding is
    escalated to a failure even though it is normally only a warning.
    """
    needed: set[str] = set(graph.outputs)
    keep: list = []
    for node in reversed(graph.nodes):
        if any(t in needed for t in node.outputs):
            keep.append(node)
            needed.update(node.inputs)
    keep.reverse()
    if len(keep) == len(graph.nodes):
        out = graph
    else:
        out = rebuild(graph, keep, metadata={"eliminated_dead_nodes": True})
    from repro.analysis.registry import verify_pass
    verify_pass(out, "eliminate_dead_nodes", forbid=("G003",))
    return out
