"""Execution-plan rules (P001–P002): bindings and the free schedule.

These compile (or accept) an :class:`~repro.runtime.plan.ExecutionPlan` and
verify the properties the runtime silently assumes: every node has a kernel
under the chosen backend (P001), and the plan frees every activation
exactly where its live range ends, re-derived here from the graph
independently of :mod:`repro.analysis.liveness` (P002).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import RuleContext, register_rule
from repro.runtime.plan import node_is_quantized
from repro.util.errors import GraphError


@register_rule("P001", severity="error", category="plan",
               title="missing kernel binding")
def binding_completeness(ctx: RuleContext) -> Iterator[Diagnostic]:
    """The chosen backend has no kernel for a node's (op, domain) pair."""
    resolver = ctx.get_resolver()
    backend = ctx.backend or type(resolver).__name__
    for node in ctx.graph.nodes:
        quantized = node_is_quantized(ctx.graph, node)
        try:
            resolver.lookup(node.op, quantized)
        except GraphError:
            domain = "quantized" if quantized else "float"
            yield ctx.diag(
                f"backend {backend!r} has no {domain} kernel for op "
                f"{node.op!r} (node {node.name!r}); the plan cannot bind it",
                node=node.name,
                evidence={"op": node.op, "quantized": quantized,
                          "backend": backend})


@register_rule("P002", severity="error", category="plan",
               title="free schedule/binding inconsistency")
def free_schedule_consistency(ctx: RuleContext) -> Iterator[Diagnostic]:
    """The plan frees a tensor early, late or never, or frees an output.

    Invoke deletes the tensors ``plan.frees`` lists after each node: a free
    before the last consumer makes that consumer read a deleted tensor, a
    later or missing one holds the buffer past its life (the memory
    regression an arena planner would lock in), and a freed graph output
    never reaches the caller. Recomputed here by walking the graph's nodes.
    """
    try:
        plan = ctx.get_plan()
    except GraphError:
        return  # P001 already reported the unbindable node
    g = ctx.graph
    dies = {t: -1 for t in g.inputs}  # last consumer, else producer
    for index, node in enumerate(g.nodes):
        for t in node.outputs:
            dies.setdefault(t, index)
        for t in node.inputs:
            dies[t] = index
    outputs = set(g.outputs)
    freed = {t for dead in plan.frees for t in dead}
    for index, dead in enumerate(plan.frees):
        for t in dead:
            if t in outputs:
                yield ctx.diag(
                    f"plan frees graph output {t!r} after node {index}; "
                    "invoke could not return it",
                    tensor=t, evidence={"freed_at": index})
            elif dies.get(t) != index:
                yield ctx.diag(
                    f"plan frees tensor {t!r} after node {index}, but it "
                    f"dies after node {dies.get(t)}; invoke would "
                    + ("free it while a consumer still needs it"
                       if index < dies.get(t, index)
                       else "hold it past its last use"),
                    tensor=t,
                    evidence={"freed_at": index, "dies_at": dies.get(t)})
    consumed = {t for node in g.nodes for t in node.inputs}
    for t in sorted(consumed - outputs - freed):
        yield ctx.diag(
            f"plan never frees tensor {t!r}, last consumed by node "
            f"{dies[t]}; invoke would hold it until it returns",
            tensor=t, evidence={"freed_at": None, "dies_at": dies[t]})
    if len(plan.bindings) != len(g.nodes):
        yield ctx.diag(
            f"plan has {len(plan.bindings)} binding(s) for "
            f"{len(g.nodes)} node(s)",
            evidence={"bindings": len(plan.bindings),
                      "nodes": len(g.nodes)})
    else:
        for binding, node in zip(plan.bindings, g.nodes):
            if binding.node.name != node.name:
                yield ctx.diag(
                    f"plan binding {binding.index} is for node "
                    f"{binding.node.name!r}, but the graph has "
                    f"{node.name!r} at that position",
                    node=node.name,
                    evidence={"index": binding.index,
                              "bound": binding.node.name})
