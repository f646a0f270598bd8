"""Execution-plan rules (P001–P002): bindings and refcounts.

These compile (or accept) an :class:`~repro.runtime.plan.ExecutionPlan` and
verify the properties the runtime silently assumes: every node has a kernel
under the chosen backend (P001), and the activation-arena refcounts match
the graph's actual consumer counts — the safety precondition the ROADMAP's
arena planner needs (P002).
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
               title="refcount/binding inconsistency")
def refcount_consistency(ctx: RuleContext) -> Iterator[Diagnostic]:
    """The plan's arena refcounts disagree with actual consumer counts.

    ``initial_refcounts`` drives the reference-counted activation arena: an
    overcount leaks the tensor for the whole invoke (the memory regression
    an arena planner would lock in), an undercount frees it while a
    consumer still needs it. Recomputed independently from the graph here.
    """
    try:
        plan = ctx.get_plan()
    except GraphError:
        return  # P001 already reported the unbindable node
    g = ctx.graph
    expected: dict[str, int] = {t: 0 for t in g.tensors}
    for node in g.nodes:
        for t in node.inputs:
            expected[t] = expected.get(t, 0) + 1
    for t in sorted(set(expected) | set(plan.initial_refcounts)):
        want = expected.get(t)
        got = plan.initial_refcounts.get(t)
        if want != got:
            yield ctx.diag(
                f"plan refcount for tensor {t!r} is {got!r}, but the graph "
                f"has {want!r} consumer(s); the activation arena would "
                + ("free it early" if (got or 0) < (want or 0)
                   else "leak it"),
                tensor=t, evidence={"plan": got, "graph": want})
    keep = set(plan.keep)
    outputs = set(g.outputs)
    if keep != outputs:
        yield ctx.diag(
            f"plan keep-set {sorted(keep)} != graph outputs "
            f"{sorted(outputs)}; outputs outside the keep-set are freed "
            "before invoke returns",
            evidence={"keep": sorted(keep), "outputs": sorted(outputs)})
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
