"""Compiled execution plans: per-node bindings precomputed once per graph.

Re-deriving, for every node of every call, the executor lookup, the
quantized-domain flag, the output spec, the op-class label, and the
activation refcounts would be pure Python overhead on a hot path the paper
sells as "cheap, always-on" (Table 2). An :class:`ExecutionPlan` hoists all
of that to compile time: it is built once per (graph, resolver) pair and
replayed by every ``Interpreter.invoke``.

Plans are invalidated automatically when the resolver registers new kernels
(see :attr:`~repro.runtime.resolver.BaseOpResolver.version`), so the custom
op workflow — build an interpreter, then ``resolver.register(...)`` — keeps
working.

Latency-model work estimates (:func:`~repro.perfmodel.work.node_work`) and
the activation-memory peak are shape-static given a batch size, so the plan
memoizes them per (node, batch) and per batch: a deployment loop invoking
with a steady batch size computes each exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.graph import Graph
from repro.graph.node import Node
from repro.graph.spec import TensorSpec
from repro.perfmodel.work import OP_CLASS, NodeWork, node_work
from repro.runtime.resolver import BaseOpResolver, Executor


def node_is_quantized(graph: Graph, node: Node) -> bool:
    """Whether a node executes in the quantized domain."""
    if node.op == "quantize":
        return False  # consumes float input; handled by the bridge executor
    if node.op == "dequantize":
        return True
    return graph.spec(node.output).quant is not None


@dataclass(frozen=True)
class NodeBinding:
    """Everything invoke needs for one node, resolved at compile time.

    ``alias`` mirrors the bound executor's ``aliases_input`` annotation
    (:mod:`repro.runtime.annotations`): whether it returns a view of its
    input, which the activation peak and the arena packer read.
    """

    index: int
    node: Node
    executor: Executor
    quantized: bool
    spec: TensorSpec                 # output tensor spec
    op_class: str                    # profile label (OP_CLASS, "other" default)
    latency_op_class: str            # latency-model class (OP_CLASS, "act" default)
    alias: bool = False              # executor returns a view of an input


def derive_bindings(graph: Graph, resolver: BaseOpResolver) -> list[NodeBinding]:
    """Derive the per-node bindings for a graph against a resolver.

    The single source of truth for binding semantics: the plan calls this
    once at compile time.
    """
    bindings = []
    for index, node in enumerate(graph.nodes):
        quantized = node_is_quantized(graph, node)
        executor = resolver.lookup(node.op, quantized)
        bindings.append(NodeBinding(
            index=index,
            node=node,
            executor=executor,
            quantized=quantized,
            spec=graph.spec(node.output),
            op_class=OP_CLASS.get(node.op, "other"),
            latency_op_class=OP_CLASS.get(node.op, "act"),
            alias=bool(getattr(executor, "aliases_input", False)),
        ))
    return bindings


class ExecutionPlan:
    """A compiled (graph, resolver) pair, ready for repeated execution.

    Attributes
    ----------
    bindings:
        One :class:`NodeBinding` per graph node, in execution order.
    initial_refcounts:
        Consumer counts per tensor; invoke copies this dict and decrements
        it to drive the reference-counted activation arena.
    keep:
        Graph outputs — never freed by the arena.
    resolver_version:
        The resolver's :attr:`~repro.runtime.resolver.BaseOpResolver.version`
        at compile time; a mismatch means kernels were (re)registered and
        the plan must be recompiled.
    latency_resolver_kind:
        The resolver kind handed to the device cost model: "reference" for
        reference kernels, "optimized" for every other resolver (a custom
        backend is presumed production-grade).
    schedule:
        The execution order, one binding per node: the same tuple as
        ``bindings``.
    """

    def __init__(self, graph: Graph, resolver: BaseOpResolver):
        self.graph = graph
        self.resolver = resolver
        self.resolver_version = resolver.version
        self.latency_resolver_kind = (
            "reference" if resolver.kind == "reference" else "optimized")
        self.keep = frozenset(graph.outputs)

        counts: dict[str, int] = {t: 0 for t in graph.tensors}
        for node in graph.nodes:
            for t in node.inputs:
                counts[t] += 1
        self.initial_refcounts = counts

        self.bindings: tuple[NodeBinding, ...] = tuple(
            derive_bindings(graph, resolver))
        self.schedule = self.bindings
        self._work_cache: dict[tuple[int, int], NodeWork] = {}
        self._peak_cache: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.bindings)

    def stale(self) -> bool:
        """Whether the resolver registered kernels after compilation."""
        return self.resolver.version != self.resolver_version

    def work(self, index: int, batch: int) -> NodeWork:
        """Memoized MAC/element counts for one node at a batch size."""
        key = (index, batch)
        cached = self._work_cache.get(key)
        if cached is None:
            cached = node_work(self.graph, self.bindings[index].node, batch=batch)
            self._work_cache[key] = cached
        return cached

    def peak_activation_bytes(self, batch: int) -> int:
        """Memoized peak resident activation bytes at a batch size.

        The static liveness peak of the plan's own schedule and refcounts,
        each view output folded into the buffer it aliases — the arena a
        TFLite-style planner sizes before the first invoke.
        """
        cached = self._peak_cache.get(batch)
        if cached is None:
            # Function-level: repro.analysis imports this module.
            from repro.analysis.liveness import (
                liveness_from_plan,
                merge_alias_ranges,
                packable_aliases,
                peak_live_bytes,
            )
            ranges = liveness_from_plan(self, batch)
            cached = peak_live_bytes(merge_alias_ranges(
                ranges, packable_aliases(self.graph, ranges, self)))
            self._peak_cache[batch] = cached
        return cached


def compile_plan(graph: Graph, resolver: BaseOpResolver) -> ExecutionPlan:
    """Compile an execution plan for a validated graph and a resolver."""
    return ExecutionPlan(graph, resolver)
