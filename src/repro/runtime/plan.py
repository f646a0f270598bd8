"""Compiled execution plans: per-node bindings precomputed once per graph.

Re-deriving, for every node of every call, the executor lookup, the
quantized-domain flag, the output spec, the op-class label, and which
activations die after the node would be pure Python overhead on a hot path
the paper sells as "cheap, always-on" (Table 2). An :class:`ExecutionPlan`
hoists all of that to compile time: it is built once per (graph, resolver)
pair and replayed by every ``Interpreter.invoke``.

When a tensor dies is decided in one place,
:func:`~repro.analysis.liveness.liveness_from_graph`: the plan's free
schedule, its activation peak and the arena packer all read it, and lint
rule P002 re-checks the free schedule against the graph independently.

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
    frees:
        One tuple per binding: the tensors invoke deletes after that node
        runs — those whose live range ends there, graph outputs never. A
        tensor no node consumes dies right after its producer.
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
        self.bindings: tuple[NodeBinding, ...] = tuple(
            derive_bindings(graph, resolver))
        self.schedule = self.bindings
        # Function-level: repro.analysis imports this module.
        from repro.analysis.liveness import liveness_from_graph

        outputs = set(graph.outputs)
        frees: list[list[str]] = [[] for _ in self.bindings]
        for t, live in liveness_from_graph(graph).items():
            # end -1: a graph input nothing consumes; there is no node
            # after which to free it.
            if t not in outputs and live.end >= 0:
                frees[live.end].append(t)
        self.frees: tuple[tuple[str, ...], ...] = tuple(map(tuple, frees))
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

        The static liveness peak of the graph, each view output folded
        into the buffer it aliases — the arena a TFLite-style planner sizes
        before the first invoke.
        """
        cached = self._peak_cache.get(batch)
        if cached is None:
            from repro.analysis.liveness import (
                liveness_from_graph,
                merge_alias_ranges,
                packable_aliases,
                peak_live_bytes,
            )
            ranges = liveness_from_graph(self.graph, batch)
            cached = peak_live_bytes(merge_alias_ranges(
                ranges, packable_aliases(self.graph, ranges, self)))
            self._peak_cache[batch] = cached
        return cached
