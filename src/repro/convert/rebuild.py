"""Helpers for graph-rewriting passes: rebuild specs after node surgery."""

from __future__ import annotations

from repro.graph.graph import Graph
from repro.graph.node import Node
from repro.graph.shapes import infer_output_spec
from repro.graph.spec import TensorSpec
from repro.util.errors import GraphError


def rebuild(
    graph: Graph,
    nodes: list[Node],
    outputs: list[str] | None = None,
    name: str | None = None,
    metadata: dict | None = None,
) -> Graph:
    """Reconstruct a graph from a rewritten node list.

    Tensor specs are re-inferred from the input specs forward, so passes only
    manipulate nodes and never hand-maintain shape bookkeeping. Passes run on
    float graphs (before quantization), so quant annotations are not carried.
    """
    tensors: dict[str, TensorSpec] = {
        t: graph.spec(t) for t in graph.inputs
    }
    for node in nodes:
        for t in node.inputs:
            if t not in tensors:
                raise GraphError(
                    f"rebuild: node {node.name!r} consumes undefined tensor {t!r}"
                )
        spec = infer_output_spec(
            node.op, node.output, [tensors[t] for t in node.inputs],
            node.attrs, node.weights,
        )
        tensors[node.output] = spec
    new = Graph(
        name=name if name is not None else graph.name,
        inputs=list(graph.inputs),
        outputs=list(outputs if outputs is not None else graph.outputs),
        nodes=nodes,
        tensors=tensors,
        metadata={**graph.metadata, **(metadata or {})},
    )
    new.validate()
    return new
