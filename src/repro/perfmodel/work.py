"""Work accounting: MACs and element counts per graph node.

The latency model charges each node ``macs * ns_per_mac + elements *
ns_per_element + fixed overhead``, with coefficients depending on device,
op class, dtype, and resolver kind (see :mod:`repro.perfmodel.device`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.graph import Graph
from repro.graph.node import Node

# Maps graph ops onto the latency-model op classes (the row labels of the
# paper's Table 4, plus the cheap plumbing classes).
OP_CLASS: dict[str, str] = {
    "conv2d": "conv",
    "depthwise_conv2d": "dwconv",
    "dense": "fc",
    "global_avg_pool": "mean",
    "avg_pool2d": "pool",
    "max_pool2d": "pool",
    "pad2d": "pad",
    "add": "add",
    "mul": "add",
    "concat": "add",
    "softmax": "softmax",
    "activation": "act",
    "batch_norm": "act",
    "layer_norm": "act",
    "image_normalize": "act",
    "channel_reverse": "reshape",
    "reshape": "reshape",
    "flatten": "reshape",
    "resize_nearest": "add",
    "embedding": "embed",
    "self_attention": "attention",
    "reduce_mean_seq": "mean",
    "quantize": "quantize",
    "dequantize": "quantize",
}


@dataclass(frozen=True)
class NodeWork:
    """Arithmetic work of one node at a given batch size."""

    macs: int
    elements: int


def _numel(graph: Graph, tensor: str, batch: int) -> int:
    return graph.spec(tensor).numel(batch)


def node_work(graph: Graph, node: Node, batch: int = 1) -> NodeWork:
    """Count multiply-accumulates and touched output elements for ``node``."""
    out_elems = sum(_numel(graph, t, batch) for t in node.outputs)

    if node.op == "conv2d":
        kh, kw, cin, cout = node.weights["weights"].shape
        spatial = _numel(graph, node.output, batch) // cout
        return NodeWork(macs=spatial * kh * kw * cin * cout, elements=out_elems)

    if node.op == "depthwise_conv2d":
        kh, kw, c, mult = node.weights["weights"].shape
        spatial = _numel(graph, node.output, batch) // (c * mult)
        return NodeWork(macs=spatial * kh * kw * c * mult, elements=out_elems)

    if node.op == "dense":
        din, dout = node.weights["weights"].shape
        rows = _numel(graph, node.output, batch) // dout
        return NodeWork(macs=rows * din * dout, elements=out_elems)

    if node.op == "self_attention":
        b = batch
        _, seq, dim = graph.spec(node.inputs[0]).shape
        seq = seq or 1
        dim = dim or 1
        projections = 4 * b * seq * dim * dim
        attention = 2 * b * seq * seq * dim
        return NodeWork(macs=projections + attention, elements=out_elems)

    if node.op in ("avg_pool2d", "max_pool2d"):
        kh, kw = node.attrs.get("pool_size", 2), None
        if isinstance(kh, tuple):
            kh, kw = kh
        else:
            kw = kh
        return NodeWork(macs=out_elems * int(kh) * int(kw), elements=out_elems)

    if node.op in ("global_avg_pool", "reduce_mean_seq"):
        in_elems = sum(_numel(graph, t, batch) for t in node.inputs)
        return NodeWork(macs=in_elems, elements=out_elems)

    # Elementwise / data-movement ops: no MACs, charged per element.
    return NodeWork(macs=0, elements=out_elems)
