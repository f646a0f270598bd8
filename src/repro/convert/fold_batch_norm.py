"""Batch-norm folding: absorb inference-mode BN into the preceding layer.

This is the "constant folding (including batch normalization folding)"
optimization the paper lists among standard mobile conversions (§2). It also
creates the per-channel weight-scale skew that motivates per-channel
quantization ("after batch normalization weight folding, the weight in a
convolution ... can sometimes be very different from channel to channel").
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.convert.rebuild import rebuild
from repro.graph.graph import Graph
from repro.graph.node import Node
from repro.util.errors import GraphError

_FOLDABLE = ("conv2d", "depthwise_conv2d", "dense")


def _fold_into(producer: Node, bn: Node) -> Node:
    """Return a copy of ``producer`` with ``bn`` folded into its weights.

    The folded node takes over the BN's name/output tensor: downstream
    consumers already reference it, and — crucially — per-layer log keys
    keep their meaning across deployment stages (the folded output IS the
    post-BN value).
    """
    w = producer.weights["weights"].astype(np.float64)
    bias = producer.weights.get("bias")
    bias = np.zeros(_out_channels(producer), dtype=np.float64) if bias is None \
        else bias.astype(np.float64)
    eps = bn.attrs.get("eps", 1e-3)
    inv = bn.weights["gamma"].astype(np.float64) / np.sqrt(
        bn.weights["variance"].astype(np.float64) + eps
    )
    beta = bn.weights["beta"].astype(np.float64)
    mean = bn.weights["mean"].astype(np.float64)

    if producer.op == "conv2d":
        w_folded = w * inv  # broadcast over (kh, kw, cin, cout)
    elif producer.op == "dense":
        w_folded = w * inv  # broadcast over (in, out)
    else:  # depthwise: output channel (c, m) maps to flat index c*mult + m
        kh, kw, c, mult = w.shape
        w_folded = w * inv.reshape(c, mult)
    bias_folded = (bias - mean) * inv + beta

    return replace(producer, name=bn.name, outputs=[bn.output], weights={
        **producer.weights, "weights": w_folded.astype(np.float32),
        "bias": bias_folded.astype(np.float32)})


def _out_channels(node: Node) -> int:
    w = node.weights["weights"]
    if node.op == "conv2d":
        return int(w.shape[3])
    if node.op == "dense":
        return int(w.shape[1])
    return int(w.shape[2] * w.shape[3])


def fold_batch_norm(graph: Graph) -> Graph:
    """Fold every foldable ``batch_norm`` node into its producer.

    A BN folds when its input is produced by a conv/depthwise/dense node that
    has no other consumer. Unfoldable BNs (e.g. directly on an input) are
    left in place.

    Lints the folded graph's structural post-conditions
    (:func:`~repro.analysis.registry.verify_pass`) and raises
    :class:`~repro.util.errors.GraphError` listing the diagnostics if the
    pass produced a broken graph.
    """
    consumers = graph.consumers()
    producers = graph.producers()
    folded_away: set[str] = set()
    replacements: dict[str, Node] = {}
    for node in graph.nodes:
        if node.op != "batch_norm":
            continue
        src = producers.get(node.inputs[0])
        if src is None or src.op not in _FOLDABLE:
            continue
        if len(consumers[src.output]) != 1:
            continue  # producer output used elsewhere; cannot fold
        if src.attrs.get("activation", "linear") != "linear":
            continue  # activation already fused before BN — not foldable
        replacements[src.name] = _fold_into(src, node)
        folded_away.add(node.name)

    new_nodes: list[Node] = []
    for node in graph.nodes:
        if node.name in folded_away:
            continue
        node = replacements.get(node.name, node)
        new_nodes.append(replace(node))

    out = rebuild(graph, new_nodes, metadata={"folded_batch_norm": True})
    from repro.analysis.registry import verify_pass
    verify_pass(out, "fold_batch_norm")
    return out
