"""Activation fusion: merge standalone relu/relu6 nodes into their producer.

Matches TFLite converter behaviour ("fusion of activation function, such as
ReLU", §2). Only clamp-style activations are fused — they remain expressible
in the quantized domain; hard-swish and friends stay standalone LUT nodes.
"""

from __future__ import annotations

from dataclasses import replace

from repro.convert.rebuild import rebuild
from repro.graph.graph import Graph
from repro.graph.node import Node

_FUSABLE_INTO = ("conv2d", "depthwise_conv2d", "dense", "add")
_FUSABLE_FNS = ("relu", "relu6")


def fuse_activations(graph: Graph) -> Graph:
    """Fuse eligible activation nodes into the producing op's ``activation`` attr.

    Lints the fused graph's structural post-conditions
    (:func:`~repro.analysis.registry.verify_pass`) before returning it.
    """
    consumers = graph.consumers()
    producers = graph.producers()
    dropped: set[str] = set()
    replacements: dict[str, Node] = {}

    for node in graph.nodes:
        if node.op != "activation" or node.attrs.get("fn") not in _FUSABLE_FNS:
            continue
        src = producers.get(node.inputs[0])
        if src is None or src.op not in _FUSABLE_INTO:
            continue
        if src.name in replacements:  # already fused something into it
            continue
        if len(consumers[src.output]) != 1:
            continue
        if src.attrs.get("activation", "linear") != "linear":
            continue
        # Take over the activation node's name/output so downstream wiring
        # and per-layer log keys stay stable (see fold_batch_norm).
        replacements[src.name] = replace(
            src, name=node.name, outputs=[node.output],
            attrs={**src.attrs, "activation": node.attrs["fn"]})
        dropped.add(node.name)

    new_nodes = []
    for node in graph.nodes:
        if node.name in dropped:
            continue
        node = replacements.get(node.name, node)
        new_nodes.append(replace(node))

    out = rebuild(graph, new_nodes, metadata={"fused_activations": True})
    from repro.analysis.registry import verify_pass
    verify_pass(out, "fuse_activations")
    return out
