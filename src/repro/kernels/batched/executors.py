"""Batched op executors: hot-op bindings with in-place bias/activation fusion.

These executors have the same ``(node, inputs, ctx) -> ndarray`` signature
as the builtin float executors and are registered *on top of* them by
:class:`~repro.runtime.resolver.BatchedOpResolver`: every op listed in
:data:`BATCHED_OPS` runs the vectorized-batch kernel, everything else —
including the entire quantized domain — falls through to the builtin
optimized executors the resolver already carries.

Fusion contract: batched kernels return their raw accumulator and the
executor applies bias (``out += bias``) and relu/relu6 activations in place
on that freshly allocated array. In-place application of ``np.maximum`` /
``np.clip`` is bit-identical to the builtin out-of-place calls, so ops
whose math is shared with the builtin kernels (1x1 conv, dense, add, mul,
max pool) stay byte-identical across the two backends.
"""

from __future__ import annotations

import numpy as np

from repro import kernels as K
from repro.graph.node import Node
from repro.kernels.batched.conv import batched_conv2d, batched_depthwise_conv2d
from repro.kernels.batched.pool import batched_avg_pool2d, batched_max_pool2d
from repro.kernels.batched.quantized import (
    batched_qconv2d,
    batched_qdepthwise_conv2d,
)
from repro.runtime.executors_quant import _in_params, _out_params
from repro.runtime.executors_quant import dense as _builtin_qdense
from repro.util.errors import GraphError


def _fused_inplace(node: Node, out: np.ndarray, key: str = "activation") -> np.ndarray:
    """Apply a node's fused activation, in place where that is exact."""
    fn = node.attrs.get(key, "linear")
    if fn == "linear":
        return out
    if fn == "relu":
        return np.maximum(out, 0.0, out=out)
    if fn == "relu6":
        return np.clip(out, 0.0, 6.0, out=out)
    try:
        return K.ACTIVATIONS[fn](out)
    except KeyError:
        raise GraphError(
            f"node {node.name!r}: unknown activation {fn!r}") from None


def conv2d(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return _fused_inplace(node, batched_conv2d(
        inputs[0],
        node.weights["weights"],
        node.weights.get("bias"),
        stride=node.attrs.get("stride", 1),
        padding=node.attrs.get("padding", "same"),
    ))


def depthwise_conv2d(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return _fused_inplace(node, batched_depthwise_conv2d(
        inputs[0],
        node.weights["weights"],
        node.weights.get("bias"),
        stride=node.attrs.get("stride", 1),
        padding=node.attrs.get("padding", "same"),
    ))


def dense(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    w = node.weights["weights"]
    x = inputs[0]
    if x.shape[-1] != w.shape[0]:
        raise GraphError(
            f"node {node.name!r}: dense input dim {x.shape[-1]} != "
            f"weight rows {w.shape[0]}")
    res = x @ w
    bias = node.weights.get("bias")
    if bias is not None:
        res += bias
    return _fused_inplace(node, res)


def add(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return _fused_inplace(node, np.add(inputs[0], inputs[1]))


def mul(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    # Applies the fused activation attr, exactly as ``add`` does — the
    # seed silently dropped it here.
    return _fused_inplace(node, np.multiply(inputs[0], inputs[1]))


def avg_pool2d(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return batched_avg_pool2d(
        inputs[0],
        pool_size=node.attrs.get("pool_size", 2),
        stride=node.attrs.get("stride"),
        padding=node.attrs.get("padding", "valid"),
    )


def max_pool2d(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return batched_max_pool2d(
        inputs[0],
        pool_size=node.attrs.get("pool_size", 2),
        stride=node.attrs.get("stride"),
        padding=node.attrs.get("padding", "valid"),
    )


def qconv2d(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return batched_qconv2d(
        inputs[0], _in_params(node, ctx),
        node.weights["weights"], node.weight_quant["weights"],
        node.weights.get("bias"), _out_params(node, ctx),
        stride=node.attrs.get("stride", 1),
        padding=node.attrs.get("padding", "same"),
        activation=node.attrs.get("activation", "linear"),
        bugs=ctx.bugs,
    )


def qdepthwise_conv2d(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return batched_qdepthwise_conv2d(
        inputs[0], _in_params(node, ctx),
        node.weights["weights"], node.weight_quant["weights"],
        node.weights.get("bias"), _out_params(node, ctx),
        stride=node.attrs.get("stride", 1),
        padding=node.attrs.get("padding", "same"),
        activation=node.attrs.get("activation", "linear"),
        bugs=ctx.bugs,
    )


BATCHED_EXECUTORS = {
    "conv2d": conv2d,
    "depthwise_conv2d": depthwise_conv2d,
    "dense": dense,
    "add": add,
    "mul": mul,
    "avg_pool2d": avg_pool2d,
    "max_pool2d": max_pool2d,
}
"""Float-domain executors the batched backend overrides, keyed by op."""

BATCHED_OPS = frozenset(BATCHED_EXECUTORS)
"""The backend's native op coverage (its capability surface)."""

BATCHED_QUANT_EXECUTORS = {
    "conv2d": qconv2d,
    "depthwise_conv2d": qdepthwise_conv2d,
    # The builtin quantized dense executor already runs one whole-batch
    # centered GEMM; registering it here marks the op batched-native.
    "dense": _builtin_qdense,
}
"""Quantized-domain executors the batched backend overrides, keyed by op."""

BATCHED_QUANT_OPS = frozenset(BATCHED_QUANT_EXECUTORS)
"""The backend's native quantized op coverage."""
