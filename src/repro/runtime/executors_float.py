"""Float op executors: map graph nodes onto the float numpy kernels."""

from __future__ import annotations

import numpy as np

from repro import kernels as K
from repro.graph.node import Node
from repro.runtime.annotations import aliases_input
from repro.util.errors import GraphError


def _fused(node: Node, out: np.ndarray) -> np.ndarray:
    """Apply a node's fused activation to its kernel's freshly allocated output.

    relu/relu6 run in place: the same ufunc calls as the activation kernels,
    so the result is bit-identical without a second output buffer.
    """
    fn = node.attrs.get("activation", "linear")
    if fn == "linear":
        return out
    if fn == "relu":
        return np.maximum(out, 0.0, out=out)
    if fn == "relu6":
        return np.clip(out, 0.0, 6.0, out=out)
    try:
        return K.ACTIVATIONS[fn](out)
    except KeyError:
        raise GraphError(f"node {node.name!r}: unknown activation {fn!r}") from None


def conv2d(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return _fused(node, K.conv2d(
        inputs[0],
        node.weights["weights"],
        node.weights.get("bias"),
        stride=node.attrs.get("stride", 1),
        padding=node.attrs.get("padding", "same"),
    ))


def depthwise_conv2d(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return _fused(node, K.depthwise_conv2d(
        inputs[0],
        node.weights["weights"],
        node.weights.get("bias"),
        stride=node.attrs.get("stride", 1),
        padding=node.attrs.get("padding", "same"),
    ))


def dense(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return _fused(node, K.dense(inputs[0], node.weights["weights"],
                                node.weights.get("bias")))


def batch_norm(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    w = node.weights
    return K.batch_norm(
        inputs[0], w["mean"], w["variance"], w["gamma"], w["beta"],
        eps=node.attrs.get("eps", 1e-3),
    )


def activation(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    fn = node.attrs["fn"]
    try:
        return K.ACTIVATIONS[fn](inputs[0])
    except KeyError:
        raise GraphError(f"node {node.name!r}: unknown activation {fn!r}") from None


def softmax(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return K.softmax(inputs[0], axis=node.attrs.get("axis", -1))


def avg_pool2d(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return K.avg_pool2d(
        inputs[0],
        pool_size=node.attrs.get("pool_size", 2),
        stride=node.attrs.get("stride"),
        padding=node.attrs.get("padding", "valid"),
    )


def max_pool2d(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return K.max_pool2d(
        inputs[0],
        pool_size=node.attrs.get("pool_size", 2),
        stride=node.attrs.get("stride"),
        padding=node.attrs.get("padding", "valid"),
    )


def global_avg_pool(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return K.global_avg_pool(inputs[0], keepdims=node.attrs.get("keepdims", False))


def pad2d(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return K.pad2d(inputs[0], node.attrs["paddings"],
                   node.attrs.get("value", 0.0))


def add(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return _fused(node, K.add(inputs[0], inputs[1]))


def mul(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    # Applies the fused activation attr, exactly as ``add`` does — the
    # seed silently dropped it here.
    return _fused(node, K.mul(inputs[0], inputs[1]))


def concat(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return K.concat(list(inputs), axis=node.attrs.get("axis", -1))


@aliases_input
def reshape(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    shape = node.attrs["shape"]
    shape = tuple(inputs[0].shape[0] if d == -1 and i == 0 else d
                  for i, d in enumerate(shape))
    return K.reshape(inputs[0], shape)


@aliases_input
def flatten(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return K.flatten(inputs[0])


def embedding(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return K.embedding_lookup(node.weights["table"], inputs[0])


def layer_norm(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return K.layer_norm(
        inputs[0], node.weights["gamma"], node.weights["beta"],
        eps=node.attrs.get("eps", 1e-6),
    )


def self_attention(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    x = inputs[0]
    w = node.weights
    heads = node.attrs.get("num_heads", 1)
    q = K.split_heads(x @ w["wq"] + w["bq"], heads)
    k = K.split_heads(x @ w["wk"] + w["bk"], heads)
    v = K.split_heads(x @ w["wv"] + w["bv"], heads)
    attended = K.merge_heads(K.scaled_dot_product_attention(q, k, v))
    return attended @ w["wo"] + w["bo"]


def reduce_mean_seq(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return inputs[0].mean(axis=1)


def resize_nearest(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return K.resize_nearest(inputs[0], node.attrs["out_h"], node.attrs["out_w"])


def image_normalize(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return inputs[0] * node.attrs["scale"] + node.attrs["offset"]


@aliases_input
def channel_reverse(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return inputs[0][..., ::-1]


FLOAT_EXECUTORS = {
    "conv2d": conv2d,
    "depthwise_conv2d": depthwise_conv2d,
    "dense": dense,
    "batch_norm": batch_norm,
    "activation": activation,
    "softmax": softmax,
    "avg_pool2d": avg_pool2d,
    "max_pool2d": max_pool2d,
    "global_avg_pool": global_avg_pool,
    "pad2d": pad2d,
    "add": add,
    "mul": mul,
    "concat": concat,
    "reshape": reshape,
    "flatten": flatten,
    "embedding": embedding,
    "layer_norm": layer_norm,
    "self_attention": self_attention,
    "reduce_mean_seq": reduce_mean_seq,
    "resize_nearest": resize_nearest,
    "image_normalize": image_normalize,
    "channel_reverse": channel_reverse,
}
