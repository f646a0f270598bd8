"""Quantized op executors.

Each executor collects quantization parameters from the surrounding tensor
specs / node weight annotations and calls its one kernel, passing the
resolver's :class:`~repro.kernels.quantized.bugs.KernelBugs` to the three
kernels a flag acts on. :data:`REFERENCE_EXECUTORS` are the ``reference``
backend's conv2d, depthwise_conv2d and dense entries.

Executors whose per-node constants are worth computing once carry a
``prepare(node, graph)`` attribute: the execution plan calls it when it
compiles and binds the executor it returns. Optimized ``conv2d``,
``depthwise_conv2d`` and ``dense`` nodes bind a prepared layer, and
standalone activations their lookup table.
"""

from __future__ import annotations

import numpy as np

from repro import kernels as K
from repro.graph.graph import Graph
from repro.graph.node import Node
from repro.kernels.quantized import optimized as _qopt
from repro.kernels.quantized import reference as _qref
from repro.kernels.quantized.requant import apply_lut, build_lut, rescale_tensor
from repro.runtime.annotations import aliases_input
from repro.util.errors import GraphError


def _in_params(node: Node, graph: Graph, idx: int = 0):
    params = graph.spec(node.inputs[idx]).quant
    if params is None:
        raise GraphError(
            f"node {node.name!r}: quantized executor on unquantized input "
            f"{node.inputs[idx]!r}"
        )
    return params


def _out_params(node: Node, graph: Graph):
    params = graph.spec(node.output).quant
    if params is None:
        raise GraphError(f"node {node.name!r}: quantized node lacks output params")
    return params


def _layer_args(node: Node, graph: Graph) -> tuple:
    """The leading kernel arguments of a conv2d, depthwise_conv2d or dense
    node: input params, weights and their params, bias, output params."""
    return (_in_params(node, graph), node.weights["weights"],
            node.weight_quant["weights"], node.weights.get("bias"),
            _out_params(node, graph))


def _layer_kwargs(node: Node) -> dict:
    """The trailing kernel arguments of a conv2d, depthwise_conv2d or dense
    node: its activation, and a convolution's stride and padding."""
    kwargs = {"activation": node.attrs.get("activation", "linear")}
    if node.op != "dense":
        kwargs["stride"] = node.attrs.get("stride", 1)
        kwargs["padding"] = node.attrs.get("padding", "same")
    return kwargs


def conv2d(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return _qopt.qconv2d(inputs[0], *_layer_args(node, ctx.graph),
                         **_layer_kwargs(node))


def depthwise_conv2d(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return _qopt.qdepthwise_conv2d(inputs[0], *_layer_args(node, ctx.graph),
                                   **_layer_kwargs(node), bugs=ctx.bugs)


def dense(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return _qopt.qdense(inputs[0], *_layer_args(node, ctx.graph),
                        **_layer_kwargs(node))


def _prepare_layer(node: Node, graph: Graph):
    """Bind an optimized conv2d/depthwise_conv2d/dense node's prepared
    layer."""
    prepare = {"conv2d": _qopt.prepare_qconv2d,
               "depthwise_conv2d": _qopt.prepare_qdepthwise_conv2d,
               "dense": _qopt.prepare_qdense}[node.op]
    run = prepare(*_layer_args(node, graph), **_layer_kwargs(node))
    if node.op == "depthwise_conv2d":
        return lambda node, inputs, ctx: run(inputs[0], ctx.bugs)
    return lambda node, inputs, ctx: run(inputs[0])


conv2d.prepare = depthwise_conv2d.prepare = dense.prepare = _prepare_layer


def activation(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return _prepare_activation(node, ctx.graph)(node, inputs, ctx)


def _prepare_activation(node: Node, graph: Graph):
    """Bind a standalone activation node's 256-entry lookup table."""
    fn_name = node.attrs["fn"]
    try:
        fn = K.ACTIVATIONS[fn_name]
    except KeyError:
        raise GraphError(f"node {node.name!r}: unknown activation {fn_name!r}") from None
    in_p = _in_params(node, graph)
    lut = build_lut(fn, in_p, _out_params(node, graph))
    return lambda node, inputs, ctx: apply_lut(inputs[0], lut, in_p)


activation.prepare = _prepare_activation


def softmax(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    in_p = _in_params(node, ctx.graph)
    out_p = _out_params(node, ctx.graph)
    probs = K.softmax(in_p.dequantize(inputs[0]).astype(np.float64),
                      axis=node.attrs.get("axis", -1))
    return out_p.quantize(probs)


def avg_pool2d(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return _qopt.qavg_pool2d(
        inputs[0], _in_params(node, ctx.graph), _out_params(node, ctx.graph),
        pool_size=node.attrs.get("pool_size", 2),
        stride=node.attrs.get("stride"),
        padding=node.attrs.get("padding", "valid"),
        bugs=ctx.bugs,
    )


def max_pool2d(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return _qopt.qmax_pool2d(
        inputs[0], _in_params(node, ctx.graph), _out_params(node, ctx.graph),
        pool_size=node.attrs.get("pool_size", 2),
        stride=node.attrs.get("stride"),
        padding=node.attrs.get("padding", "valid"),
    )


def global_avg_pool(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return _qopt.qglobal_avg_pool(
        inputs[0], _in_params(node, ctx.graph), _out_params(node, ctx.graph),
        keepdims=node.attrs.get("keepdims", False),
    )


def pad2d(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return _qopt.qpad2d(
        inputs[0], _in_params(node, ctx.graph), node.attrs["paddings"], bugs=ctx.bugs
    )


def add(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return _qopt.qadd(
        inputs[0], _in_params(node, ctx.graph, 0),
        inputs[1], _in_params(node, ctx.graph, 1),
        _out_params(node, ctx.graph),
        activation=node.attrs.get("activation", "linear"),
    )


def mul(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return _qopt.qmul(
        inputs[0], _in_params(node, ctx.graph, 0),
        inputs[1], _in_params(node, ctx.graph, 1),
        _out_params(node, ctx.graph),
        activation=node.attrs.get("activation", "linear"),
    )


def concat(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    out_p = _out_params(node, ctx.graph)
    rescaled = [
        rescale_tensor(arr, _in_params(node, ctx.graph, i), out_p)
        for i, arr in enumerate(inputs)
    ]
    return np.concatenate(rescaled, axis=node.attrs.get("axis", -1))


@aliases_input
def reshape(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    shape = node.attrs["shape"]
    shape = tuple(inputs[0].shape[0] if d == -1 and i == 0 else d
                  for i, d in enumerate(shape))
    return inputs[0].reshape(shape)


@aliases_input
def flatten(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return inputs[0].reshape(inputs[0].shape[0], -1)


def quantize(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return _out_params(node, ctx.graph).quantize(inputs[0])


def dequantize(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return _in_params(node, ctx.graph).dequantize(inputs[0])


QUANT_EXECUTORS = {
    "conv2d": conv2d,
    "depthwise_conv2d": depthwise_conv2d,
    "dense": dense,
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
    "quantize": quantize,
    "dequantize": dequantize,
}


def reference_conv2d(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return _qref.qconv2d(inputs[0], *_layer_args(node, ctx.graph),
                         **_layer_kwargs(node))


def reference_depthwise_conv2d(node: Node, inputs: list[np.ndarray],
                               ctx) -> np.ndarray:
    return _qref.qdepthwise_conv2d(inputs[0], *_layer_args(node, ctx.graph),
                                   **_layer_kwargs(node))


def reference_dense(node: Node, inputs: list[np.ndarray], ctx) -> np.ndarray:
    return _qref.qdense(inputs[0], *_layer_args(node, ctx.graph),
                        **_layer_kwargs(node))


REFERENCE_EXECUTORS = {
    "conv2d": reference_conv2d,
    "depthwise_conv2d": reference_depthwise_conv2d,
    "dense": reference_dense,
}
"""The int8 entries the ``reference`` backend registers over
:data:`QUANT_EXECUTORS`: reference loops, unprepared and bug-free."""
