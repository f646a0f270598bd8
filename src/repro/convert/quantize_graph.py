"""Post-training full-integer quantization of a mobile float graph.

Implements the deployment stage the paper studies (§2, §3.3): activations are
calibrated over a representative dataset and quantized asymmetrically;
weights are quantized symmetrically (per-channel by default, per-tensor as an
ablation); biases become int32 with scale ``s_in * s_w``. ``quantize`` /
``dequantize`` bridge nodes keep the graph's external interface float, like a
TFLite full-integer model with float I/O.

Internal tensor names are preserved so per-layer logs of the quantized model
align one-to-one with the float reference — the property ML-EXray's
per-layer validation (Figure 6) relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.graph.graph import Graph
from repro.graph.node import Node
from repro.graph.spec import TensorSpec
from repro.quantize.calibrate import RangeObserver
from repro.quantize.params import (
    QuantParams,
    choose_qparams,
    choose_qparams_per_channel,
)
from repro.runtime.interpreter import Interpreter
from repro.util.errors import QuantizationError

_QUANTIZABLE_OPS = frozenset({
    "conv2d", "depthwise_conv2d", "dense", "activation", "softmax",
    "avg_pool2d", "max_pool2d", "global_avg_pool", "pad2d", "add", "mul",
    "concat", "reshape", "flatten",
})

_WEIGHT_CHANNEL_AXIS = {"conv2d": 3, "depthwise_conv2d": 2, "dense": 1}


@dataclass(frozen=True)
class QuantizationConfig:
    """Knobs of the post-training quantization pass.

    Attributes
    ----------
    activation_dtype:
        Storage dtype of activations ("int8" or "uint8").
    symmetric_activations:
        Use symmetric activation quantization (zero point 0). Asymmetric is
        the default, as in TFLite full-integer conversion.
    per_channel_weights:
        Per-channel symmetric weight scales (the default); ``False`` gives
        per-tensor weight quantization, the §2 failure-prone alternative.
    calibration_mode / percentile:
        Range estimation strategy for activations (see
        :class:`~repro.quantize.calibrate.RangeObserver`).
    """

    activation_dtype: str = "int8"
    symmetric_activations: bool = False
    per_channel_weights: bool = True
    calibration_mode: str = "minmax"
    percentile: float = 99.9


def calibrate_ranges(
    graph: Graph,
    representative_batches: list[np.ndarray | dict[str, np.ndarray]],
    config: QuantizationConfig = QuantizationConfig(),
) -> dict[str, RangeObserver]:
    """Run the float graph over representative data, recording tensor ranges."""
    if not representative_batches:
        raise QuantizationError("need at least one representative batch")
    observers: dict[str, RangeObserver] = {
        t: RangeObserver(config.calibration_mode, config.percentile)
        for t in graph.tensors
    }
    interp = Interpreter(graph)
    interp.add_observer(lambda rec: observers[rec.node.output].observe(rec.output))
    for batch in representative_batches:
        feeds = batch if isinstance(batch, dict) else {graph.inputs[0]: batch}
        for name, arr in feeds.items():
            observers[name].observe(arr)
        interp.invoke(feeds)
    return observers


def _weight_qparams(node: Node, config: QuantizationConfig) -> QuantParams:
    w = node.weights["weights"]
    axis = _WEIGHT_CHANNEL_AXIS[node.op]
    if config.per_channel_weights and not (
        node.op == "depthwise_conv2d" and w.shape[3] != 1
    ):
        return choose_qparams_per_channel(w, axis=axis)
    bound = float(np.abs(w).max())
    return choose_qparams(-bound, bound, dtype="int8", symmetric=True)


def _quantized_weights(
    node: Node,
    in_params: QuantParams,
    config: QuantizationConfig,
) -> dict:
    """The quantized ``weights`` and ``weight_quant`` of a conv/dwconv/dense
    node: int8 weights and, when it has a bias, an int32 bias."""
    w_params = _weight_qparams(node, config)
    weights = {**node.weights, "weights": w_params.quantize(
        node.weights["weights"].astype(np.float64))}
    weight_quant = {**node.weight_quant, "weights": w_params}

    bias = node.weights.get("bias")
    if bias is not None:
        bias_scale = in_params.scale.astype(np.float64) * w_params.scale
        bias_params = QuantParams(
            scale=bias_scale,
            zero_point=np.zeros_like(bias_scale, dtype=np.int64),
            dtype="int32",
            axis=0 if bias_scale.size > 1 else None,
        )
        weights["bias"] = np.clip(
            np.round(bias.astype(np.float64) / bias_scale),
            -(2**31), 2**31 - 1,
        ).astype(np.int32)
        weight_quant["bias"] = bias_params
    return {"weights": weights, "weight_quant": weight_quant}


def _activation_qparams(
    tensor: str,
    node: Node | None,
    observers: dict[str, RangeObserver],
    config: QuantizationConfig,
) -> QuantParams:
    if node is not None and node.op == "softmax":
        # TFLite fixes softmax output to scale 1/256 so probabilities use the
        # full int8 range deterministically.
        zp = -128 if config.activation_dtype == "int8" else 0
        return QuantParams(np.float64(1.0 / 256.0), np.int64(zp),
                           config.activation_dtype)
    return observers[tensor].qparams(
        dtype=config.activation_dtype, symmetric=config.symmetric_activations
    )


def quantize_graph(
    graph: Graph,
    representative_batches: list[np.ndarray | dict[str, np.ndarray]],
    config: QuantizationConfig = QuantizationConfig(),
) -> Graph:
    """Convert a float mobile graph into a full-integer quantized graph.

    Lints the quantized graph's structural and quantization-parameter
    post-conditions (:func:`~repro.analysis.registry.verify_pass`) —
    scale/zero-point sanity, per-channel axis lengths, quantize/dequantize
    domain bridging — and raises :class:`~repro.util.errors.GraphError` on any error-severity
    finding.
    """
    for node in graph.nodes:
        if node.op not in _QUANTIZABLE_OPS:
            raise QuantizationError(
                f"op {node.op!r} (node {node.name!r}) is not supported by "
                "full-integer quantization"
            )
    observers = calibrate_ranges(graph, representative_batches, config)
    producers = graph.producers()

    tensors: dict[str, TensorSpec] = {}
    nodes: list[Node] = []
    rename: dict[str, str] = {}

    # Float inputs, bridged through quantize nodes.
    for inp in graph.inputs:
        spec = graph.spec(inp)
        tensors[inp] = TensorSpec(inp, spec.shape, spec.dtype)
        qname = f"{inp}__q"
        qparams = _activation_qparams(inp, None, observers, config)
        tensors[qname] = TensorSpec(qname, spec.shape, config.activation_dtype,
                                    quant=qparams)
        nodes.append(Node(
            name=qname, op="quantize", inputs=[inp], outputs=[qname],
            attrs={"dtype": config.activation_dtype},
        ))
        rename[inp] = qname

    # Body: same structure, quantized params, original tensor names.
    for node in graph.nodes:
        out_params = _activation_qparams(node.output, node, observers, config)
        in_name = rename.get(node.inputs[0], node.inputs[0])
        in_params = tensors[in_name].quant
        fields = (_quantized_weights(node, in_params, config)
                  if node.op in _WEIGHT_CHANNEL_AXIS
                  else {"weights": dict(node.weights)})
        nodes.append(replace(
            node, inputs=[rename.get(t, t) for t in node.inputs], **fields))
        orig_spec = graph.spec(node.output)
        tensors[node.output] = TensorSpec(
            node.output, orig_spec.shape, config.activation_dtype, quant=out_params
        )

    # Float outputs, bridged through dequantize nodes.
    outputs: list[str] = []
    for out in graph.outputs:
        fname = f"{out}__f"
        spec = graph.spec(out)
        tensors[fname] = TensorSpec(fname, spec.shape, "float32")
        nodes.append(Node(
            name=fname, op="dequantize",
            inputs=[rename.get(out, out)], outputs=[fname], attrs={},
        ))
        outputs.append(fname)

    qgraph = Graph(
        name=graph.name,
        inputs=list(graph.inputs),
        outputs=outputs,
        nodes=nodes,
        tensors=tensors,
        metadata={**graph.metadata, "stage": "quantized",
                  "quantization": {
                      "activation_dtype": config.activation_dtype,
                      "symmetric_activations": config.symmetric_activations,
                      "per_channel_weights": config.per_channel_weights,
                      "calibration_mode": config.calibration_mode,
                  },
                  # Observed activation ranges, kept for the static range
                  # analysis to cross-check against derived reachable
                  # intervals (rule D004). Body tensor names are preserved
                  # by this pass, so the keys line up with qgraph tensors.
                  "calibration_ranges": {
                      t: [float(obs.min_val), float(obs.max_val)]
                      for t, obs in observers.items()
                      if obs.count > 0 and t in tensors
                  }},
    )
    qgraph.validate()
    from repro.analysis.registry import verify_pass
    verify_pass(qgraph, "quantize_graph")
    return qgraph
