"""Graph nodes: one op invocation with attributes and attached weights."""

from __future__ import annotations

import copy
from dataclasses import FrozenInstanceError, dataclass, field

import numpy as np

from repro.quantize.params import QuantParams
from repro.util.errors import GraphError

# Catalog of op types the runtime knows how to execute. Kept here (not in the
# runtime) so graph validation can reject unknown ops at build time.
OP_TYPES = frozenset({
    "conv2d",
    "depthwise_conv2d",
    "dense",
    "batch_norm",
    "activation",
    "softmax",
    "avg_pool2d",
    "max_pool2d",
    "global_avg_pool",
    "pad2d",
    "add",
    "mul",
    "concat",
    "reshape",
    "flatten",
    "embedding",
    "layer_norm",
    "self_attention",
    "reduce_mean_seq",
    "resize_nearest",
    "image_normalize",
    "channel_reverse",
    "quantize",
    "dequantize",
})


def refuse_if_frozen(obj, name: str) -> None:
    """Raise :class:`~dataclasses.FrozenInstanceError` when ``obj`` belongs
    to a frozen graph (:meth:`~repro.graph.graph.Graph.freeze`)."""
    if obj.__dict__.get("_frozen"):
        raise FrozenInstanceError(
            f"cannot assign {type(obj).__name__}.{name}: a frozen graph is "
            "read-only; edit a copy.deepcopy of it instead")


@dataclass
class Node:
    """One operation in a model graph.

    Attributes
    ----------
    name:
        Unique node name (also used as the layer name in per-layer logs).
    op:
        Op type, one of :data:`OP_TYPES`.
    inputs / outputs:
        Names of consumed / produced tensors.
    attrs:
        JSON-serializable static attributes (stride, padding, axis, ...).
    weights:
        Parameter arrays attached to the node (e.g. ``{"weights": W,
        "bias": b}``). Quantized graphs store these already quantized.
    weight_quant:
        Per-parameter quantization params for quantized graphs.

    A node of a frozen graph refuses field assignment, and its ``inputs``
    and ``outputs`` are tuples; ``copy.deepcopy`` gives an editable node.
    """

    name: str
    op: str
    inputs: list[str]
    outputs: list[str]
    attrs: dict = field(default_factory=dict)
    weights: dict[str, np.ndarray] = field(default_factory=dict)
    weight_quant: dict[str, QuantParams] = field(default_factory=dict)

    def __setattr__(self, name: str, value) -> None:
        refuse_if_frozen(self, name)
        object.__setattr__(self, name, value)

    def __deepcopy__(self, memo) -> "Node":
        return Node(self.name, self.op, list(self.inputs), list(self.outputs),
                    *(copy.deepcopy(value, memo) for value in (
                        self.attrs, self.weights, self.weight_quant)))

    def __post_init__(self) -> None:
        if self.op not in OP_TYPES:
            raise GraphError(f"node {self.name!r}: unknown op {self.op!r}")
        if not self.outputs:
            raise GraphError(f"node {self.name!r} produces no outputs")
        for key in self.weight_quant:
            if key not in self.weights:
                raise GraphError(
                    f"node {self.name!r}: weight_quant for missing weight {key!r}"
                )

    @property
    def output(self) -> str:
        """The single output tensor name (errors if the node has several)."""
        if len(self.outputs) != 1:
            raise GraphError(f"node {self.name!r} has {len(self.outputs)} outputs")
        return self.outputs[0]

    def num_params(self) -> int:
        """Total parameter element count attached to this node."""
        return int(sum(w.size for w in self.weights.values()))

    def param_bytes(self) -> int:
        """Total parameter storage in bytes."""
        return int(sum(w.nbytes for w in self.weights.values()))

    def to_json(self) -> dict:
        """Structure-only JSON (weights are serialized separately as npz)."""
        return {
            "name": self.name,
            "op": self.op,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "attrs": _attrs_to_json(self.attrs),
            "weight_keys": sorted(self.weights),
            "weight_quant": {k: q.to_json() for k, q in self.weight_quant.items()},
        }


def _attrs_to_json(attrs: dict) -> dict:
    out = {}
    for key, value in attrs.items():
        if isinstance(value, tuple):
            value = _tuple_to_list(value)
        out[key] = value
    return out


def _tuple_to_list(value):
    if isinstance(value, tuple):
        return [_tuple_to_list(v) for v in value]
    return value


def attrs_from_json(attrs: dict) -> dict:
    """Inverse of :func:`_attrs_to_json` (lists back to tuples)."""
    out = {}
    for key, value in attrs.items():
        if isinstance(value, list):
            value = _list_to_tuple(value)
        out[key] = value
    return out


def _list_to_tuple(value):
    if isinstance(value, list):
        return tuple(_list_to_tuple(v) for v in value)
    return value
