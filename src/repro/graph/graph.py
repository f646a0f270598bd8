"""The model graph container and the builder used to construct it.

A :class:`Graph` is the library's model format — the analogue of a TFLite
FlatBuffer: a topologically-ordered list of nodes over named tensors, with
weights attached to nodes and optional quantization annotations on tensors.
:meth:`Graph.freeze` makes a graph read-only so it can be shared.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.graph.node import Node, refuse_if_frozen
from repro.graph.shapes import infer_output_spec
from repro.graph.spec import TensorSpec
from repro.quantize.params import QuantParams
from repro.util.errors import GraphError


class FrozenDict(dict):
    """A dict that refuses writes: the mappings of a frozen graph.

    ``copy.deepcopy`` of one is a plain, editable dict.
    """

    def _read_only(self, *args, **kwargs):
        raise TypeError("a frozen graph is read-only; edit a copy.deepcopy "
                        "of it instead")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __deepcopy__(self, memo) -> dict:
        return {key: copy.deepcopy(value, memo) for key, value in self.items()}

    def __reduce__(self):
        return FrozenDict, (dict(self),)


def _frozen(value):
    """``value`` made read-only: dicts (nested too) become
    :class:`FrozenDict`, arrays (also those of quantization params) stop
    being writeable. Other values are returned as they are."""
    if isinstance(value, dict):
        return FrozenDict({key: _frozen(v) for key, v in value.items()})
    if isinstance(value, TensorSpec):
        _frozen(value.quant)
    elif isinstance(value, QuantParams):
        _frozen(value.scale)
        _frozen(value.zero_point)
    elif isinstance(value, np.ndarray):
        value.flags.writeable = False
    return value


@dataclass
class Graph:
    """A complete model: nodes in topological order over named tensors."""

    name: str
    inputs: list[str]
    outputs: list[str]
    nodes: list[Node]
    tensors: dict[str, TensorSpec]
    metadata: dict = field(default_factory=dict)

    # ------------------------------------------------------------- sharing
    def freeze(self) -> "Graph":
        """Make this graph read-only in place and return it.

        ``nodes``, ``inputs`` and ``outputs``, and each node's ``inputs``
        and ``outputs``, become tuples; ``tensors``, ``metadata`` and each
        node's ``attrs``, ``weights`` and ``weight_quant`` become
        :class:`FrozenDict`; every parameter and quantization-parameter
        array stops being writeable; and the graph and its nodes refuse
        field assignment. A frozen graph can be handed to many users, none
        of whom can change it for the others; ``copy.deepcopy`` gives an
        independent, editable graph.
        """
        for node in self.nodes:
            for name in ("inputs", "outputs"):
                object.__setattr__(node, name, tuple(getattr(node, name)))
            for name in ("attrs", "weights", "weight_quant"):
                object.__setattr__(node, name, _frozen(getattr(node, name)))
            object.__setattr__(node, "_frozen", True)
        for name in ("inputs", "outputs", "nodes"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("tensors", "metadata"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        object.__setattr__(self, "_param_bytes", self.param_bytes())
        object.__setattr__(self, "_frozen", True)
        return self

    def __setattr__(self, name: str, value) -> None:
        refuse_if_frozen(self, name)
        object.__setattr__(self, name, value)

    def __deepcopy__(self, memo) -> "Graph":
        return Graph(self.name, list(self.inputs), list(self.outputs),
                     [copy.deepcopy(node, memo) for node in self.nodes],
                     copy.deepcopy(self.tensors, memo),
                     copy.deepcopy(self.metadata, memo))

    # ------------------------------------------------------------------ access
    def node(self, name: str) -> Node:
        """Look up a node by name."""
        for node in self.nodes:
            if node.name == name:
                return node
        raise GraphError(f"graph {self.name!r} has no node {name!r}")

    def spec(self, tensor: str) -> TensorSpec:
        """Look up a tensor spec by name."""
        try:
            return self.tensors[tensor]
        except KeyError:
            raise GraphError(f"graph {self.name!r} has no tensor {tensor!r}") from None

    def producers(self) -> dict[str, Node]:
        """Map from tensor name to the node that produces it."""
        out: dict[str, Node] = {}
        for node in self.nodes:
            for t in node.outputs:
                out[t] = node
        return out

    def consumers(self) -> dict[str, list[Node]]:
        """Map from tensor name to the nodes that consume it."""
        out: dict[str, list[Node]] = {t: [] for t in self.tensors}
        for node in self.nodes:
            for t in node.inputs:
                out.setdefault(t, []).append(node)
        return out

    # ------------------------------------------------------------------ stats
    def num_layers(self) -> int:
        """Node count, excluding quantize/dequantize plumbing."""
        return sum(1 for n in self.nodes if n.op not in ("quantize", "dequantize"))

    def num_params(self) -> int:
        """Total parameter element count."""
        return sum(node.num_params() for node in self.nodes)

    def param_bytes(self) -> int:
        """Total parameter storage in bytes (respects quantized dtypes)."""
        if "_param_bytes" in self.__dict__:
            return self._param_bytes
        return sum(node.param_bytes() for node in self.nodes)

    @property
    def is_quantized(self) -> bool:
        """True if any activation tensor carries quantization parameters."""
        return any(spec.is_quantized for spec in self.tensors.values())

    # --------------------------------------------------------------- validate
    def validate(self) -> None:
        """Check structural invariants; raise :class:`GraphError` on failure."""
        seen_nodes: set[str] = set()
        defined: set[str] = set(self.inputs)
        for t in self.inputs:
            if t not in self.tensors:
                raise GraphError(f"input tensor {t!r} has no spec")
        for node in self.nodes:
            if node.name in seen_nodes:
                raise GraphError(f"duplicate node name {node.name!r}")
            seen_nodes.add(node.name)
            for t in node.inputs:
                if t not in defined:
                    raise GraphError(
                        f"node {node.name!r} consumes {t!r} before it is defined "
                        "(graph not topologically ordered, or tensor missing)"
                    )
            for t in node.outputs:
                if t in defined:
                    raise GraphError(f"tensor {t!r} produced twice")
                if t not in self.tensors:
                    raise GraphError(f"output tensor {t!r} of {node.name!r} has no spec")
                defined.add(t)
        for t in self.outputs:
            if t not in defined:
                raise GraphError(f"graph output {t!r} is never produced")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Graph({self.name!r}, {len(self.nodes)} nodes, "
            f"{self.num_params():,} params, quantized={self.is_quantized})"
        )


class GraphBuilder:
    """Incremental graph constructor with on-the-fly shape inference.

    Tensor names equal the producing node's name, so per-layer log keys are
    stable and human-readable.
    """

    def __init__(self, name: str, metadata: dict | None = None):
        self.name = name
        self.metadata = dict(metadata or {})
        self._inputs: list[str] = []
        self._outputs: list[str] = []
        self._nodes: list[Node] = []
        self._tensors: dict[str, TensorSpec] = {}
        self._counts: dict[str, int] = {}

    # ------------------------------------------------------------------ infra
    def _fresh_name(self, op: str, name: str | None) -> str:
        if name is None:
            self._counts[op] = self._counts.get(op, 0) + 1
            name = f"{op}_{self._counts[op]}"
        if name in self._tensors or any(n.name == name for n in self._nodes):
            raise GraphError(f"duplicate name {name!r}")
        return name

    def input(self, name: str, shape: tuple[int | None, ...],
              dtype: str = "float32") -> str:
        """Declare a graph input tensor and return its name."""
        if name in self._tensors:
            raise GraphError(f"duplicate input {name!r}")
        self._tensors[name] = TensorSpec(name, shape, dtype)
        self._inputs.append(name)
        return name

    def add(
        self,
        op: str,
        inputs: list[str] | str,
        name: str | None = None,
        attrs: dict | None = None,
        weights: dict[str, np.ndarray] | None = None,
    ) -> str:
        """Append a node; returns the name of its output tensor."""
        if isinstance(inputs, str):
            inputs = [inputs]
        for t in inputs:
            if t not in self._tensors:
                raise GraphError(f"unknown input tensor {t!r} for op {op!r}")
        name = self._fresh_name(op, name)
        attrs = dict(attrs or {})
        weights = {k: np.asarray(v) for k, v in (weights or {}).items()}
        spec = infer_output_spec(
            op, name, [self._tensors[t] for t in inputs], attrs, weights
        )
        node = Node(
            name=name,
            op=op,
            inputs=list(inputs),
            outputs=[name],
            attrs=attrs,
            weights=weights,
        )
        self._nodes.append(node)
        self._tensors[name] = spec
        return name

    def mark_output(self, tensor: str) -> None:
        """Declare a graph output."""
        if tensor not in self._tensors:
            raise GraphError(f"unknown output tensor {tensor!r}")
        self._outputs.append(tensor)

    def finish(self) -> Graph:
        """Validate and return the constructed graph."""
        if not self._outputs:
            raise GraphError("graph has no outputs; call mark_output()")
        graph = Graph(
            name=self.name,
            inputs=list(self._inputs),
            outputs=list(self._outputs),
            nodes=list(self._nodes),
            tensors=dict(self._tensors),
            metadata=dict(self.metadata),
        )
        graph.validate()
        return graph

    # ------------------------------------------------------- op conveniences
    # Activations are separate nodes here; convert's fuse_activations pass
    # folds them into the producer's ``activation`` attr.
    def conv2d(self, x: str, weights: np.ndarray, bias: np.ndarray | None = None,
               stride: int | tuple[int, int] = 1, padding: str = "same",
               name: str | None = None) -> str:
        w: dict[str, np.ndarray] = {"weights": weights}
        if bias is not None:
            w["bias"] = bias
        return self.add("conv2d", x, name=name, weights=w,
                        attrs={"stride": stride, "padding": padding,
                               "activation": "linear"})

    def depthwise_conv2d(self, x: str, weights: np.ndarray,
                         stride: int | tuple[int, int] = 1, padding: str = "same",
                         name: str | None = None) -> str:
        """Bias-free; converting folds a following batch norm into a bias."""
        return self.add("depthwise_conv2d", x, name=name,
                        weights={"weights": weights},
                        attrs={"stride": stride, "padding": padding,
                               "activation": "linear"})

    def dense(self, x: str, weights: np.ndarray, bias: np.ndarray | None = None,
              name: str | None = None) -> str:
        w: dict[str, np.ndarray] = {"weights": weights}
        if bias is not None:
            w["bias"] = bias
        return self.add("dense", x, name=name, weights=w,
                        attrs={"activation": "linear"})

    def batch_norm(self, x: str, mean, variance, gamma, beta,
                   name: str | None = None) -> str:
        return self.add("batch_norm", x, name=name, attrs={"eps": 1e-3},
                        weights={"mean": mean, "variance": variance,
                                 "gamma": gamma, "beta": beta})

    def activation(self, x: str, fn: str, name: str | None = None) -> str:
        return self.add("activation", x, name=name, attrs={"fn": fn})

    def softmax(self, x: str, name: str | None = None) -> str:
        return self.add("softmax", x, name=name)

    def add_tensors(self, a: str, b: str, name: str | None = None) -> str:
        return self.add("add", [a, b], name=name, attrs={"activation": "linear"})

    def mul_tensors(self, a: str, b: str, name: str | None = None) -> str:
        return self.add("mul", [a, b], name=name)

    def global_avg_pool(self, x: str, name: str | None = None) -> str:
        return self.add("global_avg_pool", x, name=name,
                        attrs={"keepdims": False})
