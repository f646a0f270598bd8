"""The inference interpreter: executes a graph node by node.

This is the analogue of the TFLite interpreter the paper instruments. It
exposes exactly the observation surface ML-EXray needs:

* **observer hooks** invoked after every node with the node, its raw output,
  and its (simulated) latency — the per-layer logging channel (§3.2);
* **latency accounting** per node, produced by the device performance model
  when a :class:`~repro.perfmodel.device.Device` is attached, else from the
  wall clock;
* **memory accounting**: attached-weight bytes plus the peak activation
  bytes, the "memory footprint" metric of Tables 2/3/5. The peak is the
  static liveness peak
  (:meth:`~repro.runtime.plan.ExecutionPlan.peak_activation_bytes`), from
  the same function ``repro analyze`` and the arena packer use
  (:mod:`repro.analysis.liveness`), so like the arena a TFLite-style
  planner sizes it is known before the first invoke and never counts
  caller-owned buffers (a feed that is a view of a larger pool costs its
  own bytes). ``run_reference`` in ``tests/conftest.py`` checks it against
  the buffers concretely resident after every node.

There is one execution path: a compiled
:class:`~repro.runtime.plan.ExecutionPlan` (executor bindings, quantized
flags, output specs, op-class labels, and the tensors to free after each
node, resolved once per (graph, resolver)), executed node by node. After a
node's observers run, invoke deletes the tensors the plan frees there —
each at its last consumer, as :mod:`repro.analysis.liveness` derives it —
and the latency model's per-node latencies and the activation peak are
memoized per batch size. Static arena layouts are an analysis
(:mod:`repro.analysis.arena`, ``repro analyze --arena``), not an execution
mode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.graph.graph import Graph
from repro.graph.node import Node
from repro.graph.spec import TensorSpec
from repro.perfmodel.device import Device
from repro.runtime.plan import ExecutionPlan, node_is_quantized
from repro.runtime.resolver import BaseOpResolver, OpResolver
from repro.util.errors import GraphError, ShapeError

__all__ = [
    "ExecContext",
    "Interpreter",
    "LayerRecord",
    "node_is_quantized",
]


@dataclass(frozen=True)
class LayerRecord:
    """Observation of one executed node, delivered to observers."""

    index: int
    node: Node
    spec: TensorSpec
    output: np.ndarray
    latency_ms: float
    wall_ms: float
    quantized: bool


@dataclass
class ExecContext:
    """Execution context handed to op executors."""

    graph: Graph
    resolver: BaseOpResolver

    @property
    def bugs(self):
        return self.resolver.bugs


class Interpreter:
    """Executes a :class:`~repro.graph.graph.Graph` over numpy feeds.

    Parameters
    ----------
    graph:
        The model to execute (validated at construction).
    resolver:
        Kernel resolver; defaults to the optimized builtin resolver.
    device:
        Optional simulated device. When given, per-layer latency comes from
        the device cost model; otherwise real wall-clock time is reported.
    """

    def __init__(
        self,
        graph: Graph,
        resolver: BaseOpResolver | None = None,
        device: Device | None = None,
    ):
        graph.validate()
        self.graph = graph
        self.device = device
        self._observers: list = []
        self._plan: ExecutionPlan | None = None
        self.resolver = resolver or OpResolver()  # property: builds the ctx
        # Results of the most recent invoke(); ``last_batch`` is set as the
        # invoke starts, so observers read the running invoke's batch.
        self.last_batch: int = 1
        self.last_latency_ms: float = 0.0
        self.last_peak_activation_bytes: int = 0
        self.last_profile: list[dict] = []

    # --------------------------------------------------------------- resolver
    @property
    def resolver(self) -> BaseOpResolver:
        """The active kernel resolver.

        Assigning a new resolver rebuilds the execution context and drops
        the compiled plan, so the next invoke executes the new backend's
        kernels. (Plan staleness only tracks ``register()`` calls *on the
        plan's own resolver* — it cannot see the attribute being swapped,
        which is why the swap itself must invalidate.)
        """
        return self._resolver

    @resolver.setter
    def resolver(self, resolver: BaseOpResolver) -> None:
        self._resolver = resolver
        self._ctx = ExecContext(graph=self.graph, resolver=resolver)
        self._plan = None

    # ------------------------------------------------------------------- plan
    @property
    def plan(self) -> ExecutionPlan:
        """The compiled plan, (re)compiled on demand when stale."""
        if self._plan is None or self._plan.stale():
            self._plan = ExecutionPlan(self.graph, self.resolver)
        return self._plan

    # ------------------------------------------------------------- observers
    def add_observer(self, fn) -> None:
        """Register a callback invoked with a :class:`LayerRecord` per node."""
        self._observers.append(fn)

    def remove_observer(self, fn) -> None:
        self._observers.remove(fn)

    # ----------------------------------------------------------------- sizes
    def weights_bytes(self) -> int:
        """Total bytes of parameters attached to the graph."""
        return self.graph.param_bytes()

    # ---------------------------------------------------------------- invoke
    def invoke(
        self, feeds: np.ndarray | dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """Run the graph; returns a dict of output tensors by name."""
        values = self._prepare_feeds(feeds)
        self.last_batch = batch = self._feed_batch(values)
        plan = self.plan

        profile: list[dict] = []
        total_latency = 0.0
        observers = self._observers
        simulate = self.device is not None
        if simulate:
            layer_latency, total_latency = plan.latency_ms(self.device, batch)
        ctx = self._ctx

        for binding, dead in zip(plan.bindings, plan.frees):
            node = binding.node
            inputs = [values[t] for t in node.inputs]
            t0 = time.perf_counter()
            out = binding.executor(node, inputs, ctx)
            wall_ms = (time.perf_counter() - t0) * 1e3
            out = np.asarray(out)

            if simulate:
                latency_ms = layer_latency[binding.index]
            else:
                latency_ms = wall_ms
                total_latency += wall_ms
            record = LayerRecord(
                index=binding.index, node=node, spec=binding.spec,
                output=out, latency_ms=latency_ms, wall_ms=wall_ms,
                quantized=binding.quantized,
            )
            for observer in observers:
                observer(record)
            profile.append({
                "index": binding.index,
                "name": node.name,
                "op": node.op,
                "op_class": binding.op_class,
                "quantized": binding.quantized,
                "latency_ms": latency_ms,
                "wall_ms": wall_ms,
                "output_bytes": int(out.nbytes),
            })

            values[node.output] = out
            for t in dead:
                del values[t]

        self.last_latency_ms = total_latency
        self.last_peak_activation_bytes = plan.peak_activation_bytes(batch)
        self.last_profile = profile
        missing = [t for t in self.graph.outputs if t not in values]
        if missing:
            raise GraphError(f"outputs never produced: {missing}")
        return {t: values[t] for t in self.graph.outputs}

    def invoke_single(self, x: np.ndarray) -> np.ndarray:
        """Run the graph and return its (single) output tensor."""
        outputs = self.invoke(x)
        if len(outputs) != 1:
            raise GraphError(
                f"invoke_single on graph with {len(outputs)} outputs; use invoke()"
            )
        return next(iter(outputs.values()))

    # --------------------------------------------------------------- helpers
    def _prepare_feeds(
        self, feeds: np.ndarray | dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        if isinstance(feeds, np.ndarray):
            if len(self.graph.inputs) != 1:
                raise ShapeError(
                    f"graph has {len(self.graph.inputs)} inputs; pass a dict"
                )
            feeds = {self.graph.inputs[0]: feeds}
        values: dict[str, np.ndarray] = {}
        for name in self.graph.inputs:
            if name not in feeds:
                raise ShapeError(f"missing feed for input {name!r}")
            arr = np.asarray(feeds[name])
            spec = self.graph.spec(name)
            if spec.dtype.startswith("float"):
                arr = arr.astype(np.float32, copy=False)
            spec.check(arr)
            values[name] = arr
        return values

    def _feed_batch(self, values: dict[str, np.ndarray]) -> int:
        """Batch size of this invoke, read from the graph-input feeds.

        The batch is the value bound to the inputs' dynamic (``None``)
        spec dimensions — the same binding :func:`~repro.perfmodel.work.
        node_work` applies to every tensor. Deriving it here, once per
        invoke, keeps the cost model honest for nodes whose output drops
        or relocates the batch axis (rank-1/flattened tails used to charge
        their feature dimension as batch). Fully static graphs have no
        dynamic dimension and describe a single sample.
        """
        for name in self.graph.inputs:
            spec = self.graph.spec(name)
            for axis, dim in enumerate(spec.shape):
                if dim is None:
                    return int(values[name].shape[axis])
        return 1
