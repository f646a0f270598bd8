"""Shared fixtures: deterministic RNG, hand-built graphs, zoo access, and
the reference walk the compiled interpreter is pinned against.

Zoo-backed fixtures rely on the on-disk training cache
(``.cache/zoo``); the first test session trains the models it needs
(seeded, deterministic) and later sessions reuse the cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.convert import convert_to_mobile, quantize_graph
from repro.graph import GraphBuilder
from repro.perfmodel.work import node_work
from repro.runtime import ExecContext, derive_bindings


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def build_small_cnn(rng: np.random.Generator, num_classes: int = 4,
                    in_hw: int = 8):
    """A checkpoint-style CNN exercising conv/bn/act/dw/residual/gap/dense."""
    b = GraphBuilder("small_cnn", metadata={"task": "classification"})
    x = b.input("input", (None, in_hw, in_hw, 3))

    def weights(shape, scale=0.4):
        return rng.normal(0, scale, shape).astype(np.float32)

    h = b.conv2d(x, weights((3, 3, 3, 8)), stride=2, name="stem")
    h = b.batch_norm(h, rng.normal(0, 0.2, 8).astype(np.float32),
                     np.abs(rng.normal(1, 0.2, 8)).astype(np.float32) + 0.2,
                     np.ones(8, np.float32), np.zeros(8, np.float32),
                     name="stem_bn")
    h = b.activation(h, "relu6", name="stem_act")
    h = b.depthwise_conv2d(h, weights((3, 3, 8, 1)), name="dw")
    h = b.batch_norm(h, rng.normal(0, 0.2, 8).astype(np.float32),
                     np.abs(rng.normal(1, 0.2, 8)).astype(np.float32) + 0.2,
                     np.ones(8, np.float32), np.zeros(8, np.float32),
                     name="dw_bn")
    h = b.activation(h, "relu6", name="dw_act")
    skip = h
    h = b.conv2d(h, weights((1, 1, 8, 8)), np.zeros(8, np.float32),
                 name="pw", activation="linear")
    h = b.add_tensors(h, skip, name="res_add")
    h = b.activation(h, "relu", name="res_act")
    h = b.global_avg_pool(h, name="gap")
    h = b.dense(h, weights((8, num_classes)), np.zeros(num_classes, np.float32),
                name="logits")
    h = b.softmax(h, name="probs")
    b.mark_output(h)
    return b.finish()


@pytest.fixture
def small_cnn(rng):
    return build_small_cnn(rng)


@pytest.fixture
def small_cnn_mobile(small_cnn):
    return convert_to_mobile(small_cnn)


@pytest.fixture
def calib_batch(rng):
    return rng.uniform(-1, 1, (16, 8, 8, 3)).astype(np.float32)


@pytest.fixture
def small_cnn_quantized(small_cnn_mobile, calib_batch):
    return quantize_graph(small_cnn_mobile, [calib_batch])


@dataclass
class ReferenceRun:
    """What :func:`run_reference` observed: the interpreter's contract."""

    outputs: dict[str, np.ndarray]
    layers: dict[str, np.ndarray]    # every node's output, by node name
    profile: list[dict]              # interpreter profile minus wall_ms
    latency_ms: float                # 0.0 without a device
    peak_bytes: int


def _resident_bytes(values: dict[str, np.ndarray]) -> int:
    """Bytes of the distinct buffers behind ``values`` (views count once)."""
    roots = {}
    for arr in values.values():
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        roots[id(arr)] = arr.nbytes
    return sum(roots.values())


def run_reference(graph, resolver, feeds, device=None) -> ReferenceRun:
    """Execute ``graph`` with no plan: fresh bindings and a per-node loop.

    Tensors are dropped after their last consumer; the peak is recomputed
    from the live values after every node, and simulated latency from
    uncached ``node_work`` counts.
    """
    if isinstance(feeds, np.ndarray):
        feeds = {graph.inputs[0]: feeds}
    values = dict(feeds)
    batch = next((values[name].shape[axis] for name in graph.inputs
                  for axis, dim in enumerate(graph.spec(name).shape)
                  if dim is None), 1)
    kind = "reference" if resolver.kind == "reference" else "optimized"
    consumers = {}
    for node in graph.nodes:
        for t in node.inputs:
            consumers[t] = consumers.get(t, 0) + 1
    ctx = ExecContext(graph=graph, resolver=resolver)
    run = ReferenceRun({}, {}, [], 0.0, _resident_bytes(values))
    for b in derive_bindings(graph, resolver):
        node = b.node
        out = np.asarray(b.executor(node, [values[t] for t in node.inputs],
                                    ctx))
        latency_ms = 0.0
        if device is not None:
            work = node_work(graph, node, batch=batch)
            latency_ms = device.layer_latency_ms(
                b.latency_op_class, "int8" if b.quantized else "float",
                kind, work.macs, work.elements)
        run.latency_ms += latency_ms
        run.profile.append({
            "index": b.index, "name": node.name, "op": node.op,
            "op_class": b.op_class, "quantized": b.quantized,
            "latency_ms": latency_ms, "output_bytes": int(out.nbytes)})
        run.layers[node.name] = out
        values[node.output] = out
        run.peak_bytes = max(run.peak_bytes, _resident_bytes(values))
        for t in node.inputs:
            consumers[t] -= 1
            if consumers[t] == 0 and t not in graph.outputs:
                values.pop(t, None)
    run.outputs = {t: values[t] for t in graph.outputs}
    return run


@pytest.fixture
def reference_invoke():
    """:func:`run_reference`, for tests that pin the interpreter to it."""
    return run_reference
