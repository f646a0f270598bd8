"""Runtime memory/dtype contract, zoo-wide parity, and arena soundness.

Pinned from every side:

* **alias accounting** — view executors (reshape/flatten/channel_reverse)
  return numpy *views*; the interpreter's peak is the plan's static
  liveness with each view folded into the buffer it aliases, and it equals
  the bytes ``run_reference`` in ``conftest.py`` finds concretely resident
  — never a double count, never a premature free, never the caller's
  feed buffers;
* **fused-activation consistency** — ``mul`` applies its fused activation
  attr on every backend (float, quantized), byte-identical across them;
* **zoo parity** — the compiled interpreter is byte-identical to the
  plan-free reference walk (``reference_invoke`` in ``conftest.py``) on
  every zoo model, float and quantized, both resolvers, batch 1/4/32, and
  its static peak equals the walk's concrete peak;
* **spec conformance** — every layer's output carries its spec dtype, the
  runtime's peak activation bytes equal the static liveness peak, and the
  plan frees every tensor exactly once, right after its last consumer;
* **verifier skepticism** — ``verify_layout`` re-proves every alias claim
  from the graph; a layout asserting a false alias is rejected, never
  trusted.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import EdgeApp
from repro.analysis import pack_arena, verify_layout
from repro.analysis.liveness import (
    VIEW_OPS,
    liveness_from_graph,
    peak_live_bytes,
)
from repro.graph import GraphBuilder
from repro.instrument import EdgeMLMonitor, EXrayLog
from repro.runtime import Interpreter, OpResolver, ReferenceOpResolver
from repro.runtime.executors_float import FLOAT_EXECUTORS
from repro.runtime.executors_quant import QUANT_EXECUTORS
from repro.zoo import get_model, list_models
from repro.zoo.registry import playback_data
# The repo-rule tests live in test_repo_rules.py; importing them here keeps
# their historical test ids collected as well.
from test_repo_rules import (  # noqa: F401
    TestDanglingAllRule,
    TestExecutorViewAnnotationRule,
    TestNoNpPadRule,
    TestTestOnlyDefinitionRule,
)

# Models whose mobile stage cannot be fully-integer quantized (embedding /
# resize / in-graph normalize ops); their quantized stage is skipped, the
# float stages still run through the whole matrix.
UNQUANTIZABLE = frozenset(
    {"micro_bert", "nnlm_lite", "deeplab_lite", "effdet_lite"})


def slot_of(layout, tensor):
    """The arena slot holding *tensor*."""
    (slot,) = [s for s in layout.slots if s.tensor == tensor]
    return slot


def make_feeds(graph, batch, seed=0):
    """Random feeds honouring each input's spec (int specs get ids)."""
    rng = np.random.default_rng(seed)
    feeds = {}
    for name in graph.inputs:
        spec = graph.spec(name)
        shape = tuple(batch if d is None else d for d in spec.shape)
        if spec.dtype.startswith("float"):
            feeds[name] = rng.normal(size=shape).astype(spec.dtype)
        else:
            feeds[name] = rng.integers(0, 16, size=shape).astype(spec.dtype)
    return feeds


# ------------------------------------------------------- alias accounting

class TestAliasAccounting:
    """The interpreter's peak folds views into the buffers they alias.

    ``last_peak_activation_bytes`` is the plan's static liveness peak
    (``ExecutionPlan.peak_activation_bytes``) under the one alias rule the
    arena packer and ``repro analyze`` share. These tests pin it against
    the bytes concretely resident during a run: ``run_reference`` walks
    the graph and measures the distinct buffers live after every node.
    """

    def _flatten_graph(self, rng):
        b = GraphBuilder("flatview")
        x = b.input("input", (None, 4, 4, 8))
        h = b.add("flatten", x, name="flat")
        h = b.dense(h, rng.normal(size=(128, 10)).astype(np.float32),
                    rng.normal(size=(10,)).astype(np.float32), name="logits")
        b.mark_output(h)
        return b.finish()

    def _channel_reverse_graph(self, rng):
        b = GraphBuilder("revview")
        x = b.input("input", (None, 4, 4, 3))
        h = b.add("conv2d", x, name="pw", weights={
            "weights": rng.normal(size=(1, 1, 3, 8)).astype(np.float32)},
            attrs={"stride": 1, "padding": "same", "activation": "relu"})
        h = b.add("channel_reverse", h, name="rev")
        h = b.conv2d(h, rng.normal(size=(1, 1, 8, 8)).astype(np.float32),
                     name="mix")
        h = b.global_avg_pool(h, name="gap")
        b.mark_output(h)
        return b.finish()

    def test_view_not_double_counted(self, rng):
        # flatten returns a view of its input: true resident bytes while
        # dense runs are input + logits, and nothing more. Charging the
        # flattened view as a tensor of its own would count it twice.
        graph = self._flatten_graph(rng)
        x = rng.normal(size=(2, 4, 4, 8)).astype(np.float32)
        interp = Interpreter(graph)
        out = interp.invoke(x)["logits"]
        true_resident = x.nbytes + out.nbytes
        assert interp.last_peak_activation_bytes == true_resident

    def test_view_kept_alive_by_consumer(self, rng):
        # The input's last named consumer is flatten, but the flattened
        # view still references its buffer: the bytes stay charged until
        # the view's own last consumer runs.
        graph = self._flatten_graph(rng)
        x = rng.normal(size=(1, 4, 4, 8)).astype(np.float32)
        interp = Interpreter(graph)
        out = interp.invoke(x)["logits"]
        # Peak below input+flat+logits (the double-count) but not below
        # input+logits (the premature free).
        assert interp.last_peak_activation_bytes >= x.nbytes + out.nbytes
        assert interp.last_peak_activation_bytes < 2 * x.nbytes + out.nbytes

    def test_view_ops_are_the_aliasing_executors(self):
        # One source of truth: every builtin executor that returns a view
        # is a VIEW_OPS op, and every VIEW_OPS op has such an executor.
        marked = {op for table in (FLOAT_EXECUTORS, QUANT_EXECUTORS)
                  for op, fn in table.items()
                  if getattr(fn, "aliases_input", False)}
        assert VIEW_OPS == marked

    def test_channel_reverse_view_counted_once(self, rng, reference_invoke):
        graph = self._channel_reverse_graph(rng)
        for batch in (1, 4):
            feeds = make_feeds(graph, batch)
            ref = reference_invoke(graph, OpResolver(), feeds)
            interp = Interpreter(graph)
            interp.invoke(feeds)
            assert interp.last_peak_activation_bytes == ref.peak_bytes, batch
        for plan in (None, Interpreter(graph).plan):
            layout = pack_arena(graph, plan)
            assert not verify_layout(graph, layout)
            rev = slot_of(layout, "rev")
            assert rev.alias_of == "pw"
            assert rev.offset == slot_of(layout, "pw").offset


class TestCallerOwnedFeeds:
    """The peak never depends on who owns the feed buffer.

    Text preprocessing passes token ids through, so an edge app feeds each
    frame as a view of its whole playback pool. Charging that pool was a
    bug: the per-frame memory grew with the playback length.
    """

    def test_view_feed_reports_same_peak_as_copy(self):
        graph = get_model("micro_bert", "mobile")
        pool, _ = playback_data("micro_bert", 128)
        viewed, owned = Interpreter(graph), Interpreter(graph)
        for i in (0, 64, 127):
            viewed.invoke(pool[i:i + 1])
            owned.invoke(pool[i:i + 1].copy())
            assert viewed.last_peak_activation_bytes == \
                owned.last_peak_activation_bytes, i

    @pytest.mark.parametrize("model", ["micro_bert", "nnlm_lite"])
    def test_edge_app_memory_independent_of_playback_length(self, model):
        graph = get_model(model, "mobile")

        def frame_memory(frames):
            raw, _ = playback_data(model, frames)
            app = EdgeApp(graph)
            app.run(raw)
            return [f.memory_mb for f in app.monitor.frames]

        short, long = frame_memory(4), frame_memory(128)
        assert len(long) == 128
        assert short == long[:4]
        assert set(long) == set(short) and len(set(short)) == 1


# --------------------------------------------- fused activation on mul

class TestMulFusedActivation:
    def _mul_graph(self, activation):
        b = GraphBuilder("mulact")
        x = b.input("a", (None, 6, 6, 4))
        y = b.input("b", (None, 6, 6, 4))
        h = b.add("mul", [x, y], name="prod",
                  attrs={"activation": activation})
        b.mark_output(h)
        return b.finish()

    @pytest.mark.parametrize("activation", ["relu", "relu6"])
    def test_float_backends_apply_and_agree(self, rng, activation):
        graph = self._mul_graph(activation)
        feeds = make_feeds(graph, 5)
        ref = Interpreter(graph, ReferenceOpResolver()).invoke(feeds)["prod"]
        # The activation actually fired (negative products exist pre-clip).
        raw = feeds["a"] * feeds["b"]
        assert (raw < 0).any() and (ref >= 0).all()
        np.testing.assert_array_equal(
            ref, np.clip(raw, 0.0, 6.0 if activation == "relu6" else None))
        got = Interpreter(graph, OpResolver()).invoke(feeds)["prod"]
        np.testing.assert_array_equal(ref, got)

    def test_quantized_mul_applies_activation(self, small_cnn_quantized, rng):
        # The quantized graph pins the end-to-end path; here we only need
        # the executor not to drop the attr: a quantized mul with relu
        # never emits below the zero-point's dequantized value.
        from repro.kernels.quantized.optimized import qmul
        from repro.quantize import QuantParams
        a_p = QuantParams(scale=0.05, zero_point=0)
        b_p = QuantParams(scale=0.04, zero_point=0)
        o_p = QuantParams(scale=0.02, zero_point=10)
        a_q = rng.integers(-100, 100, size=(2, 8)).astype(np.int8)
        b_q = rng.integers(-100, 100, size=(2, 8)).astype(np.int8)
        plain = qmul(a_q, a_p, b_q, b_p, o_p)
        relu = qmul(a_q, a_p, b_q, b_p, o_p, activation="relu")
        assert (plain < o_p.zero_point).any()
        assert (relu >= o_p.zero_point).all()


# ------------------------------------------------------- zoo parity matrix

def model_stages(model, names=("checkpoint", "mobile", "quantized")):
    return [s for s in names
            if not (s == "quantized" and model in UNQUANTIZABLE)]


class TestZooParityMatrix:
    @pytest.mark.parametrize("model", sorted(list_models()))
    def test_paths_byte_identical(self, model, reference_invoke):
        for stage in model_stages(model, ("mobile", "quantized")):
            graph = get_model(model, stage)
            for batch in (1, 4, 32):
                feeds = make_feeds(graph, batch)
                ref = reference_invoke(graph, OpResolver(), feeds)
                interp = Interpreter(graph, OpResolver())
                plan = interp.invoke(feeds)
                ctx = (model, stage, batch)
                assert interp.last_peak_activation_bytes == ref.peak_bytes, ctx
                for t in ref.outputs:
                    np.testing.assert_array_equal(
                        ref.outputs[t], plan[t], err_msg=repr((*ctx, t)))

    @pytest.mark.parametrize("stage", ["mobile", "quantized"])
    def test_exray_layer_schedule_unchanged(self, stage,
                                            reference_invoke):
        # EXray sees every logical layer, in graph order, with the very
        # tensors the reference walk computes (dequantized, as logged).
        graph = get_model("micro_mobilenet_v1", stage)
        feeds = make_feeds(graph, 4)
        interp = Interpreter(graph)
        monitor = EdgeMLMonitor(name="plan", per_layer=True)
        monitor.attach(interp)
        with monitor.frame(interp):
            interp.invoke(feeds)
        frame = EXrayLog.from_monitor(monitor).frames[0]
        ref = reference_invoke(graph, OpResolver(), feeds)
        assert list(frame.layer_ops) == [n.name for n in graph.nodes]
        for entry in ref.profile:
            name = entry["name"]
            expected = ref.layers[name]
            quant = graph.spec(graph.node(name).output).quant
            if entry["quantized"] and quant:
                expected = quant.dequantize(expected)
            np.testing.assert_array_equal(
                frame.tensors[f"layer/{name}"], expected, err_msg=name)


class TestZooSpecConformance:
    """Runtime observations agree with the graph's declared specs."""

    @pytest.mark.parametrize("model", sorted(list_models()))
    def test_layer_dtypes_match_specs(self, model):
        for stage in model_stages(model):
            graph = get_model(model, stage)
            drift = []
            interp = Interpreter(graph, OpResolver())
            interp.add_observer(lambda r: drift.append(
                (r.node.name, str(r.output.dtype), r.spec.dtype))
                if r.output.dtype != np.dtype(r.spec.dtype) else None)
            interp.invoke(make_feeds(graph, 2))
            assert drift == [], stage

    @pytest.mark.parametrize("model", sorted(list_models()))
    def test_peak_matches_static_liveness(self, model):
        for stage in model_stages(model):
            graph = get_model(model, stage)
            interp = Interpreter(graph)
            for batch in (1, 4):
                interp.invoke(make_feeds(graph, batch))
                static = peak_live_bytes(liveness_from_graph(graph, batch))
                assert interp.last_peak_activation_bytes == static, \
                    (stage, batch)

    @pytest.mark.parametrize("model", sorted(list_models()))
    def test_plan_frees_each_tensor_after_last_consumer(self, model):
        for stage in model_stages(model):
            graph = get_model(model, stage)
            # Walk the graph: a tensor dies after its last consumer, or
            # after its producer when nothing consumes it; outputs never.
            dies = {}
            for index, node in enumerate(graph.nodes):
                for t in (*node.outputs, *node.inputs):
                    dies[t] = index
            for t in graph.outputs:
                dies.pop(t, None)
            frees = Interpreter(graph).plan.frees
            freed = [(t, index) for index, dead in enumerate(frees)
                     for t in dead]
            assert len(frees) == len(graph.nodes), stage
            assert sorted(freed) == sorted(dies.items()), stage


# --------------------------------------------------- verifier skepticism

class TestVerifierAliasClaims:
    def _flat_graph(self, rng):
        b = GraphBuilder("flatzoo")
        x = b.input("input", (None, 4, 4, 8))
        h = b.add("conv2d", x, name="pw", weights={
            "weights": rng.normal(size=(1, 1, 8, 8)).astype(np.float32)},
            attrs={"stride": 1, "padding": "same", "activation": "relu"})
        h = b.add("flatten", h, name="flat")
        h = b.dense(h, rng.normal(size=(128, 10)).astype(np.float32),
                    name="logits")
        b.mark_output(h)
        return b.finish()

    def test_true_alias_verifies(self, rng):
        graph = self._flat_graph(rng)
        layout = pack_arena(graph)
        assert not verify_layout(graph, layout)
        flat = slot_of(layout, "flat")
        assert flat.alias_of == "pw"
        assert flat.offset == slot_of(layout, "pw").offset

    def test_false_alias_claim_rejected(self, rng):
        # A layout asserting that a non-view tensor aliases another must
        # be refused: the verifier re-derives aliasing from the graph and
        # never trusts the document.
        graph = self._flat_graph(rng)
        layout = pack_arena(graph)
        lying = replace(layout, slots=tuple(
            replace(s, alias_of="input",
                    offset=slot_of(layout, "input").offset)
            if s.tensor == "pw" else s
            for s in layout.slots))
        problems = verify_layout(graph, lying)
        assert problems
        assert any("alias" in p.message for p in problems)

    def test_alias_of_alias_rejected(self, rng):
        graph = self._flat_graph(rng)
        layout = pack_arena(graph)
        lying = replace(layout, slots=tuple(
            replace(s, alias_of="flat") if s.tensor == "logits" else s
            for s in layout.slots))
        assert verify_layout(graph, lying)
