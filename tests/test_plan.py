"""Execution-plan tests: compilation, caching, staleness, reference parity.

The parity tests pin the plan's contract: a plan-compiled interpreter must
be *bit-identical* to a plan-free reference walk (``reference_invoke`` in
``conftest.py``: freshly derived bindings and a per-node loop) in outputs,
profile, simulated latency, and peak-memory accounting — wall-clock fields
excepted, as they are measured, not computed.
"""

import numpy as np
import pytest

from repro.analysis import lint_graph
from repro.graph import GraphBuilder
from repro.perfmodel import PIXEL4_CPU
from repro.runtime import (
    ExecutionPlan,
    Interpreter,
    OpResolver,
    node_is_quantized,
)


def strip_wall(profile):
    """Profile entries minus the measured wall_ms field."""
    return [{k: v for k, v in entry.items() if k != "wall_ms"}
            for entry in profile]


def assert_invoke_parity(reference_invoke, graph, x, resolver_fn=OpResolver,
                         device=PIXEL4_CPU):
    """The planned interpreter and the reference walk agree bit-for-bit."""
    planned = Interpreter(graph, resolver_fn(), device=device)
    out = planned.invoke(x)
    ref = reference_invoke(graph, resolver_fn(), x, device)
    assert sorted(out) == sorted(ref.outputs)
    for name in out:
        np.testing.assert_array_equal(out[name], ref.outputs[name])
    assert planned.last_latency_ms == ref.latency_ms
    assert planned.last_peak_activation_bytes == ref.peak_bytes
    assert strip_wall(planned.last_profile) == ref.profile


class TestCompile:
    def test_bindings_cover_every_node(self, small_cnn):
        plan = ExecutionPlan(small_cnn, OpResolver())
        assert len(plan) == len(small_cnn.nodes)
        assert [b.node.name for b in plan.bindings] == \
            [n.name for n in small_cnn.nodes]

    def test_quantized_flags_match_helper(self, small_cnn_quantized):
        plan = ExecutionPlan(small_cnn_quantized, OpResolver())
        for binding in plan.bindings:
            assert binding.quantized == node_is_quantized(
                small_cnn_quantized, binding.node)

    def test_frees_follow_last_consumer(self, small_cnn):
        plan = ExecutionPlan(small_cnn, OpResolver())
        assert len(plan.frees) == len(small_cnn.nodes)
        for index, dead in enumerate(plan.frees):
            for tensor in dead:
                last = max(i for i, n in enumerate(small_cnn.nodes)
                           if tensor in n.inputs)
                assert last == index
                assert tensor not in small_cnn.outputs

    def test_work_memoized(self, small_cnn):
        plan = ExecutionPlan(small_cnn, OpResolver())
        assert plan.work(0, 4) is plan.work(0, 4)  # same cached object
        assert plan.work(0, 4) != plan.work(0, 8)  # batch-dependent

    def test_compiled_once_across_invokes(self, small_cnn, rng):
        resolver = OpResolver()
        lookups = []
        original = resolver.lookup
        resolver.lookup = lambda op, q: (lookups.append(op), original(op, q))[1]
        interp = Interpreter(small_cnn, resolver)
        x = rng.normal(size=(1, 8, 8, 3)).astype(np.float32)
        interp.invoke(x)
        after_first = len(lookups)
        interp.invoke(x)
        assert after_first == len(small_cnn.nodes)
        assert len(lookups) == after_first  # no lookups on the second invoke

    def test_plan_property_reuses_instance(self, small_cnn):
        interp = Interpreter(small_cnn)
        assert isinstance(interp.plan, ExecutionPlan)
        assert interp.plan is interp.plan


class TestDeadNode:
    """A node nothing consumes: its output dies right after its producer's
    observers ran, and the rest of the graph is unaffected."""

    @staticmethod
    def build(rng, dead: bool):
        b = GraphBuilder("dead_branch")
        x = b.input("input", (None, 6))
        h = b.dense(x, rng.normal(size=(6, 4)).astype(np.float32),
                    name="fc")
        if dead:
            b.activation(x, "relu", name="unused")
        b.mark_output(b.softmax(h, name="probs"))
        return b.finish()

    def test_outputs_and_observers_unchanged(self, rng):
        graph = self.build(np.random.default_rng(5), dead=True)
        live = self.build(np.random.default_rng(5), dead=False)
        x = rng.normal(size=(3, 6)).astype(np.float32)
        interp = Interpreter(graph, device=PIXEL4_CPU)
        records = []
        interp.add_observer(records.append)
        out = interp.invoke(x)
        np.testing.assert_array_equal(
            out["probs"], Interpreter(live).invoke(x)["probs"])
        seen = {r.node.name: r.output for r in records}
        assert list(seen) == ["fc", "unused", "probs"]
        np.testing.assert_array_equal(seen["unused"], np.maximum(x, 0))

    def test_freed_after_producer_and_p002_clean(self, rng):
        graph = self.build(rng, dead=True)
        fc, unused = graph.node("fc"), graph.node("unused")
        plan = ExecutionPlan(graph, OpResolver())
        assert plan.frees == ((), ("input", unused.output), (fc.output,))
        report = lint_graph(graph, categories=("plan",), plan=plan)
        assert not report.diagnostics, report.render()


class TestStaleness:
    def test_register_after_invoke_recompiles(self, small_cnn, rng):
        resolver = OpResolver()
        interp = Interpreter(small_cnn, resolver)
        x = rng.normal(size=(1, 8, 8, 3)).astype(np.float32)
        interp.invoke(x)

        calls = []

        def spy_softmax(node, inputs, ctx):
            calls.append(node.name)
            from repro.kernels import softmax
            return softmax(inputs[0])

        resolver.register("softmax", False, spy_softmax)
        interp.invoke(x)
        assert calls == ["probs"]  # the late-registered kernel executed

    def test_stale_flag(self, small_cnn):
        resolver = OpResolver()
        plan = ExecutionPlan(small_cnn, resolver)
        assert not plan.stale()
        resolver.register("softmax", False, lambda n, i, c: i[0])
        assert plan.stale()

    def test_resolver_swap_rebinds_plan_and_ctx(self, small_cnn, rng):
        # Regression: plan.stale() compares the *plan's* resolver version
        # to itself, so assigning a new resolver after construction was
        # never detected — the old kernels (and the old ExecContext) kept
        # executing. The resolver property must invalidate both.
        interp = Interpreter(small_cnn)
        x = rng.normal(size=(1, 8, 8, 3)).astype(np.float32)
        interp.invoke(x)
        old_plan = interp.plan

        calls = []
        replacement = OpResolver()

        def spy_softmax(node, inputs, ctx):
            calls.append(node.name)
            assert ctx.resolver is replacement  # ctx rebuilt for the swap
            from repro.kernels import softmax
            return softmax(inputs[0])

        replacement.register("softmax", False, spy_softmax)
        interp.resolver = replacement
        assert interp.resolver is replacement
        interp.invoke(x)
        assert calls == ["probs"]  # the swapped-in resolver's kernel ran
        assert interp.plan is not old_plan
        assert interp.plan.resolver is replacement


class TestSeedParity:
    def test_small_cnn_float(self, small_cnn_mobile, rng, reference_invoke):
        x = rng.normal(size=(3, 8, 8, 3)).astype(np.float32)
        assert_invoke_parity(reference_invoke, small_cnn_mobile, x)

    def test_small_cnn_quantized(self, small_cnn_quantized, rng,
                                 reference_invoke):
        x = rng.normal(size=(3, 8, 8, 3)).astype(np.float32)
        assert_invoke_parity(reference_invoke, small_cnn_quantized, x)

    def test_wall_clock_mode_outputs_match(self, small_cnn, rng,
                                           reference_invoke):
        # No device: latency is wall-clock and cannot be compared, but
        # outputs and memory accounting still must match.
        x = rng.normal(size=(2, 8, 8, 3)).astype(np.float32)
        planned = Interpreter(small_cnn)
        ref = reference_invoke(small_cnn, OpResolver(), x)
        np.testing.assert_array_equal(
            planned.invoke_single(x), ref.outputs["probs"])
        assert planned.last_peak_activation_bytes == ref.peak_bytes

    @pytest.mark.parametrize("stage", ["mobile", "quantized"])
    def test_zoo_model_parity(self, stage, reference_invoke):
        from repro.zoo import eval_data, get_model
        graph = get_model("micro_mobilenet_v1", stage=stage)
        x, _ = eval_data("micro_mobilenet_v1", 4, "plan-parity")
        assert_invoke_parity(reference_invoke, graph,
                             np.asarray(x, dtype=np.float32))
