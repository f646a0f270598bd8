"""Dataflow-engine tests: intervals, liveness, and verified arena layouts.

Coverage contract: the interval domain's algebra behaves (empty/point/inf
edge cases included), the forward analysis is *sound* against concrete
execution (property-tested: sampled inputs through the interpreter never
escape the derived intervals), graph liveness is anchored at the graph's
inputs and outputs, packed arenas pass the independent proof while a
deliberately-corrupted layout is rejected with named diagnostics, and the
whole report round-trips through its wire format.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis import (
    ANALYSIS_SCHEMA_VERSION,
    AnalysisReport,
    ArenaLayout,
    Interval,
    analyze_graph,
    analyze_ranges,
    default_input_ranges,
    liveness_from_graph,
    pack_arena,
    peak_live_bytes,
    verify_layout,
)
from repro.analysis.arena import ALIGNMENT
from repro.runtime.interpreter import Interpreter
from repro.runtime.plan import ExecutionPlan
from repro.runtime.resolver import OpResolver
from repro.util.errors import QuantizationError, ValidationError
from repro.zoo import get_model, list_models

from arena_faults import corrupt_layout_for_test

INF = float("inf")


class TestInterval:
    def test_constructors_and_predicates(self):
        assert Interval.top() == Interval(-INF, INF)
        assert Interval.empty().is_empty
        assert Interval.point(3.0).is_point
        assert not Interval.top().is_bounded
        assert Interval(1.0, 4.0).is_bounded
        assert Interval(1.0, 4.0).width == 3.0
        assert Interval.empty().width == 0.0

    def test_contains_with_tolerance(self):
        iv = Interval(0.0, 1.0)
        assert iv.contains(1.0) and not iv.contains(1.001)
        assert iv.contains(1.001, tol=0.01)
        assert not Interval.empty().contains(0.0)

    def test_hull_and_intersect(self):
        a, b = Interval(0.0, 2.0), Interval(1.0, 5.0)
        assert a.hull(b) == Interval(0.0, 5.0)
        assert a.intersect(b) == Interval(1.0, 2.0)
        assert a.hull(Interval.empty()) == a
        assert Interval(0.0, 1.0).intersect(Interval(2.0, 3.0)).is_empty

    def test_add_and_mul_sign_cases(self):
        assert Interval(1.0, 2.0).add(Interval(-1.0, 3.0)) == Interval(0.0, 5.0)
        assert Interval(-2.0, 3.0).mul(Interval(-1.0, 4.0)) \
            == Interval(-8.0, 12.0)
        assert Interval(1.0, 2.0).mul(Interval.empty()).is_empty
        assert Interval.empty().add(Interval(0.0, 1.0)).is_empty

    def test_zero_times_infinity_is_zero(self):
        # The interval-arithmetic convention, not the IEEE NaN.
        assert Interval.point(0.0).mul(Interval.top()) == Interval.point(0.0)
        assert Interval(0.0, 1.0).mul(Interval(0.0, INF)) == Interval(0.0, INF)

    def test_affine_negative_scale_swaps_bounds(self):
        assert Interval(1.0, 2.0).affine(-3.0, 1.0) == Interval(-5.0, -2.0)
        assert Interval.empty().affine(2.0, 0.0).is_empty

    def test_clamp(self):
        assert Interval(-10.0, 10.0).intersect(Interval(0.0, 6.0)) == \
            Interval(0.0, 6.0)

    def test_to_doc_maps_infinities_to_null(self):
        assert Interval(1.5, 2.5).to_doc() == [1.5, 2.5]
        assert Interval.top().to_doc() == [None, None]


# --------------------------------------------------------------------------
# Soundness property: concrete execution never escapes the derived ranges.
# --------------------------------------------------------------------------

def _assert_execution_within_ranges(graph, rng, frames=3, tol=1e-4):
    facts = analyze_ranges(graph)
    interp = Interpreter(graph)
    seen: dict[str, np.ndarray] = {}
    interp.add_observer(lambda rec: seen.__setitem__(rec.node.output,
                                                    rec.output))
    for _ in range(frames):
        feeds = {}
        for name in graph.inputs:
            spec = graph.spec(name)
            shape = tuple(2 if d is None else d for d in spec.shape)
            iv = facts.input_ranges[name]
            lo = iv.lo if math.isfinite(iv.lo) else -2.0
            hi = iv.hi if math.isfinite(iv.hi) else 2.0
            feeds[name] = rng.uniform(lo, hi, shape).astype(spec.dtype)
        seen.clear()
        seen.update(feeds)
        interp.invoke(feeds)
        for tensor, arr in seen.items():
            iv = facts.ranges[tensor]
            a = np.asarray(arr, dtype=np.float64)
            slack = tol * max(1.0, abs(a).max())
            assert iv.contains(float(a.min()), tol=slack) \
                and iv.contains(float(a.max()), tol=slack), (
                    f"{tensor}: concrete [{a.min()}, {a.max()}] escapes "
                    f"derived [{iv.lo}, {iv.hi}]")


class TestRangeSoundness:
    def test_float_mobile_graph(self, small_cnn_mobile, rng):
        _assert_execution_within_ranges(small_cnn_mobile, rng)

    def test_quantized_graph(self, small_cnn_quantized, rng):
        # Integer kernels are exact; no floating slack needed on codes.
        _assert_execution_within_ranges(small_cnn_quantized, rng, tol=0.0)

    def test_zoo_model_with_pipeline_metadata(self, rng):
        graph = get_model("micro_mobilenet_v1", stage="mobile")
        facts = analyze_ranges(graph)
        # The recorded [-1,1] image normalization seeds a bounded input...
        assert facts.input_ranges[graph.inputs[0]] == Interval(-1.0, 1.0)
        # ...and every derived activation interval is bounded from it.
        assert all(facts.ranges[t].is_bounded for t in graph.tensors)
        _assert_execution_within_ranges(graph, rng, frames=2)

    def test_quantized_accumulators_recorded_within_int32(
            self, small_cnn_quantized):
        facts = analyze_ranges(small_cnn_quantized)
        weighted = [n.name for n in small_cnn_quantized.nodes
                    if n.op in ("conv2d", "depthwise_conv2d", "dense")]
        assert set(facts.accumulators) == set(weighted)
        for name in weighted:
            acc = facts.accumulators[name]
            assert -(2 ** 31) <= acc.lo <= acc.hi <= 2 ** 31 - 1

    def test_calibration_hints_consistent_on_real_quantization(
            self, small_cnn_quantized):
        # The quantization pass records observed ranges; on an uncorrupted
        # graph they must not contradict the derived reachable intervals.
        assert small_cnn_quantized.metadata["calibration_ranges"]
        facts = analyze_ranges(small_cnn_quantized)
        assert facts.contradictions == []

    def test_unbounded_input_stays_sound_not_crashy(self, small_cnn_mobile):
        # No pipeline metadata on the hand-built graph: inputs seed top and
        # the analysis still terminates with sound (possibly infinite) bounds.
        facts = analyze_ranges(small_cnn_mobile)
        assert facts.input_ranges[small_cnn_mobile.inputs[0]] == Interval.top()
        probs = facts.ranges[small_cnn_mobile.outputs[0]]
        assert 0.0 <= probs.lo and probs.hi <= 1.0  # softmax clamps anyway


class TestLiveness:
    def test_graph_liveness_anchors(self, small_cnn_mobile):
        live = liveness_from_graph(small_cnn_mobile)
        n = len(small_cnn_mobile.nodes)
        for name in small_cnn_mobile.inputs:
            assert live[name].start == -1
        for name in small_cnn_mobile.outputs:
            assert live[name].end == n
        assert set(live) == set(small_cnn_mobile.tensors)
        assert all(r.start <= r.end and r.nbytes > 0 for r in live.values())

    def test_peak_is_between_largest_tensor_and_naive(self, small_cnn_mobile):
        live = liveness_from_graph(small_cnn_mobile)
        peak = peak_live_bytes(live)
        assert max(r.nbytes for r in live.values()) <= peak
        assert peak <= sum(r.nbytes for r in live.values())

    def test_batch_scales_live_bytes(self, small_cnn_mobile):
        one = liveness_from_graph(small_cnn_mobile, batch=1)
        four = liveness_from_graph(small_cnn_mobile, batch=4)
        assert all(four[t].nbytes == 4 * one[t].nbytes for t in one)


class TestArena:
    def test_packed_layout_verifies(self, small_cnn_mobile):
        layout = pack_arena(small_cnn_mobile)
        assert verify_layout(small_cnn_mobile, layout) == []
        assert layout.arena_bytes <= layout.naive_bytes
        assert all(slot.offset % ALIGNMENT == 0 for slot in layout.slots)

    def test_pack_from_plan_verifies_too(self, small_cnn_mobile):
        plan = ExecutionPlan(small_cnn_mobile, OpResolver())
        layout = pack_arena(small_cnn_mobile, plan)
        assert verify_layout(small_cnn_mobile, layout) == []

    def test_arena_at_least_peak_live(self, small_cnn_mobile):
        layout = pack_arena(small_cnn_mobile)
        peak = peak_live_bytes(liveness_from_graph(small_cnn_mobile))
        assert layout.arena_bytes >= peak

    def test_corrupted_layout_rejected_with_named_diagnostics(
            self, small_cnn_mobile):
        bad = corrupt_layout_for_test(pack_arena(small_cnn_mobile))
        problems = verify_layout(small_cnn_mobile, bad)
        assert problems
        assert all(d.rule_id == "A001" and d.severity == "error"
                   for d in problems)
        assert any("overlap" in d.message for d in problems)

    def test_layout_doc_round_trip(self, small_cnn_mobile):
        layout = pack_arena(small_cnn_mobile, batch=2)
        doc = layout.to_doc()
        assert doc["schema_version"] > 0
        back = ArenaLayout.from_doc(doc)
        assert back == layout

    @pytest.mark.parametrize("version", [1, 99])
    def test_layout_wrong_schema_version_rejected(self, small_cnn_mobile,
                                                  version):
        doc = pack_arena(small_cnn_mobile).to_doc()
        doc["schema_version"] = version
        with pytest.raises(ValidationError,
                           match=f"schema version {version}; only version "
                                 "2 is readable"):
            ArenaLayout.from_doc(doc)


class TestAnalysisReport:
    def test_report_round_trip(self, small_cnn_mobile):
        report = analyze_graph(small_cnn_mobile, arena=True, target="t:mobile")
        assert report.ok and report.arena_verified
        doc = report.to_doc()
        assert doc["schema_version"] == ANALYSIS_SCHEMA_VERSION
        assert doc["arena_verified"] is True
        back = AnalysisReport.from_doc(doc)
        assert back.to_doc() == doc

    def test_report_wrong_schema_version_rejected(self):
        with pytest.raises(ValidationError, match="schema version"):
            AnalysisReport.from_doc({"schema_version": 0, "target": "t",
                                     "graph": "g", "batch": 1})

    def test_render_shows_gantt_memory_and_verdict(self, small_cnn_mobile):
        text = analyze_graph(small_cnn_mobile, arena=True).render()
        assert "value ranges & liveness" in text
        assert "live ranges (step -1.." in text
        assert "naive (one buffer per tensor)" in text
        assert "packed arena" in text and "[VERIFIED]" in text

    def test_rejected_arena_renders_diagnostics_and_fails_ok(
            self, small_cnn_mobile):
        report = analyze_graph(small_cnn_mobile, arena=True)
        report.arena = corrupt_layout_for_test(report.arena)
        report.arena_diagnostics = verify_layout(small_cnn_mobile,
                                                 report.arena)
        assert not report.arena_verified and not report.ok
        assert "[REJECTED]" in report.render()


class TestZooArenas:
    @pytest.mark.parametrize("model", list_models())
    def test_mobile_arena_verified_and_below_naive(self, model):
        report = analyze_graph(get_model(model, stage="mobile"), arena=True,
                               target=f"{model}:mobile")
        assert report.ok and report.arena_verified
        assert report.arena.arena_bytes < report.naive_bytes

    @pytest.mark.parametrize("model", ["micro_mobilenet_v1", "speech_cnn_a"])
    def test_quantized_arena_verified_and_below_naive(self, model):
        report = analyze_graph(get_model(model, stage="quantized"),
                               arena=True, target=f"{model}:quantized")
        assert report.ok and report.arena_verified
        assert report.arena.arena_bytes < report.naive_bytes

    def test_unquantizable_stage_raises_the_usual_error(self):
        # The CLI maps this to exit 2 and CI records the stage as skipped.
        with pytest.raises(QuantizationError):
            get_model("nnlm_lite", stage="quantized")
