"""DebugSession tests: the Figure-2 flowchart end to end on a small model."""

import numpy as np
import pytest

from repro.instrument import EdgeMLMonitor
from repro.pipelines import EdgeApp, ImagePreprocessConfig
from repro.util.errors import AssertionFailure
from repro.validate import DebugSession, FunctionAssertion


def make_app(graph, preprocess, per_layer=True, resolver=None, name="edge"):
    return EdgeApp(
        graph,
        preprocess=preprocess,
        device=None,
        resolver=resolver,
        monitor=EdgeMLMonitor(name=name, per_layer=per_layer),
    )


@pytest.fixture
def sensor(rng):
    return rng.integers(0, 255, (12, 16, 16, 3)).astype(np.uint8)


@pytest.fixture
def correct_preprocess():
    return ImagePreprocessConfig((8, 8)).apply


def labels_from(graph, preprocess, sensor):
    """Use the model's own (float) predictions as labels so accuracy is 1.0
    on the clean pipeline by construction."""
    from repro.runtime import Interpreter
    out = Interpreter(graph).invoke_single(preprocess(sensor))
    return out.argmax(axis=1)


class TestHealthyPath:
    def test_no_issues_on_identical_pipelines(self, small_cnn_mobile, sensor,
                                              correct_preprocess):
        labels = labels_from(small_cnn_mobile, correct_preprocess, sensor)
        edge = make_app(small_cnn_mobile, correct_preprocess)
        edge.run(sensor, labels)
        ref = make_app(small_cnn_mobile, correct_preprocess, name="reference")
        ref.run(sensor, labels)
        report = DebugSession(edge.log(), ref.log()).run()
        assert report.healthy
        assert not report.accuracy.degraded
        assert report.assertions == []  # flowchart short-circuits when healthy

    def test_always_run_assertions(self, small_cnn_mobile, sensor,
                                   correct_preprocess):
        labels = labels_from(small_cnn_mobile, correct_preprocess, sensor)
        edge = make_app(small_cnn_mobile, correct_preprocess)
        edge.run(sensor, labels)
        ref = make_app(small_cnn_mobile, correct_preprocess, name="reference")
        ref.run(sensor, labels)
        report = DebugSession(edge.log(), ref.log()).run(
            always_run_assertions=True)
        # Correctness assertions must pass on identical pipelines. (The
        # straggler check may legitimately fire: a tiny model's depthwise
        # conv genuinely dominates its latency profile.)
        correctness = [a for a in report.assertions
                       if a.check != "per_layer_latency"]
        assert correctness and all(a.passed for a in correctness)


class TestBuggyPath:
    def test_channel_bug_diagnosed(self, small_cnn_mobile, sensor,
                                   correct_preprocess):
        labels = labels_from(small_cnn_mobile, correct_preprocess, sensor)
        buggy = ImagePreprocessConfig((8, 8), channel_order="bgr").apply
        edge = make_app(small_cnn_mobile, buggy)
        edge.run(sensor, labels)
        ref = make_app(small_cnn_mobile, correct_preprocess, name="reference")
        ref.run(sensor, labels)
        report = DebugSession(edge.log(), ref.log()).run(
            always_run_assertions=True)
        failures = {a.check: a for a in report.issues}
        assert "channel_arrangement" in failures
        assert failures["channel_arrangement"].diagnosis == "BGR->RGB"

    def test_normalization_bug_diagnosed(self, small_cnn_mobile, sensor,
                                         correct_preprocess):
        labels = labels_from(small_cnn_mobile, correct_preprocess, sensor)
        buggy = ImagePreprocessConfig((8, 8), normalization="[0,1]").apply
        edge = make_app(small_cnn_mobile, buggy)
        edge.run(sensor, labels)
        ref = make_app(small_cnn_mobile, correct_preprocess, name="reference")
        ref.run(sensor, labels)
        report = DebugSession(edge.log(), ref.log()).run(
            always_run_assertions=True)
        checks = {a.check for a in report.issues}
        assert "normalization_range" in checks

    def test_kernel_bug_localized_per_layer(self, small_cnn_quantized,
                                            small_cnn_mobile, sensor,
                                            correct_preprocess):
        from repro.kernels.quantized import PAPER_OPTIMIZED_BUGS
        from repro.runtime import OpResolver
        labels = labels_from(small_cnn_mobile, correct_preprocess, sensor)
        edge = make_app(small_cnn_quantized, correct_preprocess,
                        resolver=OpResolver(bugs=PAPER_OPTIMIZED_BUGS))
        edge.run(sensor, labels)
        ref = make_app(small_cnn_mobile, correct_preprocess, name="reference")
        ref.run(sensor, labels)
        report = DebugSession(edge.log(), ref.log()).run(
            always_run_assertions=True)
        assert report.layer_diffs  # per-layer stage ran
        dw_diff = next(d for d in report.layer_diffs if d.op == "depthwise_conv2d")
        early = [d for d in report.layer_diffs if d.index < dw_diff.index]
        assert all(d.error < dw_diff.error for d in early)

    def test_custom_assertion_runs(self, small_cnn_mobile, sensor,
                                   correct_preprocess):
        labels = labels_from(small_cnn_mobile, correct_preprocess, sensor)
        edge = make_app(small_cnn_mobile, correct_preprocess)
        edge.run(sensor, labels)
        ref = make_app(small_cnn_mobile, correct_preprocess, name="reference")
        ref.run(sensor, labels)

        def lane_distance(ctx):
            raise AssertionFailure("lane_distance", "lane offset 14px > 5px")

        report = DebugSession(edge.log(), ref.log()).run(
            assertions=[lane_distance], always_run_assertions=True)
        assert any(a.check == "lane_distance" and not a.passed
                   for a in report.assertions)


class TestReportRendering:
    def test_render_mentions_verdict(self, small_cnn_mobile, sensor,
                                     correct_preprocess):
        labels = labels_from(small_cnn_mobile, correct_preprocess, sensor)
        edge = make_app(small_cnn_mobile, correct_preprocess)
        edge.run(sensor, labels)
        ref = make_app(small_cnn_mobile, correct_preprocess, name="reference")
        ref.run(sensor, labels)
        text = DebugSession(edge.log(), ref.log()).run().render()
        assert "verdict" in text and "accuracy" in text

    def test_render_lists_flagged_layers(self, small_cnn_quantized,
                                         small_cnn_mobile, sensor,
                                         correct_preprocess, rng):
        from repro.kernels.quantized import PAPER_OPTIMIZED_BUGS
        from repro.runtime import OpResolver
        labels = rng.integers(0, 4, len(sensor))
        edge = make_app(small_cnn_quantized, correct_preprocess,
                        resolver=OpResolver(bugs=PAPER_OPTIMIZED_BUGS))
        edge.run(sensor, labels)
        ref = make_app(small_cnn_mobile, correct_preprocess, name="reference")
        ref.run(sensor, labels)
        report = DebugSession(edge.log(), ref.log()).run(
            always_run_assertions=True)
        # The optimized-kernel bugs corrupt the depthwise conv: its nrMSE
        # jumps past 0.1 from a clean stem, so it is flagged and tabled.
        assert [d.layer for d in report.flagged_layers] == ["dw_act"]
        assert report.flagged_layers[0].error > 0.1
        lines = report.render().splitlines()
        table = lines.index("per-layer discrepancies (drift jumps):")
        assert "nrMSE" in lines[table + 1]
        row = [cell.strip() for cell in lines[table + 3].split(" | ")]
        assert row[1:3] == ["dw_act", "depthwise_conv2d"]
