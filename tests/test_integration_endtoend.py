"""Integration: the complete Figure-1 story on trained zoo models.

Instrumented buggy edge app -> played-back data -> reference pipeline ->
DebugSession -> correct root-cause diagnosis. This is the paper's headline
workflow executed end to end.
"""

import numpy as np
import pytest

from repro import (
    MLEXray,
    EdgeApp,
    DebugSession,
    OpResolver,
    ReferenceOpResolver,
    PAPER_OPTIMIZED_BUGS,
    PAPER_REFERENCE_BUGS,
)
from repro.instrument import EXrayLog, save_log
from repro.pipelines import build_reference_app, make_preprocess
from repro.runtime import Interpreter
from repro.validate import per_layer_diff
from repro.zoo import eval_data, get_model
from repro.zoo.registry import image_dataset


@pytest.fixture(scope="module")
def demo_data():
    return image_dataset().sample(20, "integration")


@pytest.fixture(scope="module")
def v2_mobile():
    return get_model("micro_mobilenet_v2", "mobile")


@pytest.fixture(scope="module")
def v2_quant():
    return get_model("micro_mobilenet_v2", "quantized")


class TestChannelBugStory:
    def test_bgr_bug_caught_and_diagnosed(self, demo_data, v2_mobile):
        sensor, labels = demo_data
        buggy = make_preprocess(v2_mobile.metadata["pipeline"],
                                {"channel_order": "bgr"})
        edge = EdgeApp(v2_mobile, preprocess=buggy,
                       monitor=MLEXray("edge", per_layer=True))
        edge.run(sensor, labels)
        ref = build_reference_app(v2_mobile)
        ref.run(sensor, labels)
        report = DebugSession(edge.log(), ref.log()).run()
        assert report.accuracy.degraded
        assert any(a.diagnosis == "BGR->RGB" for a in report.issues)

    def test_clean_pipeline_healthy(self, demo_data, v2_mobile):
        sensor, labels = demo_data
        edge = EdgeApp(v2_mobile, monitor=MLEXray("edge", per_layer=True))
        edge.run(sensor, labels)
        ref = build_reference_app(v2_mobile)
        ref.run(sensor, labels)
        report = DebugSession(edge.log(), ref.log()).run()
        assert not report.accuracy.degraded


class TestQuantizationBugStory:
    def test_dwconv_bug_localized_to_layer2(self, demo_data, v2_mobile,
                                            v2_quant):
        """Figure 6 (left): the rMSE jump lands on the 2nd layer, a dwconv."""
        sensor, labels = demo_data
        edge = EdgeApp(v2_quant, resolver=OpResolver(bugs=PAPER_OPTIMIZED_BUGS),
                       monitor=MLEXray("edge", per_layer=True))
        edge.run(sensor, labels)
        ref = build_reference_app(v2_mobile)
        ref.run(sensor, labels)
        report = DebugSession(edge.log(), ref.log()).run()
        assert report.accuracy.degraded
        assert report.flagged_layers
        first = report.flagged_layers[0]
        assert first.op == "depthwise_conv2d"
        assert first.index == 1  # second layer
        quant_issue = [a for a in report.issues
                       if a.check == "quantization_health"]
        assert quant_issue and "depthwise_conv2d" in quant_issue[0].diagnosis

    def test_v3_avgpool_bug_constant_output(self):
        """Figure 5: quantized v3 under the reference resolver -> constant
        output, accuracy at chance."""
        quant3 = get_model("micro_mobilenet_v3", "quantized")
        x, labels = eval_data("micro_mobilenet_v3", 96)
        out = Interpreter(
            quant3, ReferenceOpResolver(bugs=PAPER_REFERENCE_BUGS)
        ).invoke_single(x)
        assert np.ptp(out, axis=0).max() < 1e-6  # constant output
        acc = (out.argmax(1) == labels).mean()
        assert acc < 0.2  # ~chance on 12 classes

    def test_v3_rmse_peaks_at_avgpool_layers(self, demo_data):
        """Figure 6 (right): nrMSE peaks at the SE average-pool layers."""
        sensor, labels = demo_data
        quant3 = get_model("micro_mobilenet_v3", "quantized")
        mobile3 = get_model("micro_mobilenet_v3", "mobile")
        edge = EdgeApp(quant3,
                       resolver=ReferenceOpResolver(bugs=PAPER_REFERENCE_BUGS),
                       monitor=MLEXray("edge", per_layer=True))
        edge.run(sensor[:8], labels[:8])
        ref = build_reference_app(mobile3)
        ref.run(sensor[:8], labels[:8])
        diffs = per_layer_diff(edge.log(), ref.log())
        pool_errors = [d.error for d in diffs if d.op == "avg_pool2d"]
        other_errors = [d.error for d in diffs
                        if d.op != "avg_pool2d"
                        and d.index < min(i.index for i in diffs
                                          if i.op == "avg_pool2d")]
        assert max(pool_errors) > 0.3
        assert max(pool_errors) > 3 * max(other_errors)


class TestPlaybackParity:
    def test_edge_and_reference_see_identical_bytes(self, demo_data,
                                                    v2_mobile):
        sensor, _ = demo_data
        edge = EdgeApp(v2_mobile, monitor=MLEXray("edge"))
        edge.run(sensor[:4])
        ref = build_reference_app(v2_mobile)
        ref.run(sensor[:4])
        for i in range(4):
            np.testing.assert_array_equal(
                edge.log().frames[i].tensor("model_input"),
                ref.log().frames[i].tensor("model_input"))


class TestLogPersistenceFlow:
    def test_offline_validation_from_disk(self, demo_data, v2_mobile, tmp_path):
        """Logs survive the disk round-trip and validate identically —
        the paper's offline-validation mode."""
        sensor, labels = demo_data
        edge = EdgeApp(v2_mobile,
                       preprocess=make_preprocess(
                           v2_mobile.metadata["pipeline"],
                           {"rotation_k": 1}),
                       monitor=MLEXray("edge", per_layer=True))
        edge.run(sensor, labels)
        ref = build_reference_app(v2_mobile)
        ref.run(sensor, labels)
        save_log(edge.monitor, tmp_path / "edge")
        save_log(ref.monitor, tmp_path / "ref")
        report = DebugSession(EXrayLog.load(tmp_path / "edge"),
                              EXrayLog.load(tmp_path / "ref")).run()
        assert any(a.check == "orientation" and not a.passed
                   for a in report.assertions)
