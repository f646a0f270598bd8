"""Pipeline tests: EdgeApp, preprocess overrides, reference construction."""

import numpy as np
import pytest

from repro.instrument import EdgeMLMonitor
from repro.pipelines import (
    EdgeApp,
    ImagePreprocessConfig,
    build_reference_app,
    make_preprocess,
)
from repro.util.errors import ValidationError


IMAGE_META = {
    "task": "classification",
    "image_preprocess": ImagePreprocessConfig((8, 8)).to_json(),
}
SPEECH_META = {
    "task": "speech",
    "spectrogram": {"frame_len": 256, "hop": 125, "num_bins": 64},
    "spectrogram_normalization": "global_db",
}


class TestMakePreprocess:
    def test_image_default(self, rng):
        fn = make_preprocess(IMAGE_META)
        sensor = rng.integers(0, 255, (2, 32, 32, 3)).astype(np.uint8)
        out = fn(sensor)
        assert out.shape == (2, 8, 8, 3) and out.dtype == np.float32

    def test_image_override_injects_bug(self, rng):
        sensor = rng.integers(0, 255, (2, 32, 32, 3)).astype(np.uint8)
        base = make_preprocess(IMAGE_META)(sensor)
        bgr = make_preprocess(IMAGE_META, {"channel_order": "bgr"})(sensor)
        np.testing.assert_allclose(bgr, base[..., ::-1], atol=1e-6)

    def test_speech_pipeline(self, rng):
        fn = make_preprocess(SPEECH_META)
        waves = rng.normal(size=(3, 4000)).astype(np.float32)
        out = fn(waves)
        assert out.shape == (3, 30, 64, 1)

    def test_speech_normalization_override(self, rng):
        waves = rng.normal(size=(2, 4000)).astype(np.float32)
        a = make_preprocess(SPEECH_META)(waves)
        b = make_preprocess(SPEECH_META,
                            {"spectrogram_normalization": "per_utterance"})(waves)
        assert not np.allclose(a, b)

    def test_text_passthrough(self):
        ids = np.array([[1, 2, 3]])
        np.testing.assert_array_equal(
            make_preprocess({"task": "text"})(ids), ids)

    def test_unknown_task_rejected(self):
        with pytest.raises(ValidationError):
            make_preprocess({"task": "smelling"})

    # Regression: overrides used to be silently dropped when the key was
    # missing from the recorded recipe, and unknown keys were ignored —
    # bug-injection experiments could silently run the *correct* pipeline.
    def test_override_applies_when_absent_from_recorded_recipe(self, rng):
        sparse_meta = {
            "task": "classification",
            # Recorded before rotation_k existed: the field is absent.
            "image_preprocess": {
                "target_size": [8, 8], "resize_method": "area",
                "channel_order": "rgb", "normalization": "[-1,1]",
            },
        }
        sensor = rng.integers(0, 255, (2, 32, 32, 3)).astype(np.uint8)
        base = make_preprocess(sparse_meta)(sensor)
        rotated = make_preprocess(sparse_meta, {"rotation_k": 1})(sensor)
        assert not np.allclose(base, rotated)

    def test_unknown_image_override_rejected(self):
        with pytest.raises(ValidationError, match="chanel_order"):
            make_preprocess(IMAGE_META, {"chanel_order": "bgr"})

    def test_unknown_speech_override_rejected(self):
        with pytest.raises(ValidationError, match="unrecognized"):
            make_preprocess(SPEECH_META, {"normalization": "[0,1]"})

    def test_text_override_rejected(self):
        with pytest.raises(ValidationError, match="unrecognized"):
            make_preprocess({"task": "text"}, {"lowercase": True})

    def test_speech_spectrogram_param_override(self, rng):
        waves = rng.normal(size=(2, 4000)).astype(np.float32)
        base = make_preprocess(SPEECH_META)(waves)
        wider_hop = make_preprocess(SPEECH_META, {"hop": 250})(waves)
        assert wider_hop.shape[1] < base.shape[1]  # fewer frames


class TestEdgeApp:
    def make_graph_with_meta(self, small_cnn_mobile):
        small_cnn_mobile.metadata["pipeline"] = IMAGE_META
        return small_cnn_mobile

    def test_run_logs_default_telemetry(self, small_cnn_mobile, rng):
        graph = self.make_graph_with_meta(small_cnn_mobile)
        app = EdgeApp(graph, device=None)
        sensor = rng.integers(0, 255, (3, 32, 32, 3)).astype(np.uint8)
        outputs = app.run(sensor, labels=np.array([0, 1, 2]))
        assert outputs.shape == (3, 4)
        log = app.log()
        assert len(log) == 3
        assert log.frames[0].tensor("model_input").shape == (8, 8, 3)
        assert log.frames[0].tensor("model_output").shape == (4,)
        assert log.frames[2].scalars["label"] == 2.0
        assert "capture_ms" in log.frames[0].sensors

    def test_run_batched_matches_run(self, small_cnn_mobile, rng):
        graph = self.make_graph_with_meta(small_cnn_mobile)
        sensor = rng.integers(0, 255, (4, 32, 32, 3)).astype(np.uint8)
        a = EdgeApp(graph, device=None).run(sensor)
        b = EdgeApp(graph, device=None).run_batched(sensor)
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-6)

    def test_log_raw_keeps_sensor_frame(self, small_cnn_mobile, rng):
        graph = self.make_graph_with_meta(small_cnn_mobile)
        app = EdgeApp(graph, device=None)
        sensor = rng.integers(0, 255, (2, 32, 32, 3)).astype(np.uint8)
        app.run(sensor, log_raw=True)
        np.testing.assert_array_equal(
            app.log().frames[0].tensor("sensor_frame"), sensor[0])

    def test_device_latency_in_log(self, small_cnn_mobile, rng):
        from repro.perfmodel import PIXEL4_CPU
        graph = self.make_graph_with_meta(small_cnn_mobile)
        app = EdgeApp(graph, device=PIXEL4_CPU)
        sensor = rng.integers(0, 255, (2, 32, 32, 3)).astype(np.uint8)
        app.run(sensor)
        lats = [f.latency_ms for f in app.log().frames]
        assert lats[0] == pytest.approx(lats[1])  # deterministic cost model


@pytest.mark.parametrize("stage", ["mobile", "quantized"])
def test_run_frames_match_an_independent_observer(stage):
    # run() shares its capture loop with replay(), so this holds its frames
    # to what a second observer of the same interpreter sees on each
    # batch-1 invoke, not to another capture implementation.
    from repro.zoo import get_model, playback_data
    model = "micro_mobilenet_v1"
    raw, labels = playback_data(model, 3, "observer")
    app = EdgeApp(get_model(model, stage))
    interp = app.interpreter
    layers, seen = {}, []
    interp.add_observer(
        lambda record: layers.__setitem__(record.node.name, record.latency_ms))
    invoke = interp.invoke

    def observed_invoke(feeds):
        out = invoke(feeds)
        assert interp.last_batch == 1
        seen.append((dict(layers), interp.last_latency_ms,
                     (interp.weights_bytes()
                      + interp.last_peak_activation_bytes) / 2**20))
        return out

    interp.invoke = observed_invoke
    app.run(raw, labels)
    frames = app.monitor.frames
    assert len(frames) == len(seen) == 3
    for frame, (layer_ms, latency_ms, memory_mb) in zip(frames, seen):
        assert frame.layer_latency_ms == layer_ms
        assert list(frame.layer_latency_ms) == list(layer_ms)
        assert frame.latency_ms == latency_ms
        assert frame.memory_mb == memory_mb


class TestReferenceApp:
    def test_built_from_metadata(self, small_cnn_mobile, rng):
        small_cnn_mobile.metadata["pipeline"] = IMAGE_META
        ref = build_reference_app(small_cnn_mobile)
        assert ref.monitor.name == "reference"
        assert ref.monitor.per_layer
        sensor = rng.integers(0, 255, (2, 32, 32, 3)).astype(np.uint8)
        ref.run(sensor)
        assert ref.log().layer_names()

    def test_requires_metadata_or_custom(self, small_cnn):
        small_cnn.metadata.pop("pipeline", None)
        with pytest.raises(ValidationError):
            build_reference_app(small_cnn)
