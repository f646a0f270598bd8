"""Offline replay: ``EdgeApp.replay`` writes the frames ``EdgeApp.run`` writes.

Replay runs ``REPLAY_BATCH`` frames per invoke and splits every layer
record into per-frame rows; these tests hold it to a one-frame-at-a-time
run byte for byte, across the chunk edges, both sinks, float and int8
stages, the reference resolver, a kernel-bug preset and the speech
pipeline. Only the measured fields (``wall_ms``, the ``capture_ms``
sensor reading) may differ.
"""

import pytest

from repro.instrument import DirectorySink, EdgeMLMonitor, EXrayLog
from repro.pipelines import EdgeApp, build_reference_app, make_preprocess
from repro.pipelines.edge import REPLAY_BATCH
from repro.runtime import Interpreter
from repro.runtime.resolver import make_resolver
from repro.util.errors import ValidationError
from repro.zoo import get_model, playback_data

MODEL = "micro_mobilenet_v1"


def assert_same_frames(run_frames, replay_frames):
    assert len(run_frames) == len(replay_frames)
    for a, b in zip(run_frames, replay_frames):
        assert a.step == b.step
        assert list(a.tensors) == list(b.tensors)
        for key, want in a.tensors.items():
            got = b.tensors[key]
            assert (got.dtype, got.shape) == (want.dtype, want.shape), key
            assert got.tobytes() == want.tobytes(), (a.step, key)
        assert b.latency_ms == a.latency_ms
        assert list(b.layer_latency_ms.items()) == list(a.layer_latency_ms.items())
        assert list(b.layer_ops.items()) == list(a.layer_ops.items())
        assert b.memory_mb == a.memory_mb
        assert b.scalars == a.scalars
        assert list(b.sensors) == list(a.sensors)
        assert b.sensor_only == a.sensor_only


def capture(how, n, model=MODEL, stage="mobile", resolver="optimized",
            kernel_bugs="none", overrides=None, sink=None):
    graph = get_model(model, stage)
    raw, labels = playback_data(model, n, "replay")
    preprocess = make_preprocess(graph.metadata["pipeline"], overrides) \
        if overrides else None
    app = EdgeApp(graph, preprocess=preprocess,
                  resolver=make_resolver(resolver, kernel_bugs),
                  monitor=EdgeMLMonitor("edge", per_layer=True, sink=sink))
    outputs = getattr(app, how)(raw, labels, log_raw=raw.ndim == 4)
    app.monitor.close()
    return outputs, app


def assert_replay_matches_run(n, **kwargs):
    ran, run_app = capture("run", n, **kwargs)
    replayed, replay_app = capture("replay", n, **kwargs)
    assert (replayed.dtype, replayed.shape) == (ran.dtype, ran.shape)
    assert replayed.tobytes() == ran.tobytes()
    assert_same_frames(run_app.monitor.frames, replay_app.monitor.frames)


@pytest.mark.parametrize("frames", [1, REPLAY_BATCH - 1, REPLAY_BATCH,
                                    REPLAY_BATCH + 1, REPLAY_BATCH * 3 // 2])
def test_float_replay_matches_run_at_chunk_edges(frames):
    assert_replay_matches_run(frames)


@pytest.mark.parametrize("case", [
    {"stage": "quantized"},
    {"stage": "quantized", "resolver": "reference"},
    {"stage": "quantized", "kernel_bugs": "paper-optimized"},
    {"stage": "mobile", "overrides": {"channel_order": "bgr"}},
    {"model": "speech_cnn_a",
     "overrides": {"spectrogram_normalization": "per_utterance"}},
], ids=["int8", "int8-reference", "int8-paper-optimized", "bgr",
        "speech-per-utterance"])
def test_replay_matches_run(case):
    assert_replay_matches_run(REPLAY_BATCH + 1, **case)


def test_directory_sink_logs_match(tmp_path):
    roots = {}
    for how in ("run", "replay"):
        roots[how] = tmp_path / how
        capture(how, REPLAY_BATCH + 1, stage="quantized",
                sink=DirectorySink(roots[how]))
    assert (roots["replay"] / "tensors.bin").read_bytes() \
        == (roots["run"] / "tensors.bin").read_bytes()
    assert_same_frames(EXrayLog.load(roots["run"]).frames,
                       EXrayLog.load(roots["replay"]).frames)


def test_reference_pipeline_replay_matches_run():
    raw, labels = playback_data(MODEL, REPLAY_BATCH + 1, "replay")
    apps = {}
    for how in ("run", "replay"):
        apps[how] = build_reference_app(get_model(MODEL, "mobile"))
        getattr(apps[how], how)(raw, labels)
    assert_same_frames(apps["run"].monitor.frames,
                       apps["replay"].monitor.frames)


def test_replay_wall_ms_is_the_batch_share():
    _, app = capture("replay", 3)
    walls = {frame.wall_ms for frame in app.monitor.frames}
    assert len(walls) == 1


class TestWindow:
    def test_window_needs_held_frames(self):
        interp = Interpreter(get_model(MODEL, "mobile"))
        monitor = EdgeMLMonitor(per_layer=True)
        monitor.attach(interp)
        with pytest.raises(ValidationError, match="hold"):
            with monitor.window(interp):
                pass

    def test_hold_inside_open_frame_rejected(self):
        monitor = EdgeMLMonitor()
        with monitor.frame():
            with pytest.raises(ValidationError):
                monitor.hold()

    def test_failed_window_discards_frames_and_reuses_steps(self):
        graph = get_model(MODEL, "mobile")
        x = make_preprocess(graph.metadata["pipeline"])(
            playback_data(MODEL, 2, "replay")[0])
        interp = Interpreter(graph)
        monitor = EdgeMLMonitor(per_layer=True)
        monitor.attach(interp)
        for _ in range(2):
            monitor.hold()
        with pytest.raises(RuntimeError):
            with monitor.window(interp):
                interp.invoke(x)
                raise RuntimeError("abort")
        assert monitor.num_frames == 0
        monitor.hold()
        with monitor.window(interp) as frames:
            interp.invoke(x[:1])
        assert [f.step for f in monitor.frames] == [0]
        assert frames[0].tensors["layer/probs"].shape == (1, 12)

    def test_window_rejects_rows_it_cannot_split(self):
        graph = get_model(MODEL, "mobile")
        x = make_preprocess(graph.metadata["pipeline"])(
            playback_data(MODEL, 3, "replay")[0])
        interp = Interpreter(graph)
        monitor = EdgeMLMonitor(per_layer=True)
        monitor.attach(interp)
        for _ in range(2):
            monitor.hold()
        with pytest.raises(ValidationError, match="cannot be split"):
            with monitor.window(interp):
                interp.invoke(x)
