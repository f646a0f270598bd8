"""Instrumentation tests: monitor lifecycle, per-layer capture, log store."""

import numpy as np
import pytest

from repro.instrument import (
    DirectorySink,
    EXrayLog,
    EdgeMLMonitor,
    MLEXray,
    save_log,
)
from repro.runtime import Interpreter
from repro.util.errors import ValidationError


def run_frames(graph, monitor, x_frames):
    interp = Interpreter(graph)
    monitor.attach(interp)
    for i in range(len(x_frames)):
        monitor.on_inf_start()
        interp.invoke(x_frames[i:i + 1])
        monitor.on_inf_stop(interp)
    return interp


class TestMonitorLifecycle:
    def test_paper_api_names(self):
        assert MLEXray is EdgeMLMonitor  # MLEXray.on_inf_start() reads as in §3.2

    def test_frames_recorded(self, small_cnn, rng):
        monitor = EdgeMLMonitor()
        run_frames(small_cnn, monitor, rng.normal(size=(3, 8, 8, 3)).astype(np.float32))
        assert len(monitor.frames) == 3
        assert [f.step for f in monitor.frames] == [0, 1, 2]

    def test_double_start_rejected(self):
        monitor = EdgeMLMonitor()
        monitor.on_inf_start()
        with pytest.raises(ValidationError):
            monitor.on_inf_start()

    def test_stop_without_start_rejected(self):
        with pytest.raises(ValidationError):
            EdgeMLMonitor().on_inf_stop()

    def test_lazy_frame_adopted_by_start(self):
        monitor = EdgeMLMonitor()
        monitor.log("early", 1.0)      # opens frame lazily
        monitor.on_inf_start()          # adopts it
        monitor.on_inf_stop()
        assert monitor.frames[0].scalars["early"] == 1.0

    def test_sensor_markers(self, small_cnn, rng):
        monitor = EdgeMLMonitor()
        monitor.on_sensor_start()
        monitor.on_sensor_stop()
        monitor.on_inf_start()
        monitor.on_inf_stop()
        assert "capture_ms" in monitor.frames[0].sensors

    def test_sensor_stop_without_start_rejected(self):
        with pytest.raises(ValidationError):
            EdgeMLMonitor().on_sensor_stop()

    # Regression: a lazily-opened frame with no following on_inf_stop used
    # to vanish — trailing sensor-only logs were silently lost.
    def test_flush_closes_trailing_lazy_frame(self):
        monitor = EdgeMLMonitor()
        monitor.log_sensor("orientation", 90)
        assert not monitor.frames
        frame = monitor.flush()
        assert frame is not None and len(monitor.frames) == 1
        assert monitor.frames[0].sensors["orientation"] == 90

    def test_flush_noop_without_pending_frame(self):
        monitor = EdgeMLMonitor()
        assert monitor.flush() is None and not monitor.frames

    def test_flush_leaves_inflight_inference_frame(self, small_cnn, rng):
        monitor = EdgeMLMonitor()
        monitor.on_inf_start()          # explicit window, not a lazy frame
        assert monitor.flush() is None
        monitor.on_inf_stop()           # still closable normally
        assert len(monitor.frames) == 1

    def test_flushed_frame_advances_step(self, small_cnn, rng):
        monitor = EdgeMLMonitor()
        run_frames(small_cnn, monitor, rng.normal(size=(1, 8, 8, 3)).astype(np.float32))
        monitor.log_sensor("trailing", 1)
        monitor.flush()
        assert [f.step for f in monitor.frames] == [0, 1]
        monitor.on_inf_start()
        monitor.on_inf_stop()
        assert monitor.frames[-1].step == 2

    def test_latency_from_interpreter(self, small_cnn, rng):
        from repro.perfmodel import PIXEL4_CPU
        monitor = EdgeMLMonitor()
        interp = Interpreter(small_cnn, device=PIXEL4_CPU)
        monitor.attach(interp)
        monitor.on_inf_start()
        interp.invoke(rng.normal(size=(1, 8, 8, 3)).astype(np.float32))
        frame = monitor.on_inf_stop(interp)
        assert frame.latency_ms == pytest.approx(interp.last_latency_ms)
        assert frame.memory_mb > 0


class TestCustomLogging:
    def test_log_tensor_scalar_other(self):
        monitor = EdgeMLMonitor()
        monitor.on_inf_start()
        monitor.log("t", np.ones(3))
        monitor.log("s", 2.5)
        monitor.log("o", "landscape")
        monitor.on_inf_stop()
        frame = monitor.frames[0]
        assert "t" in frame.tensors and frame.scalars["s"] == 2.5
        assert frame.sensors["o"] == "landscape"

    def test_log_copies_tensor(self):
        monitor = EdgeMLMonitor()
        monitor.on_inf_start()
        arr = np.zeros(3)
        monitor.log("t", arr)
        arr[:] = 9
        monitor.on_inf_stop()
        np.testing.assert_array_equal(monitor.frames[0].tensors["t"], 0)

    def test_wrap_logs_in_and_out(self):
        monitor = EdgeMLMonitor()
        fn = monitor.wrap("resize", lambda x: x * 2)
        monitor.on_inf_start()
        out = fn(np.ones(2))
        monitor.on_inf_stop()
        frame = monitor.frames[0]
        np.testing.assert_array_equal(frame.tensors["resize/in"], 1)
        np.testing.assert_array_equal(frame.tensors["resize/out"], 2)
        np.testing.assert_array_equal(out, 2)


class TestPerLayerCapture:
    def test_default_logs_skip_layer_tensors(self, small_cnn, rng):
        monitor = EdgeMLMonitor(per_layer=False)
        run_frames(small_cnn, monitor, rng.normal(size=(1, 8, 8, 3)).astype(np.float32))
        frame = monitor.frames[0]
        assert not any(k.startswith("layer/") for k in frame.tensors)
        assert len(frame.layer_latency_ms) == len(small_cnn.nodes)

    def test_per_layer_tensors_captured(self, small_cnn, rng):
        monitor = EdgeMLMonitor(per_layer=True)
        interp = run_frames(small_cnn, monitor,
                            rng.normal(size=(1, 8, 8, 3)).astype(np.float32))
        frame = monitor.frames[0]
        for node in small_cnn.nodes:
            assert f"layer/{node.name}" in frame.tensors

    def test_quantized_layers_dequantized(self, small_cnn_quantized, rng):
        monitor = EdgeMLMonitor(per_layer=True)
        run_frames(small_cnn_quantized, monitor,
                   rng.normal(size=(1, 8, 8, 3)).astype(np.float32))
        layer = monitor.frames[0].tensors["layer/stem_act"]
        assert layer.dtype == np.float32  # comparable against float reference

    def test_raw_quantized_option(self, small_cnn_quantized, rng):
        monitor = EdgeMLMonitor(per_layer=True, dequantize_layers=False)
        run_frames(small_cnn_quantized, monitor,
                   rng.normal(size=(1, 8, 8, 3)).astype(np.float32))
        assert monitor.frames[0].tensors["layer/stem_act"].dtype == np.int8

    def test_overhead_tracked(self, small_cnn, rng):
        monitor = EdgeMLMonitor(per_layer=True)
        run_frames(small_cnn, monitor, rng.normal(size=(2, 8, 8, 3)).astype(np.float32))
        assert monitor.monitor_overhead_ms > 0

    def test_summary(self, small_cnn, rng):
        monitor = EdgeMLMonitor()
        run_frames(small_cnn, monitor, rng.normal(size=(4, 8, 8, 3)).astype(np.float32))
        summary = monitor.summary()
        assert summary["num_frames"] == 4
        assert summary["mean_latency_ms"] > 0

    def test_summary_empty_rejected(self):
        with pytest.raises(ValidationError):
            EdgeMLMonitor().summary()


class TestLogStore:
    def test_save_load_roundtrip(self, small_cnn, rng, tmp_path):
        monitor = EdgeMLMonitor(per_layer=True)
        monitor_dir = tmp_path / "log"
        run_frames(small_cnn, monitor, rng.normal(size=(2, 8, 8, 3)).astype(np.float32))
        monitor.frames[0].scalars["label"] = 3.0
        nbytes = save_log(monitor, monitor_dir)
        assert nbytes > 0
        log = EXrayLog.load(monitor_dir)
        assert len(log) == 2
        assert log.frames[0].scalars["label"] == 3.0
        np.testing.assert_array_equal(
            log.frames[1].tensors["layer/probs"],
            monitor.frames[1].tensors["layer/probs"])
        assert log.log_bytes == nbytes

    def test_load_missing_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            EXrayLog.load(tmp_path / "nope")

    def test_save_log_flushes_trailing_frame(self, small_cnn, rng, tmp_path):
        monitor = EdgeMLMonitor()
        run_frames(small_cnn, monitor, rng.normal(size=(1, 8, 8, 3)).astype(np.float32))
        monitor.log_sensor("battery", 0.5)     # trailing sensor-only log
        save_log(monitor, tmp_path / "log")
        log = EXrayLog.load(tmp_path / "log")
        assert len(log) == 2
        assert log.frames[1].sensors["battery"] == 0.5

    def test_from_monitor_flushes_trailing_frame(self, small_cnn, rng):
        monitor = EdgeMLMonitor()
        run_frames(small_cnn, monitor, rng.normal(size=(1, 8, 8, 3)).astype(np.float32))
        monitor.log("trailing_tensor", np.ones(2))
        log = EXrayLog.from_monitor(monitor)
        assert len(log) == 2
        np.testing.assert_array_equal(log.frames[1].tensors["trailing_tensor"], 1)

    def test_from_monitor_view(self, small_cnn, rng):
        monitor = EdgeMLMonitor(per_layer=True)
        run_frames(small_cnn, monitor, rng.normal(size=(1, 8, 8, 3)).astype(np.float32))
        log = EXrayLog.from_monitor(monitor)
        assert log.layer_names() == [n.name for n in small_cnn.nodes]

    def test_stacked_series(self, small_cnn, rng):
        monitor = EdgeMLMonitor()
        interp = Interpreter(small_cnn)
        monitor.attach(interp)
        for i in range(3):
            monitor.on_inf_start()
            out = interp.invoke(rng.normal(size=(1, 8, 8, 3)).astype(np.float32))
            monitor.on_inf_stop(interp)
            monitor.frames[-1].tensors["model_output"] = next(iter(out.values()))[0]
        log = EXrayLog.from_monitor(monitor)
        assert log.stacked("model_output").shape == (3, 4)

    @pytest.mark.parametrize("backing", ["memory", "directory"])
    @pytest.mark.parametrize("changed", [np.zeros(2, np.int8),
                                         np.zeros(3, np.float32)],
                             ids=["dtype", "shape"])
    def test_stack_frames_rejects_key_changing_across_frames(
            self, backing, changed, tmp_path):
        sink = DirectorySink(tmp_path / "log") if backing == "directory" \
            else None
        monitor = EdgeMLMonitor(sink=sink)
        for array in (np.ones(2, np.float32), changed):
            with monitor.frame() as frame:
                frame.tensors["x"] = array
        if sink is None:
            log = EXrayLog.from_monitor(monitor)
        else:
            monitor.close()
            log = EXrayLog.load(tmp_path / "log")
        with pytest.raises(ValidationError) as err:
            log.stack_frames({"x"})
        message = str(err.value)
        assert "'x'" in message
        assert f"{changed.dtype}{list(changed.shape)} in frame 1" in message
        assert "float32[2] in frame 0" in message

    def test_layer_latency_by_type(self, small_cnn, rng):
        monitor = EdgeMLMonitor()
        run_frames(small_cnn, monitor, rng.normal(size=(2, 8, 8, 3)).astype(np.float32))
        by_type = EXrayLog.from_monitor(monitor).layer_latency_by_type()
        assert "conv2d" in by_type and "softmax" in by_type

    def test_missing_tensor_key_error_lists_available(self, small_cnn, rng):
        monitor = EdgeMLMonitor()
        run_frames(small_cnn, monitor, rng.normal(size=(1, 8, 8, 3)).astype(np.float32))
        with pytest.raises(KeyError, match="available"):
            monitor.frames[0].tensor("nope")


class _CountingReads:
    """File wrapper recording the size of every read() it serves."""

    def __init__(self, handle):
        self._handle = handle
        self.read_sizes = []

    def read(self, size=-1):
        data = self._handle.read(size)
        self.read_sizes.append(len(data))
        return data

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()


class TestFileDigestChunking:
    """Pin that ``file_digest`` streams in bounded chunks.

    Artifact verification hashes multi-GB tensor shards on coordinator
    and worker alike; a regression to ``read()``-the-whole-file would be
    invisible to every digest-equality test and only show up as fleet
    OOMs, so the bound is asserted directly through the
    ``_open_for_hash`` seam.
    """

    def test_reads_bounded_and_digest_unchanged(self, tmp_path, monkeypatch):
        from repro.instrument import store

        path = tmp_path / "big.bin"
        payload = bytes(range(256)) * (4 * 4096 + 13)  # ~4 MiB, not aligned
        path.write_bytes(payload)
        expected = store.file_digest(path)

        wrappers = []

        def counting_open(p):
            wrapper = _CountingReads(p.open("rb"))
            wrappers.append(wrapper)
            return wrapper

        monkeypatch.setattr(store, "_open_for_hash", counting_open)
        assert store.file_digest(path) == expected
        assert len(wrappers) == 1
        sizes = wrappers[0].read_sizes
        assert len(sizes) > 3  # actually streamed, not one gulp
        assert max(sizes) <= store.HASH_CHUNK_BYTES
        assert sum(sizes) == len(payload)

    def test_log_digest_uses_the_same_bounded_reader(self, tmp_path,
                                                     monkeypatch):
        from repro.instrument import store

        root = tmp_path / "log"
        root.mkdir()
        (root / "meta.json").write_text("{}")
        (root / "tensors.bin").write_bytes(b"\x01" * (2 * store.HASH_CHUNK_BYTES + 7))
        expected = store.log_digest(root)

        sizes = []

        def counting_open(p):
            wrapper = _CountingReads(p.open("rb"))
            sizes.append(wrapper.read_sizes)
            return wrapper

        monkeypatch.setattr(store, "_open_for_hash", counting_open)
        assert store.log_digest(root) == expected
        assert all(max(s) <= store.HASH_CHUNK_BYTES for s in sizes if s)
