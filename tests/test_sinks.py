"""Streaming-instrumentation tests: sinks, frame scopes, lazy log readers.

Covers the LogSink redesign: MemorySink parity with the buffered monitor,
DirectorySink incremental streaming (O(1) resident frames, mid-stream
readability, v2 layout), RingBufferSink bounded always-on mode, TeeSink
fan-out, the ``with monitor.frame(...)`` scope, lazy ``EXrayLog`` readers,
and the save/load canonicalization + format-version guarantees.
"""

import gc
import json
import weakref

import numpy as np
import pytest

from repro.instrument import (
    DirectorySink,
    EXrayLog,
    EdgeMLMonitor,
    MemorySink,
    RingBufferSink,
    TeeSink,
    save_log,
)
from repro.runtime import Interpreter
from repro.util.errors import ValidationError
from repro.validate.layerdiff import per_layer_diff
from repro.validate.session import DebugSession


def stream_frames(graph, monitor, x_frames, scale=1.0):
    """Drive `len(x_frames)` instrumented inferences through a monitor."""
    interp = Interpreter(graph)
    monitor.attach(interp)
    for i in range(len(x_frames)):
        monitor.log("model_input", x_frames[i] * scale)
        with monitor.frame(interp) as frame:
            out = interp.invoke(x_frames[i:i + 1] * scale)
            frame.tensors["model_output"] = next(iter(out.values()))[0]
    return interp


@pytest.fixture
def x_frames(rng):
    return rng.normal(size=(4, 8, 8, 3)).astype(np.float32)


class TestMemorySink:
    def test_default_sink_is_memory(self):
        assert isinstance(EdgeMLMonitor().sink, MemorySink)

    def test_frames_property_is_live_view(self, small_cnn, x_frames):
        monitor = EdgeMLMonitor(sink=MemorySink())
        stream_frames(small_cnn, monitor, x_frames)
        assert monitor.frames is monitor.sink.frames
        assert [f.step for f in monitor.frames] == [0, 1, 2, 3]

    def test_from_monitor_is_zero_copy(self, small_cnn, x_frames):
        monitor = EdgeMLMonitor()
        stream_frames(small_cnn, monitor, x_frames)
        log = EXrayLog.from_monitor(monitor)
        assert log.frames is monitor.sink.frames


class TestFrameScope:
    def test_frame_scope_emits_on_exit(self, small_cnn, x_frames):
        monitor = EdgeMLMonitor()
        stream_frames(small_cnn, monitor, x_frames[:1])
        frame = monitor.frames[0]
        assert "model_output" in frame.tensors
        assert "model_input" in frame.tensors  # lazy frame adopted
        assert frame.latency_ms > 0

    def test_frame_scope_discards_on_exception(self, small_cnn):
        monitor = EdgeMLMonitor()
        with pytest.raises(RuntimeError):
            with monitor.frame():
                raise RuntimeError("inference blew up")
        assert monitor.num_frames == 0
        # The monitor is reusable after the aborted frame.
        with monitor.frame():
            pass
        assert monitor.num_frames == 1

    def test_nested_frame_rejected(self):
        monitor = EdgeMLMonitor()
        with pytest.raises(ValidationError):
            with monitor.frame():
                monitor.on_inf_start()


class TestDetach:
    def test_detach_unattached_raises_validation_error(self, small_cnn):
        monitor = EdgeMLMonitor()
        interp = Interpreter(small_cnn)
        with pytest.raises(ValidationError, match="not attached"):
            monitor.detach(interp)

    def test_failed_detach_leaves_observers_untouched(self, small_cnn, x_frames):
        monitor = EdgeMLMonitor()
        stranger = Interpreter(small_cnn)
        interp = stream_frames(small_cnn, monitor, x_frames[:1])
        with pytest.raises(ValidationError):
            monitor.detach(stranger)
        # The attached interpreter still reports into the monitor.
        with monitor.frame(interp):
            interp.invoke(x_frames[:1])
        assert monitor.frames[-1].layer_latency_ms
        monitor.detach(interp)  # the real attachment detaches cleanly
        with monitor.frame(interp):
            interp.invoke(x_frames[:1])
        assert not monitor.frames[-1].layer_latency_ms


class TestSummary:
    def test_sensor_only_frames_excluded_from_latency(self, small_cnn, x_frames):
        monitor = EdgeMLMonitor()
        stream_frames(small_cnn, monitor, x_frames)
        monitor.log_sensor("battery", 0.4)   # trailing sensor-only frame
        monitor.flush()
        summary = monitor.summary()
        assert summary["num_frames"] == 5
        assert summary["sensor_only_frames"] == 1
        # The flushed frame's placeholder zero latency must not drag the
        # mean: it equals the mean over the four inference frames alone.
        lat = [f.latency_ms for f in monitor.frames if not f.sensor_only]
        assert summary["mean_latency_ms"] == pytest.approx(np.mean(lat))
        assert summary["mean_wall_ms"] == pytest.approx(
            np.mean([f.wall_ms for f in monitor.frames if not f.sensor_only]))

    def test_flushed_frame_marked_sensor_only(self):
        monitor = EdgeMLMonitor()
        monitor.log_sensor("orientation", 90)
        frame = monitor.flush()
        assert frame.sensor_only
        assert monitor.summary()["sensor_only_frames"] == 1

    def test_sensor_only_excluded_from_log_mean_latency(self, small_cnn, x_frames):
        monitor = EdgeMLMonitor()
        stream_frames(small_cnn, monitor, x_frames)
        monitor.log_sensor("battery", 0.4)
        log = EXrayLog.from_monitor(monitor)
        assert log.num_sensor_only() == 1
        lat = [f.latency_ms for f in log.frames if not f.sensor_only]
        assert log.mean_latency_ms() == pytest.approx(np.mean(lat))


class TestRingBufferSink:
    def test_keeps_last_n_frames(self, small_cnn, rng):
        x = rng.normal(size=(10, 8, 8, 3)).astype(np.float32)
        sink = RingBufferSink(capacity=3)
        monitor = EdgeMLMonitor(sink=sink)
        stream_frames(small_cnn, monitor, x)
        assert [f.step for f in sink.frames] == [7, 8, 9]

    def test_summary_covers_whole_stream(self, small_cnn, rng):
        x = rng.normal(size=(10, 8, 8, 3)).astype(np.float32)
        monitor = EdgeMLMonitor(sink=RingBufferSink(capacity=3))
        stream_frames(small_cnn, monitor, x)
        summary = monitor.summary()
        assert summary["num_frames"] == 10
        assert summary["mean_latency_ms"] > 0

    def test_capacity_validated(self):
        with pytest.raises(ValidationError):
            RingBufferSink(capacity=0)

    def test_no_double_count_on_frame_reentry_after_flush(self):
        # Regression pin: a frame opened via monitor.frame(...) *after* a
        # flush() emitted a pending lazy sensor frame must count exactly
        # once in summary() — the flushed sensor-only frame and the new
        # inference frame are two distinct emissions, never three.
        monitor = EdgeMLMonitor("edge", sink=RingBufferSink(capacity=8))
        monitor.log_sensor("orientation", 90)     # opens a lazy frame
        flushed = monitor.flush()                 # emits it sensor-only
        assert flushed is not None and flushed.sensor_only
        with monitor.frame() as frame:            # re-entry after flush
            frame.scalars["label"] = 1.0
        summary = monitor.summary()
        assert summary["num_frames"] == 2
        assert summary["sensor_only_frames"] == 1
        assert [f.step for f in monitor.frames] == [0, 1]
        # A second flush has nothing pending: no phantom emission.
        assert monitor.flush() is None
        assert monitor.summary()["num_frames"] == 2

    def test_adopted_lazy_frame_counts_once(self):
        # The sibling path: sensor logs open the frame lazily and the
        # frame scope *adopts* it — one frame, not a sensor-only frame
        # plus an inference frame.
        monitor = EdgeMLMonitor("edge", sink=RingBufferSink(capacity=8))
        monitor.log_sensor("orientation", 90)
        with monitor.frame() as frame:
            frame.scalars["label"] = 1.0
        summary = monitor.summary()
        assert summary["num_frames"] == 1
        assert summary["sensor_only_frames"] == 0
        assert monitor.frames[0].sensors["orientation"] == 90


class TestDirectorySink:
    def test_streamed_log_loads(self, small_cnn, x_frames, tmp_path):
        monitor = EdgeMLMonitor(per_layer=True,
                                sink=DirectorySink(tmp_path / "log"))
        stream_frames(small_cnn, monitor, x_frames)
        monitor.close()
        log = EXrayLog.load(tmp_path / "log")
        assert len(log) == 4
        assert log.version == 2
        assert log.layer_names() == [n.name for n in small_cnn.nodes]

    def test_readable_mid_stream(self, small_cnn, x_frames, tmp_path):
        monitor = EdgeMLMonitor(sink=DirectorySink(tmp_path / "log"))
        stream_frames(small_cnn, monitor, x_frames[:2])
        # No close(): the stream is still open, yet everything emitted so
        # far is already visible to a reader.
        log = EXrayLog.load(tmp_path / "log")
        assert len(log) == 2
        stream_frames(small_cnn, EdgeMLMonitor(), x_frames[:1])  # unrelated
        monitor.close()
        assert len(EXrayLog.load(tmp_path / "log")) == 2

    def test_resident_frames_are_o1(self, small_cnn, rng, tmp_path):
        # The sink retains no frames: once the monitor closes a frame and
        # the loop drops its reference, nothing keeps it alive — resident
        # frame count stays O(1) no matter how long the stream runs.
        monitor = EdgeMLMonitor(per_layer=True,
                                sink=DirectorySink(tmp_path / "log"))
        interp = Interpreter(small_cnn)
        monitor.attach(interp)
        refs = []
        for _ in range(8):
            with monitor.frame(interp) as frame:
                interp.invoke(rng.normal(size=(1, 8, 8, 3)).astype(np.float32))
            refs.append(weakref.ref(frame))
        del frame
        gc.collect()
        assert sum(r() is not None for r in refs) == 0
        with pytest.raises(ValidationError, match="does not retain"):
            monitor.frames
        monitor.close()
        assert len(EXrayLog.load(tmp_path / "log")) == 8

    def test_emit_after_close_rejected(self, tmp_path):
        monitor = EdgeMLMonitor(sink=DirectorySink(tmp_path / "log"))
        monitor.close()
        with pytest.raises(ValidationError, match="closed"):
            with monitor.frame():
                pass

    def test_empty_stream_still_loads(self, tmp_path):
        monitor = EdgeMLMonitor(sink=DirectorySink(tmp_path / "log"))
        monitor.close()
        assert len(EXrayLog.load(tmp_path / "log")) == 0

    def test_save_log_seals_same_directory(self, small_cnn, x_frames, tmp_path):
        monitor = EdgeMLMonitor(sink=DirectorySink(tmp_path / "log"))
        stream_frames(small_cnn, monitor, x_frames)
        nbytes = save_log(monitor, tmp_path / "log")
        log = EXrayLog.load(tmp_path / "log")
        assert len(log) == 4 and log.log_bytes == nbytes

    def test_save_log_drains_to_other_directory(self, small_cnn, x_frames,
                                                tmp_path):
        monitor = EdgeMLMonitor(sink=DirectorySink(tmp_path / "a"))
        stream_frames(small_cnn, monitor, x_frames)
        save_log(monitor, tmp_path / "b")
        a, b = EXrayLog.load(tmp_path / "a"), EXrayLog.load(tmp_path / "b")
        assert len(a) == len(b) == 4
        np.testing.assert_array_equal(b.frames[2].tensor("model_output"),
                                      a.frames[2].tensor("model_output"))
        # Snapshotting to another directory must not kill the live stream.
        with monitor.frame():
            pass
        monitor.close()
        assert len(EXrayLog.load(tmp_path / "a")) == 5
        assert len(EXrayLog.load(tmp_path / "b")) == 4

    def test_save_log_prefers_directory_child_of_tee(self, small_cnn,
                                                     x_frames, tmp_path):
        # TeeSink(ring, directory): the directory child has the whole
        # stream, so save_log must drain it — not the ring's window.
        monitor = EdgeMLMonitor(
            sink=TeeSink(RingBufferSink(capacity=2),
                         DirectorySink(tmp_path / "full")))
        stream_frames(small_cnn, monitor, x_frames)
        save_log(monitor, tmp_path / "saved")
        assert len(EXrayLog.load(tmp_path / "saved")) == 4

    def test_begun_empty_stream_loadable_before_close(self, tmp_path):
        EdgeMLMonitor(sink=DirectorySink(tmp_path / "log"))  # no frames yet
        assert len(EXrayLog.load(tmp_path / "log")) == 0


class TestTeeSink:
    def test_fans_out_to_all_children(self, small_cnn, x_frames, tmp_path):
        ring = RingBufferSink(capacity=2)
        monitor = EdgeMLMonitor(
            sink=TeeSink(ring, DirectorySink(tmp_path / "log")))
        stream_frames(small_cnn, monitor, x_frames)
        monitor.close()
        assert len(ring.frames) == 2
        assert len(EXrayLog.load(tmp_path / "log")) == 4
        assert monitor.summary()["num_frames"] == 4

    def test_frames_delegates_to_first_retaining_child(self, tmp_path):
        ring = RingBufferSink(capacity=2)
        tee = TeeSink(DirectorySink(tmp_path / "log"), ring)
        monitor = EdgeMLMonitor(sink=tee)
        with monitor.frame():
            pass
        assert tee.frames == ring.frames

    def test_needs_children(self):
        with pytest.raises(ValidationError):
            TeeSink()


class TestLazyReader:
    def test_load_is_lazy(self, small_cnn, x_frames, tmp_path):
        monitor = EdgeMLMonitor(per_layer=True,
                                sink=DirectorySink(tmp_path / "log"))
        stream_frames(small_cnn, monitor, x_frames)
        monitor.close()
        log = EXrayLog.load(tmp_path / "log")
        assert log._frames is None          # nothing materialized on load
        first = next(log.iter_frames())
        assert "model_output" in first.tensors
        assert log._frames is None          # streaming does not cache
        assert len(log.frames) == 4         # the eager view still works
        assert log._frames is not None

    def test_iter_frames_without_tensors(self, small_cnn, x_frames, tmp_path):
        monitor = EdgeMLMonitor(per_layer=True,
                                sink=DirectorySink(tmp_path / "log"))
        stream_frames(small_cnn, monitor, x_frames)
        monitor.close()
        log = EXrayLog.load(tmp_path / "log")
        metas = list(log.iter_frames(load_tensors=False))
        assert len(metas) == 4
        assert all(not f.tensors for f in metas)
        assert all(f.latency_ms > 0 for f in metas)

    def test_random_access_frame(self, small_cnn, x_frames, tmp_path):
        monitor = EdgeMLMonitor(sink=DirectorySink(tmp_path / "log"))
        stream_frames(small_cnn, monitor, x_frames)
        monitor.close()
        log = EXrayLog.load(tmp_path / "log")
        np.testing.assert_allclose(log.frame(2).tensor("model_input"),
                                   x_frames[2], rtol=1e-6)

    def test_keys_filter_loads_only_requested_tensors(self, small_cnn,
                                                      x_frames, tmp_path):
        monitor = EdgeMLMonitor(per_layer=True,
                                sink=DirectorySink(tmp_path / "log"))
        stream_frames(small_cnn, monitor, x_frames)
        monitor.close()
        log = EXrayLog.load(tmp_path / "log")
        frame = log.frame(1, keys={"model_output"})
        assert set(frame.tensors) == {"model_output"}
        for f in log.iter_frames(keys={"model_input"}):
            assert set(f.tensors) == {"model_input"}
        # tensor_series goes through the filter and stays correct.
        series = log.tensor_series("model_output")
        assert len(series) == 4


class TestFormatCompat:
    @pytest.mark.parametrize("version", [1, 3, None])
    def test_other_format_version_rejected(self, small_cnn, x_frames,
                                           tmp_path, version):
        monitor = EdgeMLMonitor(sink=DirectorySink(tmp_path / "log"))
        stream_frames(small_cnn, monitor, x_frames[:1])
        monitor.close()
        meta_path = tmp_path / "log" / "meta.json"
        meta = json.loads(meta_path.read_text())
        if version is None:
            del meta["version"]
        else:
            meta["version"] = version
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValidationError) as err:
            EXrayLog.load(tmp_path / "log")
        assert str(tmp_path / "log") in str(err.value)
        assert f"format version {version!r}" in str(err.value)

    def test_sensor_canonicalization_parity(self, small_cnn, x_frames,
                                            tmp_path):
        # Numpy scalars/arrays logged as sensor values come back as plain
        # floats/lists after any save/load path — pin the canonicalization
        # across MemorySink -> DirectorySink -> EXrayLog.load.
        monitor = EdgeMLMonitor()
        monitor.log_sensor("np_scalar", np.float32(0.25))
        monitor.log_sensor("np_int", np.int64(3))
        monitor.log_sensor("np_array", np.arange(3, dtype=np.float64))
        monitor.log_sensor("plain", "landscape")
        stream_frames(small_cnn, monitor, x_frames[:1])
        save_log(monitor, tmp_path / "log")
        sensors = EXrayLog.load(tmp_path / "log").frames[0].sensors
        assert sensors["np_scalar"] == 0.25
        assert isinstance(sensors["np_scalar"], float)
        assert sensors["np_int"] == 3.0 and isinstance(sensors["np_int"], float)
        assert sensors["np_array"] == [0.0, 1.0, 2.0]
        assert isinstance(sensors["np_array"], list)
        assert sensors["plain"] == "landscape"

    def test_missing_v2_shard_names_dir_and_key(self, small_cnn, x_frames,
                                                tmp_path):
        monitor = EdgeMLMonitor(sink=DirectorySink(tmp_path / "log"))
        stream_frames(small_cnn, monitor, x_frames[:2])
        monitor.close()
        (tmp_path / "log" / "tensors" / "000001.npz").unlink()
        log = EXrayLog.load(tmp_path / "log")   # lazy: no error yet
        with pytest.raises(ValidationError, match="model_input"):
            log.frame(1)
        with pytest.raises(ValidationError, match=str(tmp_path / "log")):
            list(log.iter_frames())


class TestStreamedValidationParity:
    """Acceptance: validation is sink-agnostic — a streamed DirectorySink
    log produces the identical report and layer diffs as the eager
    MemorySink log of the same run."""

    def run_pair(self, small_cnn, rng, tmp_path):
        x = rng.normal(size=(3, 8, 8, 3)).astype(np.float32)
        ref_mon = EdgeMLMonitor("reference", per_layer=True)
        stream_frames(small_cnn, ref_mon, x)
        # ONE edge run teed into both sinks: the eager and the streamed
        # log describe the same frames (per-layer wall-clock included).
        memory = MemorySink()
        edge = EdgeMLMonitor("edge", per_layer=True,
                             sink=TeeSink(memory,
                                          DirectorySink(tmp_path / "edge")))
        # A scale bug so the per-layer analysis has real drift to localize.
        stream_frames(small_cnn, edge, x, scale=1.5)
        edge.close()
        mem_log = EXrayLog("edge", True, memory.frames)
        return (mem_log,
                EXrayLog.load(tmp_path / "edge"),
                EXrayLog.from_monitor(ref_mon))

    def test_layerdiff_identical(self, small_cnn, rng, tmp_path):
        mem_log, dir_log, ref_log = self.run_pair(small_cnn, rng, tmp_path)
        assert per_layer_diff(mem_log, ref_log) == per_layer_diff(dir_log, ref_log)

    def test_session_report_identical(self, small_cnn, rng, tmp_path):
        mem_log, dir_log, ref_log = self.run_pair(small_cnn, rng, tmp_path)
        mem_report = DebugSession(mem_log, ref_log).run(
            always_run_assertions=True)
        dir_report = DebugSession(dir_log, ref_log).run(
            always_run_assertions=True)
        assert mem_report.render() == dir_report.render()
        assert mem_report.layer_diffs == dir_report.layer_diffs
        assert [a.passed for a in mem_report.assertions] == \
            [a.passed for a in dir_report.assertions]
