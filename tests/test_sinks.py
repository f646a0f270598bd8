"""Streaming-instrumentation tests: sinks, frame scopes, lazy log readers.

Covers the LogSink redesign: MemorySink parity with the buffered monitor,
DirectorySink incremental streaming (O(1) resident frames, mid-stream
readability, v3 layout), RingBufferSink bounded always-on mode, TeeSink
fan-out, the ``with monitor.frame(...)`` scope, lazy ``EXrayLog`` readers,
and the save/load canonicalization + format-version guarantees.
"""

import gc
import io
import json
import math
import weakref
from dataclasses import replace
from itertools import islice
from types import SimpleNamespace

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
from repro.cli import cmd_log
from repro.instrument import store
from repro.runtime import Interpreter
from repro.util.errors import ValidationError
from repro.validate.latency import layer_latency_profile
from repro.validate.layerdiff import (
    CHUNK_FRAMES,
    ERROR_FUNCTIONS,
    LayerDiff,
    per_layer_diff,
    ref_span,
)
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


@pytest.fixture
def tensor_reads(monkeypatch):
    """Byte counts of every read from a log's ``tensors.bin``, in order."""
    reads = []
    open_tensors = store._open_tensors

    class CountingReader:
        def __init__(self, path):
            self._handle = open_tensors(path)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._handle.close()

        def seek(self, offset):
            return self._handle.seek(offset)

        def readinto(self, buffer):
            n = self._handle.readinto(buffer)
            reads.append(n)
            return n

    monkeypatch.setattr(store, "_open_tensors", CountingReader)
    return reads


def frame_docs(root):
    return [json.loads(line)
            for line in (root / "frames.jsonl").read_text().splitlines()]


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
        assert log.version == 3
        assert log.layer_names() == [n.name for n in small_cnn.nodes]

    def test_object_dtype_tensor_rejected(self, tmp_path):
        sink = DirectorySink(tmp_path / "log")
        monitor = EdgeMLMonitor(sink=sink)
        with pytest.raises(ValidationError) as err:
            with monitor.frame() as frame:
                frame.tensors["boxes"] = np.array([{"x": 1}, None])
        assert "'boxes'" in str(err.value)
        assert f"frame {frame.step}" in str(err.value)
        sink.close()
        # Nothing of the rejected frame reached disk.
        assert (tmp_path / "log" / "tensors.bin").stat().st_size == 0
        assert frame_docs(tmp_path / "log") == []

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
        # A filtered pass over every frame stays correct.
        series = [f.tensor("model_output")
                  for f in log.iter_frames(keys={"model_output"})]
        assert len(series) == 4


class TestFormatCompat:
    @pytest.mark.parametrize("version", [1, 2, None])
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
        (tmp_path / "log" / "tensors.bin").unlink()
        log = EXrayLog.load(tmp_path / "log")   # lazy: no error yet
        with pytest.raises(ValidationError, match="model_input"):
            log.frame(1)
        with pytest.raises(ValidationError, match=str(tmp_path / "log")):
            list(log.iter_frames())

    @pytest.mark.parametrize("k", [0, 2, 3])
    def test_truncated_tensors_bin_fails_from_frame_k(self, small_cnn,
                                                      x_frames, tmp_path, k):
        root = tmp_path / "log"
        monitor = EdgeMLMonitor(sink=DirectorySink(root))
        stream_frames(small_cnn, monitor, x_frames)
        monitor.close()
        intact = EXrayLog.load(root).frames
        # Cut tensors.bin halfway through frame k's last tensor.
        index = frame_docs(root)[k]["tensors"]
        key = list(index)[-1]
        offset = index[key][2] + intact[k].tensors[key].nbytes // 2
        with (root / "tensors.bin").open("r+b") as handle:
            handle.truncate(offset)
        log = EXrayLog.load(root)
        for i in range(k):
            for name, array in intact[i].tensors.items():
                assert log.frame(i).tensor(name).tobytes() == array.tobytes()
        with pytest.raises(ValidationError) as err:
            log.frame(k)
        assert str(root) in str(err.value)
        assert repr(key) in str(err.value)
        assert f"frame {intact[k].step}" in str(err.value)


class TestMetadataReads:
    """Metadata queries answer from frame documents alone; keyed reads
    touch only the requested tensors' bytes."""

    @pytest.fixture
    def log_root(self, small_cnn, x_frames, tmp_path):
        monitor = EdgeMLMonitor(per_layer=True,
                                sink=DirectorySink(tmp_path / "log"))
        stream_frames(small_cnn, monitor, x_frames)
        monitor.close()
        return tmp_path / "log"

    def test_metadata_reads_no_tensor_bytes(self, small_cnn, log_root,
                                            tensor_reads):
        log = EXrayLog.load(log_root)
        names = [n.name for n in small_cnn.nodes]
        assert log.layer_names() == names
        assert [layer for layer, _ in log.layer_schedule()] == names
        assert [p.layer for p in layer_latency_profile(log)] == names
        out = io.StringIO()
        assert cmd_log(SimpleNamespace(dir=str(log_root), frames=2), out) == 0
        assert f"tensor keys        {len(names) + 2} (layer/" in out.getvalue()
        assert tensor_reads == []

    def test_keyed_iteration_reads_only_that_key(self, log_root, x_frames,
                                                 tensor_reads):
        log = EXrayLog.load(log_root)
        outputs = [f.tensor("model_output")
                   for f in log.iter_frames(keys={"model_output"})]
        assert len(tensor_reads) == len(x_frames)
        assert sum(tensor_reads) == sum(o.nbytes for o in outputs)

    def test_unkeyed_iteration_reads_once_per_frame(self, log_root, x_frames,
                                                    tensor_reads):
        frames = list(EXrayLog.load(log_root).iter_frames())
        assert len(tensor_reads) == len(x_frames)
        assert sum(tensor_reads) == sum(
            a.nbytes for f in frames for a in f.tensors.values())

    def test_layer_diff_reads_only_layer_tensors(self, log_root, x_frames,
                                                 tensor_reads):
        layer_bytes = sum(
            np.dtype(dtype).itemsize * math.prod(shape)
            for doc in frame_docs(log_root)
            for key, (dtype, shape, _) in doc["tensors"].items()
            if key.startswith("layer/"))
        per_layer_diff(EXrayLog.load(log_root), EXrayLog.load(log_root))
        # At most one positioned read per frame per log, of exactly the
        # layer/* bytes: model_input and model_output stay on disk.
        assert len(tensor_reads) <= 2 * len(x_frames)
        assert sum(tensor_reads) == 2 * layer_bytes

    def test_tensor_keys_match_between_sources(self, small_cnn, x_frames,
                                               log_root):
        monitor = EdgeMLMonitor(per_layer=True)
        stream_frames(small_cnn, monitor, x_frames)
        assert EXrayLog.from_monitor(monitor).tensor_keys(0) == \
            EXrayLog.load(log_root).tensor_keys(0)


def per_frame_oracle(edge_log, ref_log, error_fn="nrmse", max_frames=None):
    """``per_layer_diff`` as one frame pair at a time: the error function
    per frame, then ``np.mean`` over frames."""
    fn = ERROR_FUNCTIONS[error_fn]
    ref_layers = set(ref_log.layer_names())
    schedule = [(name, op) for name, op in edge_log.layer_schedule()
                if name in ref_layers]
    n_frames = min(len(edge_log), len(ref_log), max_frames or math.inf)
    errors = [[] for _ in schedule]
    degenerate = [False] * len(schedule)
    pairs = zip(edge_log.iter_frames(), ref_log.iter_frames())
    for edge_frame, ref_frame in islice(pairs, n_frames):
        for index, (layer, _) in enumerate(schedule):
            edge_out = edge_frame.tensor(f"layer/{layer}")
            ref_out = ref_frame.tensor(f"layer/{layer}")
            errors[index].append(fn(edge_out, ref_out))
            degenerate[index] |= error_fn == "nrmse" and ref_span(ref_out) <= 0
    return [LayerDiff(index, layer, op, float(np.mean(errors[index])),
                      degenerate[index]).to_doc()
            for index, (layer, op) in enumerate(schedule)]


FRAME_COUNTS = (1, CHUNK_FRAMES - 1, CHUNK_FRAMES, CHUNK_FRAMES + 1,
                2 * CHUNK_FRAMES + 1)


class TestStreamedValidationParity:
    """Acceptance: validation is sink-agnostic — a streamed DirectorySink
    log produces the identical report and layer diffs as the eager
    MemorySink log of the same run — and chunked comparison equals the
    per-frame formula on both, across chunk boundaries."""

    def run_pair(self, small_cnn, rng, tmp_path,
                 n_frames=2 * CHUNK_FRAMES + 1):
        x = rng.normal(size=(n_frames, 8, 8, 3)).astype(np.float32)
        # An all-zero last frame makes the bias-free stem conv's output
        # constant there: its nrMSE falls back to absolute units.
        x[-1] = 0.0
        ref_mon = EdgeMLMonitor("reference", per_layer=True)
        stream_frames(small_cnn, ref_mon, x)
        # ONE edge run teed into both sinks: the eager and the streamed
        # log describe the same frames (per-layer wall-clock included).
        memory = MemorySink()
        edge = EdgeMLMonitor("edge", per_layer=True,
                             sink=TeeSink(memory,
                                          DirectorySink(tmp_path / "edge")))
        interp = Interpreter(small_cnn)
        edge.attach(interp)
        for i in range(n_frames):
            if i % 3 == 1:
                # A custom tensor that sorts inside the layer/* span, on
                # some frames only: those frames' layer tensors sit at
                # other relative offsets than the chunk's first frame's.
                edge.log("layer/probe", np.arange(i + 1, dtype=np.int16))
            # A scale bug so the per-layer analysis has real drift to
            # localize.
            edge.log("model_input", x[i] * 1.5)
            with edge.frame(interp) as frame:
                out = interp.invoke(x[i:i + 1] * 1.5)
                frame.tensors["model_output"] = next(iter(out.values()))[0]
        edge.close()
        mem_log = EXrayLog("edge", True, memory.frames)
        return (mem_log,
                EXrayLog.load(tmp_path / "edge"),
                EXrayLog.from_monitor(ref_mon))

    def test_layerdiff_identical(self, small_cnn, rng, tmp_path):
        mem_log, dir_log, ref_log = self.run_pair(small_cnn, rng, tmp_path)
        assert per_layer_diff(mem_log, ref_log) == per_layer_diff(dir_log, ref_log)

    @pytest.mark.parametrize("n_frames", FRAME_COUNTS)
    def test_layerdiff_matches_per_frame_oracle(self, small_cnn, rng,
                                                tmp_path, n_frames):
        mem_log, dir_log, ref_log = self.run_pair(small_cnn, rng, tmp_path,
                                                  n_frames)
        for error_fn in ERROR_FUNCTIONS:
            want = per_frame_oracle(mem_log, ref_log, error_fn)
            for edge_log in (mem_log, dir_log):
                got = [d.to_doc() for d in
                       per_layer_diff(edge_log, ref_log, error_fn)]
                assert got == want, (error_fn, type(edge_log._source))
        nrmse = per_frame_oracle(mem_log, ref_log)
        assert {d["layer"] for d in nrmse if d["degenerate_ref"]} == {"stem"}

    def test_layerdiff_directory_reference(self, small_cnn, rng, tmp_path):
        # The streamed log, with its uneven layout, as the reference side.
        _, dir_log, ref_log = self.run_pair(small_cnn, rng, tmp_path)
        want = per_frame_oracle(ref_log, dir_log)
        assert [d.to_doc() for d in per_layer_diff(ref_log, dir_log)] == want

    @pytest.mark.parametrize("max_frames", [1, CHUNK_FRAMES, CHUNK_FRAMES + 3])
    def test_layerdiff_max_frames(self, small_cnn, rng, tmp_path, max_frames):
        mem_log, dir_log, ref_log = self.run_pair(small_cnn, rng, tmp_path)
        want = per_frame_oracle(mem_log, ref_log, max_frames=max_frames)
        for edge_log in (mem_log, dir_log):
            got = per_layer_diff(edge_log, ref_log, max_frames=max_frames)
            assert [d.to_doc() for d in got] == want

    def test_layerdiff_shape_mismatch_rejected(self, small_cnn, rng,
                                              tmp_path):
        mem_log, _, ref_log = self.run_pair(small_cnn, rng, tmp_path,
                                            CHUNK_FRAMES + 1)
        cut = [replace(frame, tensors={
                   **frame.tensors,
                   "layer/logits": frame.tensors["layer/logits"][..., :-1]})
               for frame in mem_log.frames]
        sink = DirectorySink(tmp_path / "cut", per_layer=True)
        for frame in cut:
            sink.emit(frame)
        sink.close()
        for edge_log in (EXrayLog("edge", True, cut),
                         EXrayLog.load(tmp_path / "cut")):
            with pytest.raises(ValidationError, match="shape mismatch"):
                per_layer_diff(edge_log, ref_log)

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
