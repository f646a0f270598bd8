"""Pluggable log sinks: where closed frames go (the streaming API redesign).

The paper's instrumentation layer is meant to be *always on* (Table 2) —
cheap per frame and bounded in footprint — yet the original monitor buffered
every :class:`~repro.instrument.records.FrameLog` (including per-layer
tensors) in RAM until a final monolithic ``save_log``. A
:class:`LogSink` decouples frame production from frame retention:
``EdgeMLMonitor(sink=...)`` emits each closed frame to its sink, and the
sink decides what "keeping" means:

* :class:`MemorySink` — the original buffer-everything behavior (default);
* :class:`DirectorySink` — incremental on-disk streaming: one JSONL line
  per frame plus its tensors' raw bytes appended to one ``tensors.bin``,
  O(1) resident frames no matter how long the stream runs; readable
  mid-stream by
  :meth:`EXrayLog.load <repro.instrument.store.EXrayLog.load>`;
* :class:`RingBufferSink` — bounded-memory always-on mode: the last *N*
  frames plus running whole-stream aggregates, so ``monitor.summary()``
  still describes everything that ever streamed through;
* :class:`TeeSink` — fan one stream out to several sinks (e.g. a ring
  buffer for live inspection plus a directory for offline validation).

Every sink maintains :class:`StreamStats` over the *whole* stream in
:meth:`LogSink.emit`, independent of what it retains — that is what keeps
``summary()`` truthful for bounded sinks. Sensor-only frames (closed by
``flush`` without an inference) are counted separately and excluded from
latency/wall statistics; their latencies are zero by construction, not
measurements.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.instrument.records import FrameLog, frame_to_doc
from repro.util.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - type-only import (cycle guard)
    from repro.instrument.monitor import EdgeMLMonitor
    from repro.instrument.store import EXrayLog

LOG_FORMAT_VERSION = 3
"""On-disk layout: ``frames.jsonl`` + one append-only raw ``tensors.bin``.
The only version :meth:`~repro.instrument.store.EXrayLog.load` reads."""

TENSORS_NAME = "tensors.bin"


class StreamStats:
    """Running aggregates over every frame emitted to a sink.

    Constant-size (sums, not samples), so bounded sinks can summarize
    unbounded streams. Latency/wall statistics cover inference frames only;
    sensor-only frames are tallied in :attr:`sensor_only_frames`.
    """

    __slots__ = ("num_frames", "sensor_only_frames", "latency_sum",
                 "latency_sumsq", "wall_sum", "peak_memory_mb")

    def __init__(self):
        self.num_frames = 0
        self.sensor_only_frames = 0
        self.latency_sum = 0.0
        self.latency_sumsq = 0.0
        self.wall_sum = 0.0
        self.peak_memory_mb = 0.0

    def observe(self, frame: FrameLog) -> None:
        self.num_frames += 1
        if frame.sensor_only:
            self.sensor_only_frames += 1
            return
        self.latency_sum += frame.latency_ms
        self.latency_sumsq += frame.latency_ms ** 2
        self.wall_sum += frame.wall_ms
        self.peak_memory_mb = max(self.peak_memory_mb, frame.memory_mb)

    @property
    def inference_frames(self) -> int:
        return self.num_frames - self.sensor_only_frames

    def summary(self) -> dict:
        """The ``monitor.summary()`` payload (sans monitor overhead)."""
        n = self.inference_frames
        mean = self.latency_sum / n if n else 0.0
        var = max(self.latency_sumsq / n - mean ** 2, 0.0) if n else 0.0
        return {
            "num_frames": self.num_frames,
            "sensor_only_frames": self.sensor_only_frames,
            "mean_latency_ms": mean,
            "std_latency_ms": float(np.sqrt(var)),
            "mean_wall_ms": self.wall_sum / n if n else 0.0,
            "peak_memory_mb": self.peak_memory_mb,
        }


class LogSink:
    """Receives each closed frame of a monitor's stream.

    Subclasses implement :meth:`write`; :meth:`emit` (the monitor-facing
    entry point) updates the whole-stream :class:`StreamStats` first, so
    every sink can answer ``summary()`` regardless of retention policy.
    """

    def __init__(self):
        self.stats = StreamStats()

    # -------------------------------------------------------------- lifecycle
    def begin(self, monitor: "EdgeMLMonitor") -> None:
        """Called once when a monitor adopts this sink (stream metadata)."""

    def emit(self, frame: FrameLog) -> None:
        """Accept one closed frame (monitors call this, never ``write``)."""
        self.stats.observe(frame)
        self.write(frame)

    def write(self, frame: FrameLog) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Finalize the sink (flush handles, seal metadata). Idempotent."""

    # ---------------------------------------------------------------- views
    @property
    def frames(self) -> list[FrameLog]:
        """The retained frames, for sinks that keep any in memory."""
        raise ValidationError(
            f"{type(self).__name__} does not retain frames in memory; "
            "read the stream back with EXrayLog.load()/iter_frames()")

    def open_log(self, monitor: "EdgeMLMonitor") -> "EXrayLog":
        """An :class:`EXrayLog` view over everything this sink retained."""
        from repro.instrument.store import EXrayLog

        return EXrayLog(monitor.name, monitor.per_layer, self.frames,
                        monitor_overhead_ms=monitor.monitor_overhead_ms)


class MemorySink(LogSink):
    """Buffer every frame in RAM — the pre-sink monitor behavior (default).

    ``frames`` is the live list; an :class:`EXrayLog` built from it is a
    zero-copy view, exactly as ``EXrayLog.from_monitor`` always behaved.
    """

    def __init__(self):
        super().__init__()
        self._frames: list[FrameLog] = []

    def write(self, frame: FrameLog) -> None:
        self._frames.append(frame)

    @property
    def frames(self) -> list[FrameLog]:
        return self._frames


class RingBufferSink(LogSink):
    """Keep only the last ``capacity`` frames: bounded always-on monitoring.

    The whole-stream :class:`StreamStats` keep ``summary()`` honest about
    everything that streamed through, while tensor-carrying frames older
    than the window are dropped — the production profile the paper's Table 2
    argues for, with a recent-history window for post-hoc debugging.
    """

    def __init__(self, capacity: int):
        super().__init__()
        if capacity < 1:
            raise ValidationError(
                f"ring buffer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._ring: deque[FrameLog] = deque(maxlen=capacity)

    def write(self, frame: FrameLog) -> None:
        self._ring.append(frame)

    @property
    def frames(self) -> list[FrameLog]:
        """The retained window (oldest first) — at most ``capacity`` frames."""
        return list(self._ring)


class DirectorySink(LogSink):
    """Stream frames to a log directory as they close (v3 on-disk layout).

    Layout::

        meta.json      # stream header (name, per_layer, ..., version)
        frames.jsonl   # one JSON document per frame, appended per emit
        tensors.bin    # every frame's tensors, raw C-order bytes, appended

    Each emit appends the frame's tensors (sorted by key) to
    ``tensors.bin``, flushes it, and only then appends the frame's JSONL
    line, whose ``tensors`` entry maps each key to ``[dtype.str, shape,
    offset]`` — so a mid-stream reader never sees a document whose bytes
    are missing. Bytes are stored uncompressed: writes and keyed reads
    cost a copy instead of a zlib pass, and per-layer logs take 1.3-2.7x
    the disk of the old compressed shards. No frame is retained in memory,
    so resident footprint is O(1) in stream length. Construction writes
    ``meta.json`` and empty ``frames.jsonl``/``tensors.bin`` immediately
    (truncating any previous stream at that root), so the directory is
    loadable from the instant the sink exists — mid-stream readers never
    trust the header's ``num_frames`` (they count ``frames.jsonl`` lines).
    :meth:`close` seals the header.
    """

    def __init__(self, root: str | Path, name: str = "edge",
                 per_layer: bool = False):
        super().__init__()
        self.root = Path(root)
        self.name = name
        self.per_layer = per_layer
        self.monitor_overhead_ms = 0.0
        self._monitor: "EdgeMLMonitor | None" = None
        self._closed = False
        self.root.mkdir(parents=True, exist_ok=True)
        self._tensors = (self.root / TENSORS_NAME).open("wb")
        self._offset = 0
        self._handle = (self.root / "frames.jsonl").open("w")
        self._write_meta()

    def begin(self, monitor: "EdgeMLMonitor") -> None:
        self.name = monitor.name
        self.per_layer = monitor.per_layer
        self._monitor = monitor
        self._write_meta()

    def _write_meta(self) -> None:
        if self._monitor is not None:
            self.monitor_overhead_ms = self._monitor.monitor_overhead_ms
        meta = {
            "name": self.name,
            "per_layer": self.per_layer,
            "num_frames": self.stats.num_frames,
            "monitor_overhead_ms": self.monitor_overhead_ms,
            "version": LOG_FORMAT_VERSION,
        }
        (self.root / "meta.json").write_text(json.dumps(meta, indent=2))

    def write(self, frame: FrameLog) -> None:
        if self._closed:
            raise ValidationError(
                f"directory sink at {self.root} is closed; frames can no "
                "longer be emitted to it")
        arrays = {key: np.asarray(frame.tensors[key])
                  for key in sorted(frame.tensors)}
        for key, array in arrays.items():
            if array.dtype.hasobject:
                raise ValidationError(
                    f"frame {frame.step} tensor {key!r} has object dtype "
                    f"{array.dtype}; only fixed-size dtypes can be logged")
        index = {}
        for key, array in arrays.items():
            index[key] = [array.dtype.str, list(array.shape), self._offset]
            self._offset += self._tensors.write(array.tobytes())
        if index:
            self._tensors.flush()
        self._handle.write(json.dumps(frame_to_doc(frame, index)) + "\n")
        self._handle.flush()

    def sync(self) -> None:
        """Make everything emitted so far visible to readers (mid-stream)."""
        if self._closed:
            return
        self._handle.flush()
        self._write_meta()

    def close(self) -> None:
        if self._closed:
            return
        self._write_meta()
        self._handle.close()
        self._tensors.close()
        self._handle = self._tensors = None
        self._closed = True

    def total_bytes(self) -> int:
        """Bytes on disk for this stream (meta + frame docs + tensors)."""
        return sum(p.stat().st_size
                   for p in self.root.rglob("*") if p.is_file())

    def open_log(self, monitor: "EdgeMLMonitor") -> "EXrayLog":
        """A lazy reader over the directory (tensors stay on disk)."""
        from repro.instrument.store import EXrayLog

        self.sync()
        return EXrayLog.load(self.root)


class TeeSink(LogSink):
    """Fan one frame stream out to several sinks.

    ``frames``/``open_log`` delegate to the first child able to answer —
    e.g. ``TeeSink(RingBufferSink(32), DirectorySink(path))`` serves recent
    frames from memory while the full stream lands on disk.
    """

    def __init__(self, *sinks: LogSink):
        super().__init__()
        if not sinks:
            raise ValidationError("TeeSink needs at least one child sink")
        self.sinks = tuple(sinks)

    def begin(self, monitor: "EdgeMLMonitor") -> None:
        for sink in self.sinks:
            sink.begin(monitor)

    def write(self, frame: FrameLog) -> None:
        for sink in self.sinks:
            sink.emit(frame)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    @property
    def frames(self) -> list[FrameLog]:
        for sink in self.sinks:
            try:
                return sink.frames
            except ValidationError:
                continue
        raise ValidationError(
            "no sink in this TeeSink retains frames in memory; "
            "read a DirectorySink child back with EXrayLog.load()")

    def open_log(self, monitor: "EdgeMLMonitor") -> "EXrayLog":
        error: ValidationError | None = None
        for sink in self.sinks:
            try:
                return sink.open_log(monitor)
            except ValidationError as exc:
                error = exc
        raise error
