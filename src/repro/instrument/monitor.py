"""The EdgeML Monitor and the ML-EXray instrumentation API.

This is the Python rendering of the paper's multi-lingual API (§3.2, and the
C++/Java snippets in §3.2/appendix B). The same class instruments both the
edge pipeline and the reference pipeline, which is what makes their logs
directly comparable.

The primary way to delimit an inference is the frame-scoped context
manager — it opens the frame, adopts any sensor logs that preceded it, and
emits the closed frame to the monitor's sink::

    monitor = MLEXray("edge_app", per_layer=False)
    monitor.attach(interpreter)
    ...
    with monitor.frame(interpreter) as frame:
        outputs = interpreter.invoke(x)
        frame.tensors["model_output"] = outputs["probs"][0]

The paper-facing markers remain as thin wrappers around the same
lifecycle (``monitor.on_inf_start(); ...; monitor.on_inf_stop(interp)``),
so the 3-line C++ example of §3.2 still reads one-to-one.

Offline replays run many frames per invoke and still log frame by frame.
Each frame's pre-invoke logs are set aside with :meth:`~EdgeMLMonitor.hold`,
then one batched invoke closes them all::

    for x in inputs:                       # one (1, ...) input per frame
        monitor.log("model_input", x[0])
        monitor.hold()
    with monitor.window(interpreter) as frames:
        out = interpreter.invoke(np.concatenate(inputs))

Every layer output is split into one ``(1, ...)`` row per held frame, the
leading batch axis a batch-1 log has, so the frames match a one-at-a-time
run byte for byte wherever each row of the batch equals a batch-1 run.

Custom logging around any pipeline function::

    monitor.log("preprocess_out", model_input)        # a "red dot" log
    monitor.log_sensor("orientation", 90)

Where closed frames *go* is the sink's decision
(:mod:`repro.instrument.sinks`): the default :class:`MemorySink` buffers
them all (``monitor.frames``), a :class:`DirectorySink` streams them to
disk as they close, and a :class:`RingBufferSink` keeps a bounded window —
the always-on production mode. ``summary()`` reflects the whole stream for
every sink.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from repro.instrument.records import FrameLog
from repro.instrument.sinks import LogSink, MemorySink
from repro.runtime.interpreter import Interpreter, LayerRecord
from repro.util.errors import ValidationError


class EdgeMLMonitor:
    """Collects ML-EXray telemetry for a sequence of inference frames.

    Parameters
    ----------
    name:
        Log stream name (e.g. "edge", "reference").
    per_layer:
        When True, record every layer's output tensor (the fine-grained
        offline-validation mode of Tables 3/5 and Figure 6). When False only
        default logs are captured (model I/O, latency, memory) — the cheap
        always-on mode of Table 2. Quantized layer outputs are stored in
        the real-valued domain, so they compare directly against float
        reference logs.
    sink:
        Where closed frames go (:class:`~repro.instrument.sinks.LogSink`).
        Defaults to a fresh :class:`~repro.instrument.sinks.MemorySink`
        (buffer everything — the original behavior). Pass a
        :class:`~repro.instrument.sinks.DirectorySink` to stream frames to
        disk as they close, or a
        :class:`~repro.instrument.sinks.RingBufferSink` for bounded-memory
        always-on monitoring.
    """

    def __init__(self, name: str = "edge", per_layer: bool = False,
                 sink: LogSink | None = None):
        self.name = name
        self.per_layer = per_layer
        self.sink = sink if sink is not None else MemorySink()
        self.monitor_overhead_ms = 0.0
        self._current: FrameLog | None = None
        self._held: list[FrameLog] = []
        self._window: list[FrameLog] | None = None
        self._window_layer_ms: tuple[float, ...] | None = None
        self._lazy_frame = False
        self._inf_started_at: float | None = None
        self._sensor_started_at: float | None = None
        self._step = 0
        self.sink.begin(self)

    @property
    def frames(self) -> list[FrameLog]:
        """The sink's retained frames (the full stream for a MemorySink).

        Raises :class:`ValidationError` for sinks that keep nothing in
        memory (e.g. :class:`~repro.instrument.sinks.DirectorySink` — read
        those back with :meth:`EXrayLog.load
        <repro.instrument.store.EXrayLog.load>`).
        """
        return self.sink.frames

    @property
    def num_frames(self) -> int:
        """Frames emitted so far — whole-stream, for any sink."""
        return self.sink.stats.num_frames

    # ------------------------------------------------------------ attachment
    def attach(self, interpreter: Interpreter) -> None:
        """Observe an interpreter: per-layer telemetry flows into this monitor.

        Only the interpreter holds the link (its observer list), so a
        monitor and the interpreter it observes form no reference cycle:
        an app's logs are freed as soon as the app is, not at the next
        cyclic garbage collection.
        """
        interpreter.add_observer(self._on_layer)

    def detach(self, interpreter: Interpreter) -> None:
        """Stop observing an interpreter previously passed to :meth:`attach`.

        Detaching an interpreter that was never attached raises
        :class:`ValidationError` and leaves the observer state untouched.
        """
        try:
            interpreter.remove_observer(self._on_layer)
        except ValueError:
            raise ValidationError(
                f"monitor {self.name!r} is not attached to this interpreter; "
                "detach() only undoes a prior attach()") from None

    def _on_layer(self, record: LayerRecord) -> None:
        window = self._window
        if window is None and self._current is None:
            return  # layer executed outside an on_inf_start/stop window
        t0 = time.perf_counter()
        name = record.node.name
        output = None
        if self.per_layer:
            output = record.output
            if record.quantized and record.spec.quant:
                output = record.spec.quant.dequantize(output)  # a fresh array
            else:
                output = np.array(output, copy=True)
        if window is None:
            frame = self._current
            frame.layer_latency_ms[name] = record.latency_ms
            frame.layer_ops[name] = record.node.op
            if output is not None:
                frame.tensors[f"layer/{name}"] = output
        else:
            if output is not None and output.shape[:1] != (len(window),):
                raise ValidationError(
                    f"layer {name!r} output {output.shape} does not lead with "
                    f"the window's {len(window)} frames; it cannot be split "
                    "into per-frame records")
            latency_ms = self._window_layer_ms[record.index] \
                if self._window_layer_ms is not None \
                else record.latency_ms / len(window)
            for i, frame in enumerate(window):
                frame.layer_latency_ms[name] = latency_ms
                frame.layer_ops[name] = record.node.op
                if output is not None:
                    frame.tensors[f"layer/{name}"] = output[i:i + 1]
        self.monitor_overhead_ms += (time.perf_counter() - t0) * 1e3

    # ----------------------------------------------------- inference markers
    @contextmanager
    def frame(self, interpreter: Interpreter | None = None):
        """Frame-scoped instrumentation: the primary inference API.

        Opens a frame on entry (adopting any lazily-opened sensor frame),
        yields the open :class:`FrameLog` so the body can attach outputs or
        labels before the frame closes, and emits the closed frame to the
        sink on exit::

            with monitor.frame(interpreter) as frame:
                out = interpreter.invoke(x)
                frame.tensors["model_output"] = out["probs"][0]

        If the body raises, the partial frame is *discarded* (sinks never
        see half-recorded frames) and the exception propagates.
        """
        self.on_inf_start()
        try:
            yield self._current
        except BaseException:
            self._current = None
            self._lazy_frame = False
            self._inf_started_at = None
            raise
        self.on_inf_stop(interpreter)

    def on_inf_start(self) -> None:
        """Mark the start of one model invocation (opens a frame).

        If sensor/custom logs already opened the frame lazily (they often
        precede the invocation), this adopts that frame and restarts the
        latency clock.
        """
        if self._current is not None:
            if not self._lazy_frame:
                raise ValidationError("on_inf_start called twice without on_inf_stop")
            self._lazy_frame = False
        else:
            self._current = FrameLog(step=self._step)
        self._inf_started_at = time.perf_counter()

    def on_inf_stop(self, interpreter: Interpreter | None = None) -> FrameLog:
        """Close the frame; pulls latency/memory from the interpreter."""
        if self._current is None:
            raise ValidationError("on_inf_stop called without on_inf_start")
        t0 = time.perf_counter()
        frame = self._current
        frame.wall_ms = (t0 - self._inf_started_at) * 1e3
        if interpreter is not None:
            frame.latency_ms = interpreter.last_latency_ms
            frame.memory_mb = interpreter.model_memory_bytes() / 2**20
        else:
            frame.latency_ms = frame.wall_ms
        self.sink.emit(frame)
        self._current = None
        self._lazy_frame = False
        self._step += 1
        self.monitor_overhead_ms += (time.perf_counter() - t0) * 1e3
        return frame

    def hold(self) -> None:
        """Set the open frame's pre-invoke logs aside for the next :meth:`window`.

        The frame keeps its step; the next log opens the next frame. A frame
        opened by an explicit ``on_inf_start`` is an inference in flight and
        cannot be held.
        """
        if self._current is not None and not self._lazy_frame:
            raise ValidationError("hold() inside an open inference frame")
        self._held.append(self._frame_for_logging())
        self._current = None
        self._lazy_frame = False
        self._inf_started_at = None
        self._step += 1

    @contextmanager
    def window(self, interpreter: Interpreter):
        """Close every held frame with one batched invoke of ``interpreter``.

        Yields the held frames, in order, so the body can attach outputs and
        labels; the body runs one invoke whose batch has one row per frame.
        Each layer record is split into per-frame rows (see the module
        docstring). On exit every frame closes with the fields a batch-1
        invoke would have logged:

        * ``layer_latency_ms`` and ``latency_ms``: the batch-1 simulated
          latencies (:meth:`~repro.runtime.plan.ExecutionPlan.latency_ms`
          at batch 1); without a device, the batch's measured latencies
          divided by the frame count;
        * ``memory_mb``: weights plus the batch-1 activation peak;
        * ``wall_ms``: the window's wall time divided by the frame count —
          a per-frame share of the batched invoke, not a batch-1
          measurement.

        Frames are emitted to the sink in order. If the body raises, the
        held frames are discarded and their steps reused.
        """
        frames, self._held = self._held, []
        if not frames:
            raise ValidationError("window() without held frames; call hold() first")
        if self._current is not None:
            raise ValidationError("window() while a frame is open")
        plan = interpreter.plan
        device = interpreter.device
        if device is not None:
            self._window_layer_ms, latency_ms = plan.latency_ms(device, 1)
        self._window = frames
        started = time.perf_counter()
        try:
            yield frames
        except BaseException:
            self._step = frames[0].step
            raise
        finally:
            self._window = None
            self._window_layer_ms = None
        t0 = time.perf_counter()
        wall_ms = (t0 - started) * 1e3 / len(frames)
        if device is None:
            latency_ms = interpreter.last_latency_ms / len(frames)
        memory_mb = (interpreter.weights_bytes()
                     + plan.peak_activation_bytes(1)) / 2**20
        for frame in frames:
            frame.wall_ms = wall_ms
            frame.latency_ms = latency_ms
            frame.memory_mb = memory_mb
            self.sink.emit(frame)
        self.monitor_overhead_ms += (time.perf_counter() - t0) * 1e3

    def flush(self) -> FrameLog | None:
        """Close a lazily-opened frame that never saw an inference window.

        Sensor/custom logs open frames lazily (see :meth:`_frame_for_logging`);
        when no ``on_inf_stop`` follows — trailing sensor-only telemetry, an
        aborted inference — the frame would otherwise never reach the sink
        and the logs would silently vanish.  Called by
        :func:`~repro.instrument.store.save_log`,
        :meth:`~repro.instrument.store.EXrayLog.from_monitor`, and
        :meth:`close`.  A frame opened by an explicit ``on_inf_start`` is
        left alone — that is an in-flight inference, not a trailing log.

        The flushed frame is marked ``sensor_only``: it never saw an
        inference, so its zero latency/memory are placeholders, and
        :meth:`summary` excludes it from latency/wall statistics (reporting
        it under ``sensor_only_frames`` instead).

        One caveat remains: a lazy frame is indistinguishable from the
        *leading* sensor logs of an inference that has not started yet, so
        flush at end of stream (as save_log does), not between a sensor
        read and its inference window — a mid-pipeline flush would split
        the sensor context into its own frame.
        """
        if self._current is None or not self._lazy_frame:
            return None
        frame = self._current
        frame.sensor_only = True
        self.sink.emit(frame)
        self._current = None
        self._lazy_frame = False
        self._inf_started_at = None
        self._step += 1
        return frame

    def close(self) -> None:
        """Flush any trailing lazy frame and finalize the sink.

        For a :class:`~repro.instrument.sinks.DirectorySink` this seals the
        on-disk stream header; for in-memory sinks it is a cheap no-op
        besides the flush. Monitors are also context managers::

            with EdgeMLMonitor("edge", sink=DirectorySink(path)) as monitor:
                ...
        """
        self.flush()
        self.sink.close()

    def __enter__(self) -> "EdgeMLMonitor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------ sensor API
    def on_sensor_start(self) -> None:
        """Mark sensor capture start (camera shutter open)."""
        self._sensor_started_at = time.perf_counter()

    def on_sensor_stop(self) -> None:
        """Mark sensor capture end; logs the capture duration."""
        if self._sensor_started_at is None:
            raise ValidationError("on_sensor_stop called without on_sensor_start")
        elapsed = (time.perf_counter() - self._sensor_started_at) * 1e3
        self.log_sensor("capture_ms", elapsed)
        self._sensor_started_at = None

    def log_sensor(self, key: str, value) -> None:
        """Log a peripheral-sensor reading (orientation, lighting, ...)."""
        self._frame_for_logging().sensors[key] = value

    # ------------------------------------------------------------ custom API
    def log(self, key: str, value) -> None:
        """Log a custom key-value pair (tensor or scalar) on the open frame."""
        t0 = time.perf_counter()
        frame = self._frame_for_logging()
        if isinstance(value, np.ndarray):
            frame.tensors[key] = np.array(value, copy=True)
        elif isinstance(value, (int, float, np.floating, np.integer)):
            frame.scalars[key] = float(value)
        else:
            frame.sensors[key] = value
        self.monitor_overhead_ms += (time.perf_counter() - t0) * 1e3

    def wrap(self, key: str, fn):
        """Wrap a pipeline function so its input and output are logged.

        The ML-EXray way to instrument e.g. a channel-extraction function::

            extract = monitor.wrap("channel_extraction", extract)
        """

        def wrapped(*args, **kwargs):
            if args and isinstance(args[0], np.ndarray):
                self.log(f"{key}/in", args[0])
            out = fn(*args, **kwargs)
            if isinstance(out, np.ndarray):
                self.log(f"{key}/out", out)
            return out

        return wrapped

    def _frame_for_logging(self) -> FrameLog:
        if self._current is not None:
            return self._current
        # Logging outside an inference window opens a frame lazily (sensor
        # events often precede on_inf_start); the explicit on_inf_start
        # later adopts it.
        self._current = FrameLog(step=self._step)
        self._lazy_frame = True
        self._inf_started_at = time.perf_counter()
        return self._current

    # -------------------------------------------------------------- summary
    def summary(self) -> dict:
        """Aggregate latency/memory statistics across the whole stream.

        Works for every sink — bounded sinks (ring buffer, directory) keep
        running aggregates, so the summary covers every frame ever emitted,
        not just the retained window. Latency/wall statistics cover
        inference frames only; flushed sensor-only frames (which carry
        zero latency by construction) are reported separately as
        ``sensor_only_frames``.
        """
        stats = self.sink.stats
        if stats.num_frames == 0:
            raise ValidationError(f"monitor {self.name!r} has no frames")
        out = stats.summary()
        out["monitor_overhead_ms"] = self.monitor_overhead_ms
        return out


MLEXray = EdgeMLMonitor
"""Paper-facing alias: ``MLEXray.on_inf_start()`` reads like the paper's API."""
