"""The EdgeML Monitor and the ML-EXray instrumentation API.

This is the Python rendering of the paper's multi-lingual API (§3.2, and the
C++/Java snippets in §3.2/appendix B). The same class instruments both the
edge pipeline and the reference pipeline, which is what makes their logs
directly comparable.

One lifecycle delimits every inference. A frame opens lazily on its first
log (sensor reads and "red dot" logs often precede the invoke); an
inference window puts open frames in flight, and
:meth:`~EdgeMLMonitor.on_inf_stop` closes the window and emits its frames
to the sink. The frame-scoped context manager is a window of one: it
adopts the lazily opened frame and discards it if the body raises::

    monitor = MLEXray("edge_app", per_layer=False)
    monitor.attach(interpreter)
    ...
    with monitor.frame(interpreter) as frame:
        outputs = interpreter.invoke(x)
        frame.tensors["model_output"] = outputs["probs"][0]

The paper-facing markers (``monitor.on_inf_start(); ...;
monitor.on_inf_stop(interp)``) open and close the same window, so the
3-line C++ example of §3.2 still reads one-to-one. Offline replays set each
frame's pre-invoke logs aside with :meth:`~EdgeMLMonitor.hold` and close
many frames with one batched invoke::

    for x in inputs:                       # one (1, ...) input per frame
        monitor.log("model_input", x[0])
        monitor.hold()
    with monitor.window(interpreter) as frames:
        out = interpreter.invoke(np.concatenate(inputs))

Each of a window's n frames is logged as an invoke of batch B/n, B being
the invoke's batch: ``layer_latency_ms``/``latency_ms`` are the simulated
latencies at batch B/n (without a device, the measured ones divided by n),
``memory_mb`` is the weights plus the activation peak at batch B/n, and
``wall_ms`` is the window's wall time divided by n. A window of one keeps
each layer output whole; a larger one splits it into a ``(1, ...)`` row
per frame. So 32 frames replayed per invoke log what a one-at-a-time run
logs, byte for byte wherever each row of the batch equals a batch-1 invoke,
except ``wall_ms``, which is a share rather than a measurement. Frames that
never reach a window (held or lazily opened frames at the end of the
stream) are emitted in step order by :meth:`~EdgeMLMonitor.flush`, marked
``sensor_only``.

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
        # The frame logs go to: lazy unless it is a window of one's frame.
        self._current: FrameLog | None = None
        self._held: list[FrameLog] = []
        self._window: list[FrameLog] | None = None  # the frames in flight
        self._window_interp: Interpreter | None = None
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
        frames = self._window
        if frames is None:
            return  # layer executed outside an inference window
        t0 = time.perf_counter()
        n = len(frames)
        name = record.node.name
        output = None
        if self.per_layer:
            output = record.output
            if record.quantized and record.spec.quant:
                output = record.spec.quant.dequantize(output)  # a fresh array
            else:
                output = np.array(output, copy=True)
            if n > 1 and output.shape[:1] != (n,):
                raise ValidationError(
                    f"layer {name!r} output {output.shape} does not lead with "
                    f"the window's {n} frames; it cannot be split "
                    "into per-frame records")
        latency_ms = record.latency_ms
        if n > 1:
            interp = self._window_interp
            latency_ms = latency_ms / n if interp.device is None \
                else _frame_latency_ms(interp, n)[0][record.index]
        for i, frame in enumerate(frames):
            frame.layer_latency_ms[name] = latency_ms
            frame.layer_ops[name] = record.node.op
            if output is not None:
                frame.tensors[f"layer/{name}"] = \
                    output if n == 1 else output[i:i + 1]
        self.monitor_overhead_ms += (time.perf_counter() - t0) * 1e3

    # ----------------------------------------------------- inference markers
    @contextmanager
    def frame(self, interpreter: Interpreter | None = None):
        """A window of one frame (:meth:`on_inf_start`) as a context manager.

        Yields the open :class:`FrameLog` so the body can attach outputs or
        labels, and closes it with :meth:`on_inf_stop` on exit::

            with monitor.frame(interpreter) as frame:
                out = interpreter.invoke(x)
                frame.tensors["model_output"] = out["probs"][0]

        If the body raises, the partial frame is *discarded* (sinks never
        see half-recorded frames), its step is reused, and the exception
        propagates.
        """
        self.on_inf_start()
        try:
            yield self._current
        except BaseException:
            self._discard()
            raise
        self.on_inf_stop(interpreter)

    def on_inf_start(self) -> None:
        """Mark the start of one model invocation: a window of one frame.

        The window's frame is the lazily opened one (sensor and custom logs
        often precede the invocation) or a new frame; logs go to it until
        :meth:`on_inf_stop`. Held frames must be closed with
        :meth:`window` first, or the sink would see steps out of order.
        """
        if self._held:
            raise ValidationError(
                f"{len(self._held)} held frame(s) precede this inference; "
                "close them with window() first")
        if self._window is not None:
            raise ValidationError("on_inf_start called twice without on_inf_stop")
        self._window = [self._frame_for_logging()]
        self._inf_started_at = time.perf_counter()

    def on_inf_stop(self, interpreter: Interpreter | None = None) -> FrameLog:
        """Close the in-flight window and emit its frames; returns the last.

        Each of the window's n frames is logged as an invoke of batch B/n of
        ``interpreter`` (see the module docstring): latency and memory come
        from the interpreter's last invoke, ``wall_ms`` is the window's wall
        time divided by n. Without an interpreter, ``latency_ms`` is that
        wall-time share.
        """
        frames = self._window
        if frames is None:
            raise ValidationError("on_inf_stop called without on_inf_start")
        t0 = time.perf_counter()
        n = len(frames)
        wall_ms = (t0 - self._inf_started_at) * 1e3 / n
        latency_ms, memory_mb = wall_ms, 0.0
        if interpreter is not None:
            latency_ms = interpreter.last_latency_ms / n \
                if interpreter.device is None \
                else _frame_latency_ms(interpreter, n)[1]
            memory_mb = (interpreter.weights_bytes()
                         + interpreter.plan.peak_activation_bytes(
                             interpreter.last_batch // n)) / 2**20
        if self._current is frames[0]:  # else window()'s body opened the
            self._current = None        # next frame, which stays open
        self._window = self._window_interp = self._inf_started_at = None
        for frame in frames:
            frame.wall_ms = wall_ms
            frame.latency_ms = latency_ms
            frame.memory_mb = memory_mb
            self.sink.emit(frame)
        self.monitor_overhead_ms += (time.perf_counter() - t0) * 1e3
        return frame

    def hold(self) -> None:
        """Set the open frame's pre-invoke logs aside for the next :meth:`window`.

        The frame keeps its step; the next log opens the next frame. Frames
        cannot be held while a window is in flight.
        """
        if self._window is not None:
            raise ValidationError("hold() inside an open inference frame")
        self._held.append(self._frame_for_logging())
        self._current = None

    @contextmanager
    def window(self, interpreter: Interpreter):
        """A window over every held frame, closed by one batched invoke.

        Yields the held frames, in order, so the body can attach outputs and
        labels; the body runs one invoke of ``interpreter``, usually one row
        per frame. On exit :meth:`on_inf_stop` closes the frames
        as batch-B/n invokes (see the module docstring). Logs in the body
        open the next frame. If the body raises, the held frames and any
        frame opened in the body are discarded and their steps reused.
        """
        if not self._held:
            raise ValidationError("window() without held frames; call hold() first")
        if self._current is not None:
            raise ValidationError("window() while a frame is open")
        frames, self._held = self._held, []
        self._window, self._window_interp = frames, interpreter
        self._inf_started_at = time.perf_counter()
        try:
            yield frames
        except BaseException:
            self._discard()
            raise
        self.on_inf_stop(interpreter)

    def _discard(self) -> None:
        """Drop the in-flight frames and any frame opened since; reuse their steps."""
        self._step = self._window[0].step
        self._current = None
        self._window = self._window_interp = self._inf_started_at = None

    def flush(self) -> FrameLog | None:
        """Emit the held and lazily opened frames that never saw an inference.

        Trailing sensor telemetry or an aborted inference would otherwise
        never reach the sink. The frames go out in step order, marked
        ``sensor_only`` (their zero latency/memory are placeholders that
        :meth:`summary` leaves out); the last is returned, or None. Frames
        in flight are left alone. Called by
        :func:`~repro.instrument.store.save_log`,
        :meth:`~repro.instrument.store.EXrayLog.from_monitor` and
        :meth:`close`. Flush at end of stream: a lazy frame may hold the
        leading sensor logs of an inference not yet started, which a
        mid-pipeline flush would split into a frame of their own.
        """
        frames, self._held = self._held, []
        if self._current is not None and self._window is None:
            frames.append(self._current)
            self._current = None
        for frame in frames:
            frame.sensor_only = True
            self.sink.emit(frame)
        return frames[-1] if frames else None

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
        # Logging with no frame open opens one lazily (sensor events often
        # precede on_inf_start, which adopts it); it takes the next step.
        if self._current is None:
            self._current = FrameLog(step=self._step)
            self._step += 1
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


def _frame_latency_ms(interpreter: Interpreter, n: int):
    """Simulated (per-layer, total) latency of one of n frames of the last invoke."""
    return interpreter.plan.latency_ms(interpreter.device,
                                       interpreter.last_batch // n)


MLEXray = EdgeMLMonitor
"""Paper-facing alias: ``MLEXray.on_inf_start()`` reads like the paper's API."""
