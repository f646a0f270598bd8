"""Traced runs: spans around the calls into each layer of ``src/repro``.

A :class:`Tracer` is installed only for a traced run (``--trace 1``); the
end-to-end numbers always come from an untraced run, which uses
:data:`NO_TRACE`. Installing patches attributes that the program looks up
at call time -- class attributes (methods) and module attributes -- and
restores every one of them on exit, so nothing under ``src/`` changes.

Every span records its name, start, end, parent span and the request id of
the benchmark operation (frame, batch, verdict or sweep) it belongs to.
Spans stay in memory and are written out at the end as Chrome trace-event
JSON, which Perfetto opens. Work inside ``Interpreter.invoke`` is too fine
for a span per call; it is accounted from the interpreter's own per-node
profile (kernel wall time by op class) and from two timed hooks (the
device latency model and the monitor's per-layer observer).
"""

from __future__ import annotations

import functools
import time
import weakref
from contextlib import contextmanager, nullcontext

import numpy as np

from bench import stats

clock = time.perf_counter

ROOFLINE_CLASSES = ("conv", "dwconv", "fc")
"""Op classes that get an achieved MAC rate and computed bytes moved."""

COMMON_KERNEL_CLASSES = ("conv", "dwconv", "fc", "mean", "pad", "softmax",
                         "quantize")
"""Kernel classes every workload executes (so each has a sample on each)."""

PER_LAYER = (
    ("pipelines.preprocess_ms_p50", "ms"),
    ("runtime.invoke_ms_p50", "ms"),
    ("runtime.dispatch_ms_p50", "ms"),
    ("runtime.units_per_invoke", "count"),
    ("runtime.plan_compile_ms", "ms"),
    ("runtime.peak_activation_bytes", "B"),
    *((f"kernels.{c}.ms_per_invoke", "ms") for c in COMMON_KERNEL_CLASSES),
    *((f"kernels.{c}.gmacs_per_s", "GMAC/s") for c in ROOFLINE_CLASSES),
    *((f"kernels.{c}.mb_moved_per_invoke", "MB") for c in ROOFLINE_CLASSES),
    ("perfmodel.latency_model_ms_per_invoke", "ms"),
    ("instrument.layer_observer_ms_per_invoke", "ms"),
    ("zoo.get_model_ms_p50", "ms"),
)
"""Per-layer metrics a traced run reports: (name, unit)."""


class _NoTrace:
    """The untraced run's tracer: operations open no span."""

    _ctx = nullcontext()

    def op(self, name: str):
        return self._ctx


NO_TRACE = _NoTrace()


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, rid]
        self._stack: list[int] = []
        self._rid = 0
        self._last_rid = 0
        self._undo: list[tuple] = []
        self._work = weakref.WeakKeyDictionary()   # plan -> {batch: totals}
        self.reset_counters()

    def reset_counters(self) -> None:
        """Forget invoke accounting (called when the timed phase starts)."""
        self.invokes = 0
        self.units = 0
        self.peak_activation = 0
        self.dispatch_ms: list[float] = []
        self.kernel_ms: dict[str, float] = {}
        self.kernel_calls: dict[str, int] = {}
        self.kernel_macs: dict[str, int] = {}
        self.kernel_bytes: dict[str, int] = {}
        self.perfmodel_ms = 0.0
        self.observer_ms = 0.0

    # ----------------------------------------------------------------- spans
    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), 0.0, parent, self._rid])
        self._stack.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = clock()
        self._stack.pop()

    @contextmanager
    def op(self, name: str):
        """Root span of one benchmark operation, with a fresh request id."""
        self._last_rid += 1
        self._rid = self._last_rid
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)
            self._rid = 0

    def timed(self, name: str, fn):
        """``fn`` wrapped in a span named ``name``."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(idx)
        return wrapper

    def timed_iter(self, name: str, fn):
        """A generator function wrapped so each ``next`` is one span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    idx = self._begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._end(idx)
                    yield item
            finally:
                inner.close()
        return wrapper

    # ---------------------------------------------------------------- hooks
    def _app_init(self, init):
        tracer = self

        @functools.wraps(init)
        def wrapper(app, *args, **kwargs):
            idx = tracer._begin("pipelines.app_init")
            try:
                init(app, *args, **kwargs)
            finally:
                tracer._end(idx)
            app.preprocess = tracer.timed("pipelines.preprocess",
                                          app.preprocess)
        return wrapper

    def _invoke(self, invoke):
        tracer = self

        @functools.wraps(invoke)
        def wrapper(interp, feeds):
            idx = tracer._begin("runtime.invoke")
            try:
                out = invoke(interp, feeds)
            finally:
                tracer._end(idx)
            span = tracer.spans[idx]
            tracer._account(interp, feeds, (span[2] - span[1]) * 1e3)
            return out
        return wrapper

    def _account(self, interp, feeds, invoke_ms: float) -> None:
        plan = interp.plan
        kernel_ms = self.kernel_ms
        total = 0.0
        for rec in interp.last_profile:
            cls = rec["op_class"]
            kernel_ms[cls] = kernel_ms.get(cls, 0.0) + rec["wall_ms"]
            total += rec["wall_ms"]
        batch = _batch_of(feeds)
        for cls, (calls, macs, nbytes) in self._plan_work(plan, batch).items():
            self.kernel_calls[cls] = self.kernel_calls.get(cls, 0) + calls
            self.kernel_macs[cls] = self.kernel_macs.get(cls, 0) + macs
            self.kernel_bytes[cls] = self.kernel_bytes.get(cls, 0) + nbytes
        self.dispatch_ms.append(invoke_ms - total)
        self.invokes += 1
        self.units += len(plan.schedule)
        self.peak_activation = max(self.peak_activation,
                                   interp.last_peak_activation_bytes)

    def _plan_work(self, plan, batch: int) -> dict:
        """Per-class (nodes, MACs, computed bytes) of one invoke of a plan.

        MACs come from the cost model's work accounting; bytes are computed
        from tensor sizes (inputs + weights + output), not measured.
        """
        per_batch = self._work.setdefault(plan, {})
        totals = per_batch.get(batch)
        if totals is None:
            graph = plan.graph
            totals = {}
            for b in plan.bindings:
                calls, macs, nbytes = totals.get(b.op_class, (0, 0, 0))
                if b.op_class in ROOFLINE_CLASSES:
                    macs += plan.work(b.index, batch).macs
                    nbytes += _tensor_bytes(graph, b.node, batch)
                totals[b.op_class] = (calls + 1, macs, nbytes)
            per_batch[batch] = totals
        return totals

    def _accumulate(self, attr: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                setattr(tracer, attr,
                        getattr(tracer, attr) + (clock() - t0) * 1e3)
        return wrapper

    # --------------------------------------------------------------- install
    def _patch(self, owner, name: str, make) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, make(original))

    @contextmanager
    def installed(self):
        """Install every layer hook; all are restored on exit."""
        import repro.zoo as zoo
        from repro.analysis import preflight
        from repro.instrument.monitor import EdgeMLMonitor
        from repro.instrument.sinks import LogSink
        from repro.instrument.store import EXrayLog
        from repro.perfmodel.device import Device
        from repro.pipelines.edge import EdgeApp
        from repro.runtime.interpreter import Interpreter
        from repro.validate import execution, scheduler, session, triage

        def span(name):
            return lambda fn: self.timed(name, fn)

        try:
            self._patch(EdgeApp, "__init__", self._app_init)
            self._patch(EdgeApp, "run", span("pipelines.app_run"))
            self._patch(EdgeApp, "run_batched", span("pipelines.app_run"))
            self._patch(Interpreter, "invoke", self._invoke)
            self._patch(Device, "layer_latency_ms",
                        lambda fn: self._accumulate("perfmodel_ms", fn))
            self._patch(EdgeMLMonitor, "_on_layer",
                        lambda fn: self._accumulate("observer_ms", fn))
            self._patch(EdgeMLMonitor, "on_inf_stop",
                        span("instrument.frame_close"))
            self._patch(EdgeMLMonitor, "close", span("instrument.monitor_close"))
            self._patch(LogSink, "emit", span("instrument.sink_emit"))
            self._patch(EXrayLog, "load", lambda cm: classmethod(
                self.timed("store.load", cm.__func__)))
            self._patch(EXrayLog, "iter_frames",
                        lambda fn: self.timed_iter("store.read", fn))
            self._patch(EXrayLog, "frame", span("store.read"))
            self._patch(session.DebugSession, "run", span("validate.session"))
            self._patch(session, "per_layer_diff", span("validate.layer_diff"))
            self._patch(scheduler, "build_reference_log",
                        span("validate.reference"))
            self._patch(execution, "run_variant", span("validate.variant"))
            self._patch(triage, "triage_sweep", span("validate.triage"))
            self._patch(preflight, "preflight_lineup", span("analysis.preflight"))
            self._patch(zoo, "get_model", span("zoo.get_model"))
            yield self
        finally:
            while self._undo:
                owner, name, original = self._undo.pop()
                setattr(owner, name, original)

    # --------------------------------------------------------------- results
    def _op_spans(self):
        """(span, self ms) for every span inside a benchmark operation."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, rid in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s, (s[2] - s[1] - child[i]) * 1e3)
                for i, s in enumerate(self.spans) if s[4] > 0]

    def layer_table(self) -> tuple[list[tuple], float]:
        """Self time per layer inside operations, and its coverage.

        Rows are ``(layer, calls/op, self ms/op, share, p50 ms)``. The
        ``runtime.invoke`` span is split into kernel classes (the
        interpreter's per-node wall time), the latency model, the layer
        observer, and what remains. Coverage is the share of operation time
        that lies in layer spans rather than in the benchmark's own loop.
        """
        ops = sum(1 for s in self.spans if s[3] < 0 and s[4] > 0)
        if ops == 0:
            return [], 0.0
        by_name: dict[str, list] = {}
        op_ms = 0.0
        unattributed = 0.0
        for span, self_ms in self._op_spans():
            if span[3] < 0:
                op_ms += (span[2] - span[1]) * 1e3
                unattributed += self_ms
                continue
            entry = by_name.setdefault(span[0], [0, 0.0, []])
            entry[0] += 1
            entry[1] += self_ms
            entry[2].append((span[2] - span[1]) * 1e3)
        rows = []
        for name, (calls, self_ms, durations) in by_name.items():
            if name == "runtime.invoke":
                split = sum(self.kernel_ms.values()) + self.perfmodel_ms \
                    + self.observer_ms
                self_ms -= split
                for cls, ms in self.kernel_ms.items():
                    rows.append((f"kernels.{cls}", self.kernel_calls.get(
                        cls, 0) / ops, ms / ops, ms / op_ms, None))
                rows.append(("perfmodel.latency_model", None,
                             self.perfmodel_ms / ops, self.perfmodel_ms / op_ms,
                             None))
                rows.append(("instrument.layer_observer", None,
                             self.observer_ms / ops, self.observer_ms / op_ms,
                             None))
            rows.append((name, calls / ops, self_ms / ops, self_ms / op_ms,
                         stats.percentile(durations, 50)))
        rows.append(("(benchmark loop)", None, unattributed / ops,
                     unattributed / op_ms, None))
        rows.sort(key=lambda r: r[0])
        return rows, 1.0 - unattributed / op_ms

    def per_layer_metrics(self, plan_compile_ms: float) -> dict:
        """The :data:`PER_LAYER` metrics by name.

        Medians cover the spans inside operations, except the zoo build,
        which the inference workloads only do in set-up.
        """
        def p50(name, in_ops=True):
            durations = [(s[2] - s[1]) * 1e3 for s in self.spans
                         if s[0] == name and (s[4] > 0 or not in_ops)]
            if not durations:
                return 0.0, 0
            return stats.percentile(durations, 50), len(durations)

        n = self.invokes
        per = max(n, 1)
        values = {
            "pipelines.preprocess_ms_p50": p50("pipelines.preprocess"),
            "runtime.invoke_ms_p50": p50("runtime.invoke"),
            "runtime.dispatch_ms_p50": (
                stats.percentile(self.dispatch_ms, 50) if n else 0.0, n),
            "runtime.units_per_invoke": (self.units / per, n),
            "runtime.plan_compile_ms": (plan_compile_ms, 1),
            "runtime.peak_activation_bytes": (float(self.peak_activation), n),
            "perfmodel.latency_model_ms_per_invoke": (self.perfmodel_ms / per, n),
            "instrument.layer_observer_ms_per_invoke": (
                self.observer_ms / per, n),
            "zoo.get_model_ms_p50": p50("zoo.get_model", in_ops=False),
        }
        for cls in COMMON_KERNEL_CLASSES:
            values[f"kernels.{cls}.ms_per_invoke"] = (
                self.kernel_ms.get(cls, 0.0) / per,
                self.kernel_calls.get(cls, 0))
        for cls in ROOFLINE_CLASSES:
            seconds = self.kernel_ms.get(cls, 0.0) / 1e3
            calls = self.kernel_calls.get(cls, 0)
            values[f"kernels.{cls}.gmacs_per_s"] = (
                self.kernel_macs.get(cls, 0) / seconds / 1e9 if seconds else 0.0,
                calls)
            values[f"kernels.{cls}.mb_moved_per_invoke"] = (
                self.kernel_bytes.get(cls, 0) / per / 1e6, calls)
        return {name: stats.Metric(values[name][0], unit, values[name][1])
                for name, unit in PER_LAYER}

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (opens in Perfetto)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        events = [{
            "name": name, "cat": name.split(".")[0], "ph": "X",
            "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
            "pid": 1, "tid": 1, "args": {"request": rid, "parent": parent},
        } for name, start, end, parent, rid in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _batch_of(feeds) -> int:
    arr = feeds if isinstance(feeds, np.ndarray) else next(iter(feeds.values()))
    return int(np.shape(arr)[0]) if np.ndim(arr) else 1


def _tensor_bytes(graph, node, batch: int) -> int:
    """Computed bytes a node touches: its inputs, weights and outputs."""
    total = sum(w.nbytes for w in node.weights.values())
    for name in (*node.inputs, *node.outputs):
        spec = graph.spec(name)
        total += spec.numel(batch) * np.dtype(spec.dtype).itemsize
    return total
