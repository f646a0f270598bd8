"""Run one workload: set-up, timed phase, correctness check, metrics."""

from __future__ import annotations

import copy
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import tempfile
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bench import BLAS_ENV, ROOT, SCRATCH, stats
from bench.stats import Metric
from bench.tracing import NO_TRACE, Tracer, clock
from bench.workloads import WORKLOADS

SETUP_REPS = 3
"""Set-ups per run: the workload's own, then copies spread over the run."""

GC_AFTER_S = 0.1
"""Rounds longer than this are followed by a (timed) ``gc.collect()``."""


@dataclass
class Result:
    """Everything one workload run measured."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    attempted: int
    failed: int
    errors: list[str]
    end_to_end: dict[str, Metric]
    report: dict[str, Metric]
    per_layer: dict[str, Metric] = field(default_factory=dict)
    layers: list[tuple] = field(default_factory=list)
    coverage: float | None = None
    tracer: Tracer | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors

    @property
    def exit_code(self) -> int:
        return 0 if self.correct else 1


@contextmanager
def scratch_dir(prefix: str):
    """A temporary directory inside the checkout, used as ``tempfile``'s
    default for the duration; removed (with ``.bench_tmp`` if empty) after.

    The benchmark reads and writes only inside its checkout, so the system
    temporary directory is not used; ``run_sweep`` and ``DebugSession``
    make their own temporary directories, hence the default is redirected.
    """
    SCRATCH.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=SCRATCH))
    previous = tempfile.tempdir
    tempfile.tempdir = str(path)
    try:
        yield path
    finally:
        tempfile.tempdir = previous
        shutil.rmtree(path, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass


PLAN_COMPILE_REPS = 5


def _plan_compile_ms(graphs) -> float:
    """Median time to compile a plan on a fresh interpreter."""
    from repro.runtime.interpreter import Interpreter

    samples = []
    for _ in range(PLAN_COMPILE_REPS):
        for graph in graphs:
            interp = Interpreter(graph)
            t0 = clock()
            interp.plan
            samples.append((clock() - t0) * 1e3)
    return stats.percentile(samples, 50)


def _median_latency(workload) -> float:
    """The mean over kinds (models, cases) of each kind's median latency.

    Kinds are kept apart: a median of the pooled samples would fall
    between two kinds and jump with either one's share of the run.
    """
    values = [stats.percentile(v, 50) for v in workload.latencies.values()
              if v]
    return sum(values) / len(values) if values else 0.0


def _timed_setup(workload) -> float:
    gc.collect()
    t0 = clock()
    workload.setup()
    return clock() - t0


def _copy_setup(workload, tmp: Path) -> float:
    """Time the set-up of a copy of ``workload`` in a directory of its own;
    the workload's own state and files are left as they were."""
    probe = copy.copy(workload)
    probe.tmp = Path(tempfile.mkdtemp(prefix="setup-", dir=tmp))
    try:
        return _timed_setup(probe)
    finally:
        shutil.rmtree(probe.tmp, ignore_errors=True)


def run_workload(name: str, seed: int, seconds: float, tmp: Path,
                 trace: bool = False, setup_reps: int = SETUP_REPS) -> Result:
    """Run ``name`` on the inputs of ``seed``.

    The workload sets up once, then the timed phase runs whole rounds until
    ``seconds`` have passed, and at least one round. ``setup_reps - 1``
    further set-ups, each of a copy of the workload, are spread evenly over
    the timed phase, outside the rounds. A round's duration counts all of
    its wall time, the benchmark loop and garbage collection included.

    The host's CPU runs 1.3-2x slower than its fast state for a fraction of
    a second to minutes at a time, so a median over a run says as much
    about the host as about the program. Every timing is therefore reported in
    the run's fast state: its median times :func:`stats.fast_factor` of
    the workload's steps, which needs only a tenth of the run to be fast.
    A traced run installs the layer hooks before set-up, sets up
    ``setup_reps`` times before the timed phase (so the hooks' counters see
    rounds only), and reports the per-layer metrics besides.
    """
    workload = WORKLOADS[name](seed, tmp)
    tracer = Tracer() if trace else NO_TRACE
    errors: list[str] = []
    rounds: list[float] = []                 # seconds per round
    with tracer.installed() if trace else nullcontext():
        setup_s = [_timed_setup(workload)]
        if trace:
            setup_s += [_copy_setup(workload, tmp)
                        for _ in range(setup_reps - 1)]
        plan_ms = _plan_compile_ms(workload.graphs) if trace else 0.0
        gc.collect()
        if trace:
            tracer.reset_counters()
        spread = [] if trace else \
            [seconds * k / setup_reps for k in range(1, setup_reps)]
        start = clock()
        while True:
            if spread and clock() - start >= spread[0]:
                spread.pop(0)
                setup_s.append(_copy_setup(workload, tmp))
            t0 = clock()
            try:
                workload.round(tracer)
            except Exception:
                errors.append(traceback.format_exc())
                break
            if clock() - t0 > GC_AFTER_S:
                # Long rounds leave cyclic garbage; collecting it here, not
                # whenever the collector happens to run, steadies peak memory.
                gc.collect()
            now = clock()
            rounds.append(now - t0)
            if now - start >= seconds and not spread:
                break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = workload.attempted + len(errors)
    try:
        failed = workload.check() + len(errors)
    except Exception:
        errors.append(traceback.format_exc())
        failed = attempted
    attempted = max(attempted, 1)

    latencies = [x for v in workload.latencies.values() for x in v]
    steps = [v for v in workload.steps.values() if v]
    n_steps = sum(map(len, steps))
    factor = stats.fast_factor(steps) if steps else 1.0
    items = workload.items_per_round
    round_s = stats.percentile(rounds, 50) if rounds else 0.0
    setup_p50 = stats.percentile(setup_s, 50)
    end_to_end = {
        "throughput_per_s": Metric(
            items / (factor * round_s) if rounds else 0.0, "1/s", len(rounds)),
        "latency_ms": Metric(factor * _median_latency(workload), "ms",
                             len(latencies)),
        "peak_rss_mb": Metric(rss_mb, "MB", 1),
        "setup_s": Metric(factor * setup_p50, "s", len(setup_s)),
    }
    report = {
        "fail_ratio": Metric(failed / attempted, "ratio", attempted),
        "fast_factor": Metric(factor, "ratio", n_steps),
        "throughput_per_s_whole_run": Metric(
            items * len(rounds) / sum(rounds) if rounds else 0.0, "1/s",
            len(rounds)),
        "latency_ms_p50": Metric(_median_latency(workload), "ms",
                                 len(latencies)),
        "setup_s_p50": Metric(setup_p50, "s", len(setup_s)),
    }
    tail = stats.tail(latencies)
    if tail is not None:
        report[f"latency_ms_{tail[0]}"] = Metric(tail[1], "ms", len(latencies))
    if not errors:
        report.update(workload.report())
    result = Result(name, seed, seconds, trace, attempted, failed, errors,
                    end_to_end, report)
    if trace:
        result.per_layer = tracer.per_layer_metrics(plan_ms)
        result.layers, result.coverage = tracer.layer_table()
        result.tracer = tracer
    return result


# ------------------------------------------------------------------ output

def result_line(result: Result) -> str:
    """The final stdout line: per-layer metrics when traced, else end-to-end."""
    metrics = result.per_layer if result.traced else result.end_to_end
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": float(m.value), "unit": m.unit}
                    for k, m in metrics.items()},
    })


def describe(result: Result) -> str:
    """Human-readable summary: every metric with its unit and sample count."""
    from repro.util.tabulate import format_table

    def rows(metrics):
        return [(k, m.value, m.unit, m.samples) for k, m in metrics.items()]

    head = (f"workload {result.workload}  seed {result.seed}  "
            f"seconds {result.seconds:g}  trace {int(result.traced)}  "
            f"attempted {result.attempted}  failed {result.failed}")
    parts = [head]
    cols = ("metric", "value", "unit", "samples")
    if result.traced:
        parts.append(format_table(cols, rows(result.per_layer),
                                  title="per-layer metrics (traced run):"))
        parts.append(format_table(
            ("layer", "calls/op", "self ms/op", "share", "p50 ms"),
            [tuple("" if v is None else v for v in row)
             for row in result.layers],
            title=(f"self time per layer ({result.coverage:.1%} of operation "
                   "time in layer spans; bytes moved are computed from "
                   "tensor sizes, not measured):")))
    else:
        parts.append(format_table(cols, rows(result.end_to_end),
                                  title="end-to-end metrics:"))
    parts.append(format_table(cols, rows(result.report),
                              title="report-only (not gated):"))
    parts.extend(result.errors)
    return "\n".join(parts)


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def record(result: Result) -> dict:
    """One JSONL trajectory entry for ``compare``."""
    def docs(metrics):
        return {k: m._asdict() for k, m in metrics.items()}

    doc = {
        "workload": result.workload, "seed": result.seed,
        "seconds": result.seconds, "trace": int(result.traced),
        "commit": _commit(),
        "env": {**{k: os.environ.get(k) for k in BLAS_ENV},
                "python": platform.python_version(),
                "numpy": np.__version__, "cpus": os.cpu_count()},
        "correct": result.correct, "attempted": result.attempted,
        "failed": result.failed,
        "end_to_end": docs(result.end_to_end), "report": docs(result.report),
    }
    if result.traced:
        doc["per_layer"] = docs(result.per_layer)
        doc["layer_coverage"] = result.coverage
        doc["layers"] = result.layers
    return doc


def write_trace(result: Result, trace_dir: Path) -> None:
    """``<workload>.trace.json`` (Perfetto) and ``<workload>.layers.txt``."""
    trace_dir.mkdir(parents=True, exist_ok=True)
    (trace_dir / f"{result.workload}.trace.json").write_text(
        json.dumps(result.tracer.chrome_trace()))
    (trace_dir / f"{result.workload}.layers.txt").write_text(
        describe(result) + "\n")
