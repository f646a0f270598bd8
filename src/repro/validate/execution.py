"""Sweep variant execution: the per-variant worker and pool construction.

One :func:`run_variant` call runs a deployment variant end to end —
instrumented edge app, (shared) reference pipeline, and a full
:class:`~repro.validate.session.DebugSession` — and returns a
:class:`~repro.validate.reporting.VariantResult`. Everything here is
top-level and picklable so process pools can execute it; determinism of
the zoo cache, playback data, and the device latency model makes parallel
results byte-identical to a serial run.

The shared reference log travels as a *sink path*: the scheduler streams
the reference pipeline once into a
:class:`~repro.instrument.sinks.DirectorySink` directory and every job
carries that path instead of a pickled in-memory log, so per-layer
reference tensors are read lazily in each worker rather than serialized
into every job. With ``log_dir`` set, workers likewise stream their edge
logs to per-variant DirectorySink directories.

Both the reference run and each variant's edge run are offline replays of
playback data, so they go through :meth:`EdgeApp.replay
<repro.pipelines.edge.EdgeApp.replay>`: ``REPLAY_BATCH`` frames per invoke,
with the per-frame logs a one-frame-at-a-time run writes.
"""

from __future__ import annotations

import os
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

from repro.instrument.monitor import EdgeMLMonitor
from repro.instrument.sinks import DirectorySink
from repro.instrument.store import EXrayLog
from repro.perfmodel.device import DEVICES
from repro.pipelines.edge import EdgeApp, make_preprocess
from repro.pipelines.reference import build_reference_app
from repro.runtime.resolver import make_resolver
from repro.util.errors import ValidationError
from repro.validate.reporting import VariantResult
from repro.validate.session import DebugSession
from repro.validate.variants import SweepVariant

EXECUTORS = ("process", "thread", "serial")


def check_executor(executor: str, workers: int | None = None) -> None:
    """Validate the executor name and worker count, in the parent process."""
    if executor not in EXECUTORS:
        raise ValidationError(
            f"unknown executor {executor!r}; use one of {EXECUTORS}")
    if workers is not None and workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")


def make_pool(
    executor: str, n_jobs: int, workers: int | None,
) -> tuple[Executor, int]:
    """Build the process/thread pool for ``n_jobs`` variants.

    Returns the pool plus its worker count (the scheduler's in-flight
    window).
    """
    max_workers = workers or min(n_jobs, os.cpu_count() or 1)
    pool = ProcessPoolExecutor if executor == "process" else ThreadPoolExecutor
    return pool(max_workers=max_workers), max_workers


def build_reference_log(
    model: str,
    frames: int,
    tag: str = "sweep",
    log_root: str | Path | None = None,
) -> EXrayLog:
    """Run the model's reference pipeline once and return its log.

    The reference run depends only on (model, frames, tag) — never on a
    variant — so a sweep computes it once and shares it across workers.
    With ``log_root`` the reference monitor streams its frames to that
    directory (a :class:`~repro.instrument.sinks.DirectorySink`) and the
    returned log is a lazy reader over it — the sweep then shares the
    reference as a *path* instead of pickling per-layer tensors into every
    worker job.
    """
    from repro.zoo import get_model, playback_data

    raw, labels = playback_data(model, frames, tag)
    sink = DirectorySink(log_root) if log_root is not None else None
    reference = build_reference_app(get_model(model, "mobile"), sink=sink)
    reference.replay(raw, labels)
    reference.monitor.close()
    return reference.log()


def resolve_ref_log(ref_log: EXrayLog | str | Path | None) -> EXrayLog | None:
    """Accept a shared reference log as an object or a log-directory path."""
    if isinstance(ref_log, (str, Path)):
        return EXrayLog.load(ref_log)
    return ref_log


def check_log_dir_name(name: str) -> None:
    """Reject variant names that cannot be a log subdirectory name.

    Under ``log_dir`` each variant's stream lands in ``log_dir/<name>``, so
    the name must be a single path component and must not collide with the
    ``reference`` directory the shared reference log streams into.
    """
    if name == "reference":
        raise ValidationError(
            "variant name 'reference' is reserved under log_dir (the shared "
            "reference log streams to <log_dir>/reference); rename the "
            "variant")
    if name in (".", "..") or any(sep in name for sep in ("/", "\\")):
        raise ValidationError(
            f"variant name {name!r} is not usable with log_dir: names "
            "become log subdirectories and must be single path components")


def run_variant(
    model: str,
    variant: SweepVariant,
    frames: int = 16,
    always_assert: bool = False,
    tag: str = "sweep",
    ref_log: EXrayLog | str | Path | None = None,
    log_dir: str | Path | None = None,
) -> VariantResult:
    """Run one deployment variant end to end: edge app, reference, session.

    Top-level (picklable) so process pools can execute it; relies only on
    the deterministic zoo cache and playback data. ``ref_log`` shares a
    precomputed reference run (see :func:`build_reference_log`) — either
    the log object itself or the *path* of a streamed log directory (what
    the scheduler passes, so jobs never carry pickled tensor payloads);
    without one, the variant runs its own reference pipeline.

    ``log_dir`` streams the variant's edge log to
    ``log_dir/<variant name>`` as the app runs (DirectorySink logs, O(1)
    frames resident) and validates from the streamed directory; the log
    stays on disk for post-hoc inspection (``repro log show``).
    """
    from repro.zoo import get_entry, get_model, playback_data

    variant.check()
    if log_dir is not None:
        check_log_dir_name(variant.name)
    entry = get_entry(model)
    graph = get_model(model, stage=variant.stage)
    raw, labels = playback_data(model, frames, tag)

    preprocess = make_preprocess(graph.metadata["pipeline"], variant.overrides) \
        if variant.overrides else None
    device = DEVICES[variant.device]
    edge_log_dir = Path(log_dir) / variant.name if log_dir is not None else None
    sink = DirectorySink(edge_log_dir) if edge_log_dir is not None else None
    edge = EdgeApp(
        graph,
        preprocess=preprocess,
        device=device,
        resolver=make_resolver(variant.resolver, variant.kernel_bugs),
        monitor=EdgeMLMonitor("edge", per_layer=True, sink=sink),
    )
    edge.replay(raw, labels, log_raw=entry.task == "classification")
    edge.monitor.close()
    ref_log = resolve_ref_log(ref_log)
    if ref_log is None:
        ref_log = build_reference_log(model, frames, tag)

    edge_log = edge.log()
    report = DebugSession(edge_log, ref_log, task=entry.task).run(
        always_run_assertions=always_assert)
    return VariantResult(
        variant=variant,
        report=report,
        mean_latency_ms=edge_log.mean_latency_ms(),
        peak_memory_mb=edge_log.peak_memory_mb(),
        log_dir=str(edge_log_dir) if edge_log_dir is not None else None,
    )


def _run_variant_args(args) -> VariantResult:
    return run_variant(*args)
