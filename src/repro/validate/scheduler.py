"""Streaming sweep scheduler: one dispatch loop over ``concurrent.futures``.

:func:`iter_sweep` is a plain generator that yields each
:class:`~repro.validate.reporting.VariantResult` the moment it completes.
It dispatches variants in expected-failure order (kernel-bug presets and
override-bearing variants first, see
:func:`~repro.validate.variants.expected_failure_score`) and stops early
on two conditions:

* ``max_failures``: once that many variants fail validation, nothing more
  is dispatched; undispatched variants come back as ``skipped`` results,
  so a partial report still accounts for every variant.
* ``deadline_s``: a wall-clock budget for the whole sweep; when it
  expires, in-flight stragglers and the undispatched tail come back as
  ``cancelled`` (a running process-pool job cannot be interrupted, only
  abandoned).

Serial sweeps run each job inline and wrap its outcome in an already
completed :class:`~concurrent.futures.Future`; thread and process sweeps
submit to a pool. One ``wait(..., return_when=FIRST_COMPLETED)`` loop
serves all three, with an in-flight window of one job for serial.

Per-variant work is deterministic and order-independent (shared reference
log, seeded playback data, simulated latency), so draining the stream and
re-sorting into lineup order reproduces a serial sweep byte for byte —
which is what :func:`~repro.validate.sweep.run_sweep` does.

The shared reference pipeline streams to a
:class:`~repro.instrument.sinks.DirectorySink` directory exactly once, and
jobs carry its *path*: workers open it as a lazy
:class:`~repro.instrument.store.EXrayLog` instead of unpickling per-layer
tensors per job.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from collections import deque
from collections.abc import Callable, Iterator
from concurrent.futures import FIRST_COMPLETED, Future, wait
from pathlib import Path

from repro.util.errors import ValidationError
from repro.validate.execution import (
    _run_variant_args,
    build_reference_log,
    check_executor,
    check_log_dir_name,
    make_pool,
)
from repro.validate.reporting import (
    STATUS_CANCELLED,
    STATUS_SKIPPED,
    VariantResult,
)
from repro.validate.variants import (
    SweepVariant,
    order_by_expected_failure,
    plan_variants,
)


def _unrun(variant: SweepVariant, status: str,
           diagnostics: list | None = None) -> VariantResult:
    """A placeholder result for a variant the scheduler never finished."""
    return VariantResult(variant=variant, report=None, mean_latency_ms=0.0,
                         peak_memory_mb=0.0, status=status,
                         diagnostics=list(diagnostics or []))


def iter_sweep(
    model: str,
    variants: list[SweepVariant] | tuple[SweepVariant, ...] | None = None,
    *,
    frames: int = 16,
    executor: str = "process",
    workers: int | None = None,
    always_assert: bool = False,
    tag: str = "sweep",
    max_failures: int | None = None,
    deadline_s: float | None = None,
    on_dispatch: Callable[[SweepVariant], None] | None = None,
    log_dir: str | Path | None = None,
    ref_log_dir: str | Path | None = None,
) -> Iterator[VariantResult]:
    """Yield one :class:`VariantResult` per variant, as each completes.

    Every variant in the lineup is accounted for: completed results come
    out in completion order, and once the sweep stops early the remaining
    variants arrive as ``skipped``/``cancelled`` placeholders. Parameters
    mirror :func:`~repro.validate.sweep.run_sweep`, plus ``on_dispatch``,
    a hook called with each variant just before it is handed to an
    executor.

    The zoo prewarm and the shared reference run happen before the first
    dispatch. The reference streams to ``log_dir/reference`` under
    ``log_dir`` (where each variant's edge log streams to
    ``log_dir/<variant name>``), otherwise to a temporary directory removed
    when the generator finishes or is closed. ``ref_log_dir`` names an
    existing reference-log directory to reuse instead; it is never rebuilt
    nor removed.

    The lineup is linted first
    (:func:`~repro.analysis.preflight.preflight_lineup`): variants with
    error-level diagnostics are yielded at once as ``skipped`` results
    carrying them, and warnings ride along on the results of variants
    that still run.
    """
    # Lineup *structure* problems (empty, duplicate names) always raise;
    # per-variant field problems become skipped results under pre-flight.
    variants = plan_variants(variants)
    check_executor(executor, workers)
    if max_failures is not None and max_failures < 1:
        raise ValidationError(f"max_failures must be >= 1, got {max_failures}")
    if deadline_s is not None and deadline_s < 0:
        raise ValidationError(f"deadline_s must be >= 0, got {deadline_s}")

    # Warm the on-disk weight cache in the parent so pool workers load
    # trained parameters instead of each retraining the model.
    from repro.zoo.registry import ensure_trained
    ensure_trained(model)

    from repro.analysis.preflight import preflight_lineup

    carried: dict[str, list] = {}
    reports = preflight_lineup(model, variants)
    runnable = []
    for variant in variants:
        report = reports[variant.name]
        if report.has_errors:
            yield _unrun(variant, STATUS_SKIPPED, report.diagnostics)
            continue
        if report.diagnostics:
            carried[variant.name] = list(report.diagnostics)
        runnable.append(variant)
    variants = runnable
    if not variants:
        return

    log_root = Path(log_dir) if log_dir is not None else None
    if log_root is not None:
        # Fail before any dispatch: a variant named "reference" (or with
        # path separators) would collide with the reference stream.
        for variant in variants:
            check_log_dir_name(variant.name)
    if ref_log_dir is not None:
        ref_root = Path(ref_log_dir)
        if not (ref_root / "meta.json").exists():
            raise ValidationError(
                f"ref_log_dir {ref_root} is not an EXray log directory "
                "(no meta.json); stream the reference there first, e.g. "
                "with build_reference_log(log_root=...)")
    elif log_root is not None:
        ref_root = log_root / "reference"
    else:
        ref_root = Path(tempfile.mkdtemp(prefix="exray-ref-"))
    ref_is_temp = ref_log_dir is None and log_root is None

    # A plain args tuple and the top-level worker keep jobs picklable for
    # process pools; the reference log rides along as a path.
    log_arg = str(log_root) if log_root is not None else None
    queue = deque(order_by_expected_failure(variants))
    pool = None

    def submit(variant: SweepVariant) -> Future:
        args = (model, variant, frames, always_assert, tag,
                str(ref_root), log_arg)
        if pool is not None:
            return pool.submit(_run_variant_args, args)
        # Serial: run in this thread, so each result reaches the
        # consumer before the next variant is dispatched.
        future = Future()
        try:
            future.set_result(_run_variant_args(args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    try:
        if ref_log_dir is None:
            build_reference_log(model, frames, tag, log_root=ref_root)
        deadline = (time.monotonic() + deadline_s
                    if deadline_s is not None else None)
        if executor == "serial" or len(queue) == 1:
            window = 1
        else:
            pool, window = make_pool(executor, len(queue), workers)
        inflight: dict[Future, SweepVariant] = {}
        failures = 0

        while queue or inflight:
            while (queue and len(inflight) < window
                   and (max_failures is None or failures < max_failures)
                   and (deadline is None or time.monotonic() < deadline)):
                variant = queue.popleft()
                if on_dispatch is not None:
                    on_dispatch(variant)
                inflight[submit(variant)] = variant
            if not inflight:
                break  # a limit tripped with nothing running: drain the tail
            timeout = (None if deadline is None
                       else max(0.0, deadline - time.monotonic()))
            done, _ = wait(inflight, timeout=timeout,
                           return_when=FIRST_COMPLETED)
            if not done:
                # Deadline expired mid-flight: revoke or abandon stragglers.
                for future, variant in inflight.items():
                    future.cancel()
                    yield _unrun(variant, STATUS_CANCELLED)
                inflight.clear()
                break
            for future in [f for f in inflight if f in done]:
                del inflight[future]
                result = future.result()
                if not result.healthy:
                    failures += 1
                if result.variant.name in carried:
                    result.diagnostics = list(carried[result.variant.name])
                yield result
        tail_status = (STATUS_CANCELLED
                       if deadline is not None and time.monotonic() >= deadline
                       else STATUS_SKIPPED)
        while queue:
            yield _unrun(queue.popleft(), tail_status)
    finally:
        # Also reached when the consumer closes the stream early: queued
        # pool jobs are revoked, running ones abandoned.
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        if ref_is_temp:
            shutil.rmtree(ref_root, ignore_errors=True)
