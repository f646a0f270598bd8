"""Deployment sweeps: one model × many edge-app variants.

TinyMLOps-style fleet validation: the same model is deployed under many
(preprocess recipe × resolver × kernel-bug preset × device × stage)
combinations, and every variant is validated against the model's reference
pipeline with a full :class:`~repro.validate.session.DebugSession`.

This module is the stable façade over the sweep stack, which is
decomposed by concern:

* :mod:`repro.validate.variants` — variant specs, parsing, validation,
  expected-failure priorities (planning);
* :mod:`repro.validate.execution` — the picklable per-variant worker,
  shared reference-pipeline run, pool construction (execution);
* :mod:`repro.validate.scheduler` — the streaming scheduler
  (:func:`~repro.validate.scheduler.iter_sweep`): a generator over
  ``concurrent.futures`` executors that yields results as they complete
  and stops early on a failure limit or a deadline;
* :mod:`repro.validate.reporting` — per-variant results and the aggregate
  :class:`SweepReport`;
* :mod:`repro.validate.triage` — cross-variant root-cause clustering over
  layer-drift fingerprints;
* :mod:`repro.validate.shard` / :mod:`repro.validate.merge` — fleet-scale
  distribution: portable shard manifests, the shard worker
  (:func:`~repro.validate.shard.run_shard`), and the deterministic merge
  (:func:`~repro.validate.merge.merge_shards`) that folds shard artifacts
  back into one report.

:func:`run_sweep` drains :func:`~repro.validate.scheduler.iter_sweep` and
re-sorts the results into lineup order; since all per-variant work is
deterministic and order-independent (shared reference log, seeded playback
data, simulated latency), its reports are byte-identical across executors.
"""

from __future__ import annotations

from repro.runtime.resolver import KERNEL_BUG_PRESETS, make_resolver
from repro.validate.execution import (
    EXECUTORS,
    build_reference_log,
    run_variant,
)
from repro.validate.merge import merge_shards
from repro.validate.reporting import SweepReport, VariantResult
from repro.validate.scheduler import iter_sweep
from repro.validate.shard import (
    ShardManifest,
    plan_shards,
    run_shard,
    write_shards,
)
from repro.validate.variants import (
    DEFAULT_IMAGE_VARIANTS,
    STAGES,
    SweepVariant,
    coerce_override_value,
    expand_backends,
    parse_backends,
    parse_variant_spec,
)

__all__ = [
    "DEFAULT_IMAGE_VARIANTS",
    "EXECUTORS",
    "KERNEL_BUG_PRESETS",
    "STAGES",
    "ShardManifest",
    "SweepReport",
    "SweepVariant",
    "VariantResult",
    "build_reference_log",
    "coerce_override_value",
    "expand_backends",
    "make_resolver",
    "merge_shards",
    "parse_backends",
    "parse_variant_spec",
    "plan_shards",
    "run_shard",
    "run_sweep",
    "run_variant",
    "write_shards",
]


def run_sweep(
    model: str,
    variants: list[SweepVariant] | tuple[SweepVariant, ...] | None = None,
    frames: int = 16,
    executor: str = "process",
    workers: int | None = None,
    always_assert: bool = False,
    tag: str = "sweep",
    max_failures: int | None = None,
    deadline_s: float | None = None,
    on_result=None,
    backends: list[str] | str | None = None,
    log_dir=None,
    ref_log_dir=None,
    preflight: bool = True,
) -> SweepReport:
    """Validate many deployment variants of one model and block for all.

    Drains :func:`~repro.validate.scheduler.iter_sweep` and returns a
    :class:`SweepReport` whose results are in lineup order, whatever order
    they completed in.

    Parameters
    ----------
    model:
        Zoo model name.
    variants:
        Deployment variants to run; defaults to the Figure-4(a) image
        lineup (:data:`DEFAULT_IMAGE_VARIANTS`). Names must be unique.
    frames:
        Played-back frames per variant.
    executor:
        "process" (default), "thread", or "serial". All three produce
        identical reports; serial is the ground truth the parallel modes
        are tested against.
    workers:
        Pool size; defaults to ``min(len(variants), os.cpu_count())``.
    always_assert:
        Run root-cause assertions even when accuracy looks healthy.
    max_failures / deadline_s:
        Optional early stops (see
        :func:`~repro.validate.scheduler.iter_sweep`): stop dispatching
        after that many failed variants / cancel stragglers at the
        wall-clock budget. Unrun variants appear in the report as
        ``skipped``/``cancelled`` results.
    on_result:
        Optional ``(result, n_done, n_total)`` callback fired as each
        variant completes, in completion order — the progress hook behind
        ``repro sweep --stream``.
    backends:
        Optional backend axis (a list of resolver names, a comma-separated
        string, or ``"all"``): the lineup is fanned across these kernel
        backends before scheduling, one clone per (variant, backend) named
        ``variant@backend`` — the ``repro sweep --backends`` axis.
    log_dir:
        Stream every log to this directory as the sweep runs: the shared
        reference run lands in ``log_dir/reference`` and each variant's
        edge log in ``log_dir/<variant name>`` (DirectorySink shards,
        inspectable mid-sweep with ``repro log show``). Without it the
        reference still streams through a temporary directory — jobs
        always share the reference by path, never by pickled tensors.
    ref_log_dir:
        Path of an existing streamed reference log to share instead of
        running the reference pipeline (the fleet-mode seam sharded sweeps
        use: the planner builds the reference once, every shard worker
        reuses it by path).
    preflight:
        Statically lint each variant before dispatch (the default):
        variants the analyzer proves broken — unknown registry names, bad
        preprocess override keys, unbuildable stages — come back as
        ``skipped`` results carrying their
        :class:`~repro.analysis.diagnostics.Diagnostic` list instead of
        ever executing, and warning-level findings ride along on the
        results of variants that still run. ``preflight=False`` restores
        raise-on-first-bad-field behaviour (``repro sweep
        --no-preflight``).
    """
    # The scheduler owns validation (plan_variants); here the lineup is
    # only needed for its length and report order, so the backend axis is
    # expanded eagerly to keep both views of the lineup identical.
    variants = list(variants if variants is not None
                    else DEFAULT_IMAGE_VARIANTS)
    if backends is not None:
        variants = expand_backends(variants, backends)
    results = []
    for result in iter_sweep(
            model, variants, frames=frames, executor=executor,
            workers=workers, always_assert=always_assert, tag=tag,
            max_failures=max_failures, deadline_s=deadline_s,
            log_dir=log_dir, ref_log_dir=ref_log_dir, preflight=preflight):
        results.append(result)
        if on_result is not None:
            on_result(result, len(results), len(variants))
    # The scheduler yields in completion (priority) order; the report
    # presents the lineup order, so every executor renders the same bytes.
    lineup = {variant.name: i for i, variant in enumerate(variants)}
    results.sort(key=lambda r: lineup[r.variant.name])
    return SweepReport(model=model, frames=frames, results=results)
