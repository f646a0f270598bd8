"""Sweep pre-flight: statically vet a lineup before any worker runs.

A sweep variant can be doomed before execution — its stage cannot be
built, its overrides name recipe keys that do not exist, its kernel-bug
preset targets ops the graph never runs. :func:`preflight_lineup` runs the
pipeline-category lint rules for every variant against its stage's graph
and returns one :class:`~repro.analysis.diagnostics.LintReport` per
variant; the scheduler marks variants with error-severity findings as
``skipped`` (diagnostics attached) instead of burning a worker on them.

Each variant lints its stage's graph from the zoo, which builds every
stage once per process and hands out that one frozen graph; a stage that
fails to build is tried once per lineup.
"""

from __future__ import annotations

from repro.analysis.diagnostics import LintReport
from repro.analysis.registry import lint_graph, make_diagnostic
from repro.util.errors import ReproError


def preflight_variant(model: str, variant, graph) -> LintReport:
    """Lint one variant's deployment configuration against its graph.

    ``graph`` may be ``None`` when the variant's stage could not be built;
    only rules that survive without a graph (registry-name checks) run
    then — the caller is expected to add the S005 finding itself, since it
    holds the build exception.
    """
    return lint_graph(
        graph, variant=variant, categories=("pipeline",),
        target=f"{model}:{variant.name}")


def preflight_lineup(model: str, variants) -> dict[str, LintReport]:
    """Pre-flight every variant in a lineup; returns reports by name.

    A stage that cannot be built contributes an S005 diagnostic to every
    variant that wanted it, alongside whatever the graph-free rules find;
    its build is not retried for later variants.
    """
    from repro.validate.variants import STAGES
    from repro.zoo import get_model

    build_errors: dict[str, str] = {}
    reports: dict[str, LintReport] = {}
    for variant in variants:
        graph = None
        stage = variant.stage
        if stage in STAGES and stage not in build_errors:
            # Unknown stages never reach the zoo: S002 already names them.
            try:
                graph = get_model(model, stage=stage)
            except ReproError as exc:
                build_errors[stage] = str(exc)
        report = preflight_variant(model, variant, graph)
        if stage in build_errors:
            report.diagnostics.append(make_diagnostic(
                "S005",
                f"variant {variant.name!r}: stage {stage!r} of model "
                f"{model!r} cannot be built: {build_errors[stage]}",
                graph=model,
                evidence={"stage": stage, "error": build_errors[stage]}))
        reports[variant.name] = report
    return reports
