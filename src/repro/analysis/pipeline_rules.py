"""Pipeline/sweep rules (S001–S005): deployment configuration pre-flight.

These check the *deployment* around a graph: the preprocessing recipe
recorded in its metadata (with a variant's overrides applied) against the
graph's input spec, and a :class:`~repro.validate.variants.SweepVariant`'s
enum-like fields against the live registries — with "did you mean"
suggestions — before a sweep burns a worker on a statically-doomed variant.

S005 ("stage cannot be built") has no rule body: the pre-flight emits it
via :func:`~repro.analysis.registry.make_diagnostic` when building the
variant's stage raises, because there is no graph to run rules over.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.registry import RuleContext, register_rule
from repro.kernels.quantized.bugs import full_extent
from repro.runtime.plan import node_is_quantized
from repro.util.errors import did_you_mean

_IMAGE_TASKS = ("classification", "detection", "segmentation")

_CHANNEL_ORDERS = ("rgb", "bgr")

_BUG_TARGET_OPS = {
    "dwconv_accumulator_bits": ("depthwise_conv2d",),
    "avgpool_zero_point_bug": ("avg_pool2d",),
    "pad_ignores_zero_point": ("pad2d",),
}
"""Which int8 ops each KernelBugs flag can affect (avg pools: full-extent)."""


def _image_recipe(ctx: RuleContext) -> dict | None:
    """The effective image recipe: recorded metadata + variant overrides."""
    meta = (ctx.graph.metadata or {}).get("pipeline")
    if not meta or meta.get("task") not in _IMAGE_TASKS:
        return None
    recipe = dict(meta.get("image_preprocess", {}))
    if ctx.variant is not None:
        for key, value in ctx.variant.overrides.items():
            if key in recipe or key in ("target_size", "resize_method",
                                        "channel_order", "normalization",
                                        "rotation_k"):
                recipe[key] = value
    return recipe


@register_rule("S001", severity="error", category="pipeline",
               title="preprocess recipe contradicts the input spec")
def recipe_contract(ctx: RuleContext) -> Iterator[Diagnostic]:
    """The effective preprocessing recipe cannot feed the graph's input."""
    from repro.pipelines.preprocess import (
        _WEIGHT_BUILDERS,
        NORMALIZATIONS,
        SPEC_NORMALIZATIONS,
    )

    g = ctx.graph
    meta = (g.metadata or {}).get("pipeline")
    if not meta or not g.inputs:
        return
    task = meta.get("task")
    if task == "speech":
        name = meta.get("spectrogram_normalization")
        if ctx.variant is not None:
            name = ctx.variant.overrides.get("spectrogram_normalization", name)
        if name is not None and name not in SPEC_NORMALIZATIONS:
            yield ctx.diag(
                f"unknown spectrogram normalization {name!r}"
                f"{did_you_mean(name, SPEC_NORMALIZATIONS)}; available: "
                f"{sorted(SPEC_NORMALIZATIONS)}",
                evidence={"value": name})
        return
    recipe = _image_recipe(ctx)
    if recipe is None:
        return
    spec = g.tensors.get(g.inputs[0])
    shape = tuple(spec.shape) if spec is not None else ()
    target = recipe.get("target_size")
    if target is not None and len(shape) == 4:
        want = (shape[1], shape[2])
        if None not in want and tuple(target) != want:
            yield ctx.diag(
                f"recipe target_size {list(target)} != model input size "
                f"{list(want)} (input {g.inputs[0]!r} has shape "
                f"{list(shape)})",
                tensor=g.inputs[0],
                evidence={"target_size": list(target),
                          "input_hw": list(want)})
        channels = shape[3]
        if channels is not None and channels != 3:
            yield ctx.diag(
                f"image preprocessing produces 3-channel frames, but input "
                f"{g.inputs[0]!r} expects {channels} channel(s)",
                tensor=g.inputs[0], evidence={"channels": channels})
    order = recipe.get("channel_order")
    if order is not None and order not in _CHANNEL_ORDERS:
        yield ctx.diag(
            f"unknown channel order {order!r}"
            f"{did_you_mean(order, _CHANNEL_ORDERS)}; available: "
            f"{list(_CHANNEL_ORDERS)}",
            evidence={"value": order})
    norm = recipe.get("normalization")
    if norm is not None and norm not in NORMALIZATIONS:
        yield ctx.diag(
            f"unknown normalization scheme {norm!r}"
            f"{did_you_mean(norm, NORMALIZATIONS)}; available: "
            f"{sorted(NORMALIZATIONS)}",
            evidence={"value": norm})
    method = recipe.get("resize_method")
    if method is not None and method not in _WEIGHT_BUILDERS:
        yield ctx.diag(
            f"unknown resize method {method!r}"
            f"{did_you_mean(method, _WEIGHT_BUILDERS)}; available: "
            f"{sorted(_WEIGHT_BUILDERS)}",
            evidence={"value": method})


@register_rule("S002", severity="error", category="pipeline",
               title="unknown registry name in variant", needs_graph=False)
def variant_registry_names(ctx: RuleContext) -> Iterator[Diagnostic]:
    """A variant names a stage/resolver/bug-preset/device no registry has."""
    if ctx.variant is None:
        return
    for fieldname, value, available, message in ctx.variant.field_errors():
        yield ctx.diag(message, evidence={"field": fieldname, "value": value,
                                          "available": available})


@register_rule("S003", severity="warning", category="pipeline",
               title="kernel-bug preset cannot affect this graph")
def vacuous_kernel_bugs(ctx: RuleContext) -> Iterator[Diagnostic]:
    """A kernel-bug preset targets ops/domains absent from the graph.

    Kernel-bug presets flip behavior only in *quantized* kernels for
    specific ops; selecting one for a float-stage variant, or for a graph
    that never runs a targeted op, silently tests nothing — the experiment
    "injects" a bug the model can never hit. The average-pool flag reaches
    only full-extent (1x1-output) pools.

    The rule ignores the variant's resolver, so it stays silent on
    ``paper-optimized`` under ``reference``, although the reference
    depthwise loop never reads the accumulator flag: that clone in a
    ``--backends`` fan-out is a deliberate control.
    """
    variant = ctx.variant
    if variant is None or variant.kernel_bugs == "none":
        return
    from repro.runtime.resolver import KERNEL_BUG_PRESETS

    bugs = KERNEL_BUG_PRESETS.get(variant.kernel_bugs)
    if bugs is None:
        return  # S002 reports the unknown preset
    g = ctx.graph
    if not g.is_quantized:
        yield ctx.diag(
            f"variant {variant.name!r}: kernel-bug preset "
            f"{variant.kernel_bugs!r} only affects quantized kernels, but "
            f"the {variant.stage!r} graph is float — the preset is inert",
            evidence={"preset": variant.kernel_bugs,
                      "stage": variant.stage})
        return
    graph_ops = {node.op for node in g.nodes}
    reachable = {node.op for node in g.nodes if node_is_quantized(g, node)
                 and (node.op != "avg_pool2d"
                      or full_extent(g.spec(node.output).shape))}
    targeted: set[str] = set()
    for flag, ops in _BUG_TARGET_OPS.items():
        if getattr(bugs, flag) not in (None, False):
            targeted.update(ops)
    if targeted and not targeted & reachable:
        yield ctx.diag(
            f"variant {variant.name!r}: kernel-bug preset "
            f"{variant.kernel_bugs!r} targets int8 op(s) {sorted(targeted)} "
            "(average pools only when full-extent), none of which the "
            "graph runs — the preset is inert",
            evidence={"preset": variant.kernel_bugs,
                      "targeted_ops": sorted(targeted),
                      "graph_ops": sorted(graph_ops)})


@register_rule("S004", severity="error", category="pipeline",
               title="override key the recipe cannot accept")
def unknown_override_keys(ctx: RuleContext) -> Iterator[Diagnostic]:
    """A variant override names a key the task's recipe does not have."""
    variant = ctx.variant
    if variant is None or not variant.overrides:
        return
    meta = (ctx.graph.metadata or {}).get("pipeline")
    if not meta:
        return
    from repro.pipelines.edge import IMAGE_OVERRIDE_KEYS, SPEECH_OVERRIDE_KEYS

    task = meta.get("task")
    if task in _IMAGE_TASKS:
        known = IMAGE_OVERRIDE_KEYS
    elif task == "speech":
        known = SPEECH_OVERRIDE_KEYS
    elif task == "text":
        known = frozenset()
    else:
        return
    for key in sorted(set(variant.overrides) - known):
        yield ctx.diag(
            f"variant {variant.name!r}: override key {key!r} is not a "
            f"recipe field for task {task!r}"
            f"{did_you_mean(key, known)}; recognized: {sorted(known)}",
            evidence={"key": key, "task": task,
                      "recognized": sorted(known)})


@register_rule("S005", severity="error", category="pipeline",
               title="variant stage cannot be built", needs_graph=False)
def stage_unbuildable(ctx: RuleContext) -> Iterator[Diagnostic]:
    """Building the variant's model stage raises (emitted by pre-flight)."""
    return iter(())
