"""Sweep variant planning: specs, parsing, validation, and dispatch priority.

A :class:`SweepVariant` is one deployment configuration of a swept model —
preprocess-recipe overrides (the §2 bug injections) plus stage, resolver,
kernel-bug preset, and simulated device. This module owns everything that
happens to variants *before* execution: parsing CLI specs, validating
fields against the live registries, de-duplicating a lineup, and ordering
it by expected failure so a streaming scheduler surfaces broken variants
first.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.perfmodel.device import DEVICES
from repro.runtime.resolver import KERNEL_BUG_PRESETS, RESOLVERS
from repro.util.errors import ValidationError, did_you_mean

STAGES = ("checkpoint", "mobile", "quantized")


@dataclass(frozen=True)
class SweepVariant:
    """One deployment configuration of the swept model.

    ``overrides`` are preprocess-recipe patches (the §2 bug injections);
    the remaining fields pick the model stage, kernel resolver, kernel-bug
    preset, and simulated device.
    """

    name: str
    overrides: dict = field(default_factory=dict)
    stage: str = "mobile"
    resolver: str = "optimized"
    kernel_bugs: str = "none"
    device: str = "pixel4_cpu"

    def field_errors(self) -> Iterator[tuple[str, str, list[str], str]]:
        """Yield ``(field, value, available, message)`` for each field that
        names no entry of its registry (stage, resolver, kernel-bug preset,
        device); lint rule S002 reports these and :meth:`check` raises on
        the first."""
        for fieldname, label, options in (
                ("stage", "stage", STAGES),
                ("resolver", "resolver", RESOLVERS),
                ("kernel_bugs", "kernel-bug preset", KERNEL_BUG_PRESETS),
                ("device", "device", DEVICES)):
            value = getattr(self, fieldname)
            if value not in options:
                yield fieldname, value, sorted(options), (
                    f"variant {self.name!r}: unknown {label} {value!r}"
                    f"{did_you_mean(value, options)}; "
                    f"available: {sorted(options)}")

    def check(self) -> None:
        """Raise :class:`ValidationError` if a field names no registry
        entry (see :meth:`field_errors`)."""
        for *_, message in self.field_errors():
            raise ValidationError(message)

    def describe(self) -> str:
        parts = [f"stage={self.stage}", f"resolver={self.resolver}",
                 f"device={self.device}"]
        if self.kernel_bugs != "none":
            parts.append(f"kernel_bugs={self.kernel_bugs}")
        parts += [f"{k}={v}" for k, v in sorted(self.overrides.items())]
        return ", ".join(parts)

    # ------------------------------------------------------------ wire format
    def to_doc(self) -> dict:
        """JSON-native document for shard manifests and sweep reports.

        Overrides are already JSON-native (strings, ints, and size-pair
        lists — everything :func:`coerce_override_value` produces), so the
        document round-trips through :meth:`from_doc` to an equal variant.
        """
        return {
            "name": self.name,
            "overrides": dict(self.overrides),
            "stage": self.stage,
            "resolver": self.resolver,
            "kernel_bugs": self.kernel_bugs,
            "device": self.device,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "SweepVariant":
        """Rebuild a variant from :meth:`to_doc` output.

        Field values are *not* validated here: a shard worker's pre-flight
        reports a bad field as a skipped variant, and :meth:`check` still
        runs before any local execution.
        """
        try:
            return cls(
                name=doc["name"],
                overrides=dict(doc.get("overrides", {})),
                stage=doc.get("stage", "mobile"),
                resolver=doc.get("resolver", "optimized"),
                kernel_bugs=doc.get("kernel_bugs", "none"),
                device=doc.get("device", "pixel4_cpu"),
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(
                f"malformed variant document {doc!r}: {exc}") from None


def coerce_override_value(key: str, value):
    """Coerce a CLI override string into the type the recipe expects.

    Integer-looking values become ints; ``target_size`` accepts ``[H,W]``
    or ``HxW`` forms (its value is a size pair, which a plain key=value
    string cannot otherwise carry). Normalization names like ``[0,1]``
    are scheme *names* and stay strings.
    """
    if not isinstance(value, str):
        return value
    if key == "target_size":
        dims = re.findall(r"\d+", value)
        if len(dims) != 2:
            raise ValidationError(
                f"target_size override must name two sizes, like [64,64] "
                f"or 64x64; got {value!r}")
        return [int(d) for d in dims]
    return int(value) if value.lstrip("-").isdigit() else value


def _split_pairs(rest: str) -> list[str]:
    """Split ``k=v,k=v`` on commas, but not inside brackets (``[0,1]``)."""
    pairs, buf, depth = [], [], 0
    for ch in rest:
        if ch == "," and depth == 0:
            pairs.append("".join(buf))
            buf = []
            continue
        depth += ch in "[("
        depth -= ch in "])"
        buf.append(ch)
    pairs.append("".join(buf))
    return pairs


def parse_variant_spec(spec: str) -> SweepVariant:
    """Parse a CLI variant spec ``NAME[:key=value,...]``.

    Keys ``stage``, ``resolver``, ``kernel_bugs``, and ``device`` set the
    corresponding variant fields; every other key is a preprocess override
    (integer-looking values are converted, as with ``validate --bug``).
    Commas inside brackets do not split pairs, so normalization names like
    ``[0,1]`` pass through intact. Field values are not validated here:
    the sweep pre-flight lints the variant instead, turning a bad field
    into a skipped-variant diagnostic rather than a parse error (call
    :meth:`SweepVariant.check` to raise on one).
    """
    name, _, rest = spec.partition(":")
    name = name.strip()
    if not name:
        raise ValidationError(f"variant spec {spec!r} has an empty name")
    fields: dict = {}
    overrides: dict = {}
    for pair in filter(None, (p.strip() for p in _split_pairs(rest))):
        if "=" not in pair:
            raise ValidationError(
                f"variant spec {spec!r}: expected key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        if key in ("stage", "resolver", "kernel_bugs", "device"):
            fields[key] = value
        else:
            overrides[key] = coerce_override_value(key, value)
    return SweepVariant(name=name, overrides=overrides, **fields)


def parse_backends(spec: str | list[str] | tuple[str, ...]) -> list[str]:
    """Parse a ``--backends`` value: comma-separated names or ``all``.

    ``all`` selects every registered factory once, under the first name it
    was registered with (sorted, for a stable lineup order), so an alias
    such as ``batched`` does not run the same kernels twice. Explicit names
    are kept as given and validated against the live registry.
    """
    if isinstance(spec, str):
        names = [b.strip() for b in spec.split(",") if b.strip()]
    else:
        names = list(spec)
    if names == ["all"]:
        first_names: dict[int, str] = {}
        for name, factory in RESOLVERS.items():
            first_names.setdefault(id(factory), name)
        return sorted(first_names.values())
    if not names:
        raise ValidationError("--backends needs at least one backend name")
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        raise ValidationError(f"duplicate backend name(s): {dupes}")
    for name in names:
        if name not in RESOLVERS:
            raise ValidationError(
                f"unknown backend {name!r}"
                f"{did_you_mean(name, [*RESOLVERS, 'all'])}; "
                f"available: {sorted(RESOLVERS)} (or 'all')")
    return names


def expand_backends(
    variants: list[SweepVariant] | tuple[SweepVariant, ...],
    backends: list[str] | tuple[str, ...] | str,
) -> list[SweepVariant]:
    """Fan a lineup across kernel backends: one variant per (variant, backend).

    Every variant is cloned once per backend with its ``resolver`` replaced
    and ``@backend`` appended to its name (``clean`` -> ``clean@batched``),
    keeping names unique across the expanded lineup. The expansion
    preserves everything else — same preprocess overrides, same kernel-bug
    preset, same stage and device — which is exactly the controlled
    comparison the triage backend-divergence rule keys on.
    """
    backends = parse_backends(backends)
    expanded = []
    for variant in variants:
        for backend in backends:
            expanded.append(SweepVariant(
                name=f"{variant.name}@{backend}",
                overrides=dict(variant.overrides),
                stage=variant.stage,
                resolver=backend,
                kernel_bugs=variant.kernel_bugs,
                device=variant.device,
            ))
    return expanded


DEFAULT_IMAGE_VARIANTS = (
    SweepVariant("clean"),
    SweepVariant("bgr", {"channel_order": "bgr"}),
    SweepVariant("norm01", {"normalization": "[0,1]"}),
    SweepVariant("rot90", {"rotation_k": 1}),
)
"""The Figure-4(a) bug-injection lineup, as a ready-made image-task sweep."""


def plan_variants(
    variants: list[SweepVariant] | tuple[SweepVariant, ...] | None,
) -> list[SweepVariant]:
    """Check a sweep lineup's structure: non-empty, with unique names.

    ``None`` selects :data:`DEFAULT_IMAGE_VARIANTS`. Returns the lineup as
    a list in its original order (the report order). Per-variant fields
    are left to the sweep pre-flight (lint rule S002), which reports a bad
    field as a skipped-variant diagnostic instead of raising on the first.
    """
    if variants is None:
        variants = DEFAULT_IMAGE_VARIANTS
    variants = list(variants)
    if not variants:
        raise ValidationError("sweep needs at least one variant")
    names = [v.name for v in variants]
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        raise ValidationError(f"duplicate variant name(s): {dupes}")
    return variants


def expected_failure_score(variant: SweepVariant) -> int:
    """Rank a variant by how likely it is to fail validation (lower = first).

    Kernel-bug presets are near-certain failures (the §4.4 injections),
    preprocess overrides are the §2 bug lineup, and quantized/reference
    configurations carry residual quantization-drift risk; plain variants
    come last. A streaming scheduler dispatches in this order so failure
    policies (``--max-failures``) trip as early as possible.
    """
    if variant.kernel_bugs != "none":
        return 0
    if variant.overrides:
        return 1
    if variant.stage == "quantized" or variant.resolver == "reference":
        return 2
    return 3


def order_by_expected_failure(
    variants: list[SweepVariant],
) -> list[SweepVariant]:
    """Stable-sort a lineup by :func:`expected_failure_score`."""
    return sorted(variants, key=expected_failure_score)
