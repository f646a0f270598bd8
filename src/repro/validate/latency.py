"""Per-layer latency validation: straggler detection (§3.4, §4.5).

"Following the pattern of validating per-layer output, ML-EXray can also
perform per-layer latency validation ... go over the latency of each layer
and identify straggler layers in the model."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.instrument.store import EXrayLog
from repro.util.errors import ValidationError


@dataclass(frozen=True)
class LayerLatency:
    """Mean per-frame latency of one layer."""

    layer: str
    op: str
    latency_ms: float
    share: float          # fraction of total model latency


@dataclass(frozen=True)
class Straggler:
    """A layer consuming an outsized share of inference time."""

    layer: str
    op: str
    latency_ms: float
    share: float
    ratio_to_median: float


def layer_latency_profile(log: EXrayLog) -> list[LayerLatency]:
    """Mean per-layer latency across frames, in execution order.

    Streams the log's frame metadata (no tensor payloads are read), so the
    profile of a directory-backed trace costs one pass over the small
    per-frame documents.
    """
    if len(log) == 0:
        raise ValidationError("log contains no frames")
    first = next(log.iter_frames(load_tensors=False))
    order = list(first.layer_latency_ms)
    if not order:
        raise ValidationError(
            "log has no per-layer latency; attach the monitor to the interpreter"
        )
    sums = {name: 0.0 for name in order}
    for frame in log.iter_frames(load_tensors=False):
        for name, ms in frame.layer_latency_ms.items():
            sums[name] = sums.get(name, 0.0) + ms
    n = len(log)
    total = sum(sums.values()) or 1.0
    ops = first.layer_ops
    return [
        LayerLatency(layer=name, op=ops.get(name, "?"),
                     latency_ms=sums[name] / n, share=sums[name] / total)
        for name in order
    ]


STRAGGLER_SHARE = 0.2
"""A straggler takes at least this share of a frame's latency..."""

STRAGGLER_MEDIAN_FACTOR = 10.0
"""...and at least this many times the median layer's latency."""


def find_stragglers(log: EXrayLog) -> list[Straggler]:
    """Layers that dominate latency: big share AND far above the median layer."""
    profile = layer_latency_profile(log)
    median = float(np.median([p.latency_ms for p in profile])) or 1e-9
    out = []
    for p in profile:
        ratio = p.latency_ms / median
        if p.share >= STRAGGLER_SHARE and ratio >= STRAGGLER_MEDIAN_FACTOR:
            out.append(Straggler(p.layer, p.op, p.latency_ms, p.share, ratio))
    return sorted(out, key=lambda s: -s.latency_ms)
