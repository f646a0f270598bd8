"""Deliberately broken arena layouts for the layout verifier's tests."""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.arena import ArenaLayout
from repro.analysis.liveness import LiveRange
from repro.util.errors import ValidationError


def corrupt_layout_for_test(layout: ArenaLayout) -> ArenaLayout:
    """Return a copy with two interfering slots forced to collide.

    Injects exactly the offset-collision defect
    :func:`repro.analysis.verify_layout` exists to catch.
    """
    ranges = {s.tensor: LiveRange(s.tensor, s.start, s.end, s.nbytes)
              for s in layout.slots}
    slots = list(layout.slots)
    for i, a in enumerate(slots):
        for b in slots[i + 1:]:
            # Alias slots share their base's offset on purpose; collide two
            # genuinely independent buffers.
            if a.alias_of is not None or b.alias_of is not None:
                continue
            if a.nbytes and b.nbytes and a.offset != b.offset and \
                    ranges[a.tensor].overlaps(ranges[b.tensor]):
                slots[i] = replace(a, offset=b.offset)
                return ArenaLayout(graph=layout.graph, batch=layout.batch,
                                   slots=tuple(slots),
                                   arena_bytes=layout.arena_bytes)
    raise ValidationError(
        f"layout for {layout.graph!r} has no pair of interfering slots "
        "to collide (single-tensor graph?)")
