"""Static arena planning: pack non-interfering tensors into one buffer.

An :class:`ArenaLayout` assigns every activation tensor a static byte
offset in a single preallocated arena, sized so that any two tensors that
are ever simultaneously live occupy disjoint byte ranges — the TFLite-style
static memory plan the ROADMAP's arena item asks for. Live ranges come
from :func:`~repro.analysis.liveness.liveness_from_graph`, the same
derivation the runtime frees tensors by.

The packer is greedy first-fit over tensors in decreasing size order; the
interesting part is the **independent verifier**: :func:`verify_layout`
re-derives liveness from the graph itself (never from the layout it
checks) and proves that no two overlapping live ranges share
overlapping byte ranges, that every slot matches its spec's size, and that
everything fits inside the declared arena. A layout is only trusted when
the verifier returns no findings; rule A001 surfaces the same check through
``repro lint``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.liveness import (
    liveness_from_graph,
    merge_alias_ranges,
    packable_aliases,
    peak_live_bytes,
    view_alias_map,
)
from repro.graph.graph import Graph
from repro.util.errors import ValidationError

ARENA_SCHEMA_VERSION = 2
"""Version of the ArenaLayout JSON wire format, and the only one readable.

Version 2 added :attr:`ArenaSlot.alias_of` (view outputs sharing their
input's slot).
"""

ALIGNMENT = 64
"""Byte alignment of every slot offset.

Cache-line/SIMD alignment, not just the 16-byte typical edge-runtime
minimum: a runtime executing out of the layout would hand slots to GEMMs
as destinations, and BLAS kernels measurably degrade (~15% on 1x1-conv
GEMMs) when the destination is 16- but not 64-byte aligned.
"""


@dataclass(frozen=True)
class ArenaSlot:
    """One tensor's static placement: offset, size, and live interval.

    ``alias_of`` names the materialized tensor whose slot this one shares
    (view outputs only — reshape/flatten/channel_reverse). An aliased slot
    records its *own* live interval but the root's offset; the packer
    merged the two ranges before placing, and :func:`verify_layout`
    re-proves from the graph that the aliasing is legitimate.
    """

    tensor: str
    offset: int
    nbytes: int
    start: int
    end: int
    alias_of: str | None = None

    def to_doc(self) -> dict:
        return {"tensor": self.tensor, "offset": self.offset,
                "nbytes": self.nbytes, "start": self.start, "end": self.end,
                "alias_of": self.alias_of}

    @classmethod
    def from_doc(cls, doc: dict) -> "ArenaSlot":
        for fieldname in ("tensor", "offset", "nbytes", "start", "end",
                          "alias_of"):
            if fieldname not in doc:
                raise ValidationError(
                    f"malformed arena-slot document: missing field "
                    f"{fieldname!r}")
        return cls(tensor=doc["tensor"], offset=int(doc["offset"]),
                   nbytes=int(doc["nbytes"]), start=int(doc["start"]),
                   end=int(doc["end"]), alias_of=doc["alias_of"])


@dataclass
class ArenaLayout:
    """A complete static memory plan for one graph at one batch size."""

    graph: str
    batch: int
    slots: tuple[ArenaSlot, ...]
    arena_bytes: int

    @property
    def naive_bytes(self) -> int:
        """Total bytes if every tensor got its own buffer (no reuse)."""
        return sum(slot.nbytes for slot in self.slots)

    # ------------------------------------------------------------ wire format
    def to_doc(self) -> dict:
        return {
            "schema_version": ARENA_SCHEMA_VERSION,
            "graph": self.graph,
            "batch": self.batch,
            "arena_bytes": self.arena_bytes,
            "naive_bytes": self.naive_bytes,
            "slots": [s.to_doc() for s in self.slots],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ArenaLayout":
        version = doc.get("schema_version")
        if version != ARENA_SCHEMA_VERSION:
            raise ValidationError(
                f"arena-layout document has schema version {version!r}; "
                f"only version {ARENA_SCHEMA_VERSION} is readable")
        for fieldname in ("graph", "batch", "arena_bytes", "slots"):
            if fieldname not in doc:
                raise ValidationError(
                    f"malformed arena-layout document: missing field "
                    f"{fieldname!r}")
        return cls(graph=doc["graph"], batch=int(doc["batch"]),
                   slots=tuple(ArenaSlot.from_doc(s) for s in doc["slots"]),
                   arena_bytes=int(doc["arena_bytes"]))


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def pack_arena(graph: Graph, plan=None, batch: int = 1) -> ArenaLayout:
    """Greedy first-fit packing of live ranges into static offsets.

    Live ranges come from the graph. View-op outputs are *aliased* into
    their input's slot under
    :func:`~repro.analysis.liveness.packable_aliases`; with a plan, only the
    view ops whose bound executor returns a view are eligible. The shared
    buffer is placed once, over the union of the group's live ranges. The
    result must pass :func:`verify_layout` before anything trusts it.
    """
    ranges = liveness_from_graph(graph, batch)
    aliases = packable_aliases(graph, ranges, plan)
    merged = merge_alias_ranges(ranges, aliases)
    order = sorted(merged.values(),
                   key=lambda r: (-r.nbytes, r.start, r.tensor))
    placed: list[ArenaSlot] = []
    by_tensor: dict[str, ArenaSlot] = {}
    for r in order:
        blockers = sorted(
            (s for s in placed if r.overlaps(merged[s.tensor])),
            key=lambda s: s.offset)
        offset = 0
        for s in blockers:
            if _align(offset) + r.nbytes <= s.offset:
                break
            offset = max(offset, s.offset + s.nbytes)
        # The slot records the tensor's *own* derived interval; the merged
        # (group-union) interval is a packing concern only.
        own = ranges[r.tensor]
        slot = ArenaSlot(tensor=r.tensor, offset=_align(offset),
                         nbytes=r.nbytes, start=own.start, end=own.end)
        placed.append(slot)
        by_tensor[r.tensor] = slot
    for t, root in aliases.items():
        own = ranges[t]
        by_tensor[t] = ArenaSlot(tensor=t, offset=by_tensor[root].offset,
                                 nbytes=own.nbytes, start=own.start,
                                 end=own.end, alias_of=root)
    arena_bytes = max((s.offset + s.nbytes for s in placed), default=0)
    slots = tuple(by_tensor[t] for t in sorted(
        by_tensor, key=lambda t: (by_tensor[t].start, t)))
    return ArenaLayout(graph=graph.name, batch=batch, slots=slots,
                       arena_bytes=arena_bytes)


def verify_layout(graph: Graph, layout: ArenaLayout) -> list[Diagnostic]:
    """Independently prove an arena layout sound against its graph.

    Re-derives liveness from the graph alone, then checks that the slot set
    covers exactly the graph's tensors, that sizes and live intervals match
    the re-derivation, that every slot fits inside the declared arena, and
    that no two tensors with overlapping live ranges overlap in bytes.

    Slots claiming ``alias_of`` must additionally *prove* the aliasing from
    the graph: the tensor must be produced by a view op whose transitive
    alias root is exactly the claimed base, the byte sizes must match, and
    the slot must sit at the base's offset. For the disjointness theorem a
    proven alias group counts as one buffer live over the union of its
    members' ranges — an unproven claim is rejected outright, never
    trusted. Returns one A001 diagnostic per violation; an empty list is
    the proof.
    """
    from repro.analysis.registry import make_diagnostic

    def finding(message: str, *, tensor: str | None = None,
                evidence: dict | None = None) -> Diagnostic:
        return make_diagnostic("A001", message, graph=graph.name,
                               tensor=tensor, evidence=evidence)

    problems: list[Diagnostic] = []
    if layout.graph != graph.name:
        problems.append(finding(
            f"layout was planned for graph {layout.graph!r}, not "
            f"{graph.name!r}",
            evidence={"layout_graph": layout.graph, "graph": graph.name}))
    batch = layout.batch
    derived = liveness_from_graph(graph, batch)
    slots = {s.tensor: s for s in layout.slots}
    for t in sorted(set(derived) - set(slots)):
        problems.append(finding(
            f"tensor {t!r} has no arena slot; the runtime would have "
            "nowhere to materialize it",
            tensor=t, evidence={"missing": t}))
    for t in sorted(set(slots) - set(derived)):
        problems.append(finding(
            f"slot for {t!r} names a tensor the graph does not have",
            tensor=t, evidence={"extra": t}))
    for t in sorted(set(slots) & set(derived)):
        slot, want = slots[t], derived[t]
        if slot.nbytes != want.nbytes:
            problems.append(finding(
                f"slot for {t!r} is {slot.nbytes} B but the spec needs "
                f"{want.nbytes} B at batch {batch}",
                tensor=t,
                evidence={"slot_bytes": slot.nbytes,
                          "spec_bytes": want.nbytes, "batch": batch}))
        if (slot.start, slot.end) != (want.start, want.end):
            problems.append(finding(
                f"slot for {t!r} records live interval [{slot.start}, "
                f"{slot.end}] but the graph derives [{want.start}, "
                f"{want.end}]",
                tensor=t,
                evidence={"recorded": [slot.start, slot.end],
                          "derived": [want.start, want.end]}))
        if slot.offset < 0 or slot.offset + slot.nbytes > layout.arena_bytes:
            problems.append(finding(
                f"slot for {t!r} ([{slot.offset}, "
                f"{slot.offset + slot.nbytes}) B) escapes the "
                f"{layout.arena_bytes}-byte arena",
                tensor=t,
                evidence={"offset": slot.offset, "nbytes": slot.nbytes,
                          "arena_bytes": layout.arena_bytes}))
    # Aliasing proofs: a slot may share its base's bytes only if the graph
    # itself proves the view relationship. The legitimate alias structure
    # is re-derived here from the graph's view ops — the layout's claims
    # are checked against it, never taken at face value.
    graph_aliases = view_alias_map(graph)
    proven: dict[str, str] = {}
    for t in sorted(claims := {s.tensor: s.alias_of for s in layout.slots
                               if s.alias_of is not None}):
        base = claims[t]
        slot = slots.get(t)
        if slot is None or t not in derived:
            continue  # already reported as extra/missing above
        if graph_aliases.get(t) != base:
            problems.append(finding(
                f"slot for {t!r} claims to alias {base!r}, but the graph "
                "does not prove that view relationship",
                tensor=t,
                evidence={"claimed": base,
                          "derived_root": graph_aliases.get(t)}))
            continue
        base_slot = slots.get(base)
        if base_slot is None or base_slot.alias_of is not None:
            problems.append(finding(
                f"slot for {t!r} aliases {base!r}, which is "
                f"{'itself an alias' if base_slot else 'missing a slot'} — "
                "aliases must resolve to a materialized tensor",
                tensor=t, evidence={"base": base}))
            continue
        if base not in derived or derived[t].nbytes != derived[base].nbytes:
            problems.append(finding(
                f"slot for {t!r} aliases {base!r} but their byte sizes "
                "differ; a view never changes the buffer size",
                tensor=t,
                evidence={"tensor_bytes": derived[t].nbytes,
                          "base_bytes": derived.get(base) and
                          derived[base].nbytes}))
            continue
        if slot.offset != base_slot.offset:
            problems.append(finding(
                f"slot for {t!r} aliases {base!r} but sits at offset "
                f"{slot.offset}, not the base's {base_slot.offset}",
                tensor=t,
                evidence={"offset": slot.offset,
                          "base_offset": base_slot.offset}))
            continue
        proven[t] = base
    # The core soundness theorem: simultaneously-live tensors are disjoint
    # in bytes. Liveness comes from `derived`, never from the slots; a
    # proven alias group is one buffer, live over the union of its
    # members' ranges (the base carries the union, the members drop out).
    effective = merge_alias_ranges(
        {t: derived[t] for t in set(slots) & set(derived)}, proven)
    names = sorted(effective)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if not effective[a].overlaps(effective[b]):
                continue
            sa, sb = slots[a], slots[b]
            if sa.offset < sb.offset + sb.nbytes and \
                    sb.offset < sa.offset + sa.nbytes and \
                    sa.nbytes > 0 and sb.nbytes > 0:
                problems.append(finding(
                    f"tensors {a!r} and {b!r} are simultaneously live "
                    f"(steps [{max(effective[a].start, effective[b].start)}, "
                    f"{min(effective[a].end, effective[b].end)}]) but their "
                    f"byte ranges overlap",
                    tensor=a,
                    evidence={
                        "a": {"tensor": a, "offset": sa.offset,
                              "nbytes": sa.nbytes},
                        "b": {"tensor": b, "offset": sb.offset,
                              "nbytes": sb.nbytes},
                    }))
    return problems


__all__ = [
    "ALIGNMENT",
    "ARENA_SCHEMA_VERSION",
    "ArenaLayout",
    "ArenaSlot",
    "pack_arena",
    "peak_live_bytes",
    "verify_layout",
]
