"""Deterministic shard-artifact merging: many workers, one fleet report.

The read-side counterpart of :mod:`repro.validate.shard`: given the shard
artifact directories a fleet of ``repro sweep-worker`` runs produced,
:func:`merge_shards` folds them back into a single
:class:`~repro.validate.reporting.SweepReport` that is byte-identical (in
rendered order, verdicts, and triage clusters) to running the whole lineup
in one process — per-variant work is deterministic and order-independent,
so *where* a variant ran cannot change its result.

Merging is defensive by construction. Every artifact is verified before it
is trusted — manifest readable and schema-compatible, ``report.json``
present and matching its recorded digest, every streamed edge log matching
its content digest — and a shard that fails any check is, by default,
*accounted for* rather than fatal: its variants appear in the merged
report as ``skipped`` results (an ``INCOMPLETE`` verdict, exactly like a
cancelled in-process sweep) and the reason lands in ``SweepReport.notes``.
``strict=True`` upgrades every such defect to a
:class:`~repro.util.errors.ValidationError`. Defects that indicate a
*planning* bug rather than a lost worker — two shards reporting the same
variant, a variant no lineup mentions, artifacts from different sweeps —
always raise.
"""

from __future__ import annotations

from pathlib import Path

from repro.instrument.store import file_digest, log_digest
from repro.util.errors import ValidationError
from repro.validate.reporting import (
    STATUS_SKIPPED,
    SweepReport,
    VariantResult,
)
from repro.validate.shard import (
    DIGESTS_NAME,
    MANIFEST_NAME,
    REPORT_NAME,
    ShardManifest,
    read_json_doc,
)


class _CorruptShard(ValidationError):
    """Internal: one artifact failed verification (caught in lenient mode)."""


def _check_manifest_digest(shard_dir: Path) -> None:
    """Verify the manifest against the artifact's digest index, if any.

    The manifest is read *before* the identity checks that decide whose
    lineup to trust, so a corrupted-but-parseable manifest must be caught
    here — otherwise it would masquerade as a "different sweep" planning
    error (or worse, become the merge's authority). A planned-but-unrun
    shard has no digest index yet; its manifest is necessarily taken on
    faith, exactly like every manifest the planner just wrote.
    """
    digests_path = shard_dir / DIGESTS_NAME
    if not digests_path.exists():
        return  # planned-only shard: no artifact to cross-check against
    try:
        digests = read_json_doc(digests_path, "shard digest index")
    except ValidationError:
        return  # unreadable index: artifact loading will quarantine it
    want = digests.get(MANIFEST_NAME)
    if want is None:
        return  # foreign/older artifact that did not cover its manifest
    got = file_digest(shard_dir / MANIFEST_NAME)
    if got != want:
        raise _CorruptShard(
            f"shard artifact {shard_dir}: {MANIFEST_NAME} fails digest "
            f"verification (recorded {want}, content hashes to {got}) — "
            "refusing to trust its lineup")


def _verify_digests(shard_dir: Path) -> dict:
    """Check every digest the artifact recorded against the bytes on disk.

    The index must cover ``report.json`` — an index that "forgot" the
    report would otherwise let arbitrary results through unverified.
    Returns the index so the caller can also demand coverage of the edge
    logs the report claims to have streamed.
    """
    digests = read_json_doc(shard_dir / DIGESTS_NAME, "shard digest index")
    if REPORT_NAME not in digests:
        raise _CorruptShard(
            f"shard artifact {shard_dir}: digest index does not cover "
            f"{REPORT_NAME}; refusing to trust an unverifiable report")
    for rel, want in digests.items():
        path = shard_dir / rel
        if path.is_dir():
            got = log_digest(path)
        elif path.is_file():
            got = file_digest(path)
        else:
            raise _CorruptShard(
                f"shard artifact {shard_dir} lists {rel!r} in its digest "
                "index but the file/directory is missing")
        if got != want:
            raise _CorruptShard(
                f"shard artifact {shard_dir}: {rel!r} fails digest "
                f"verification (recorded {want}, content hashes to {got}) — "
                "the artifact was corrupted or tampered with in transit")
    return digests


def _load_artifact(shard_dir: Path, verify: bool) -> list[VariantResult]:
    """Verified results of one shard artifact (log paths made absolute)."""
    report_path = shard_dir / REPORT_NAME
    if not report_path.exists():
        raise _CorruptShard(
            f"shard artifact {shard_dir} has no {REPORT_NAME} — the worker "
            "never ran (or never finished)")
    digests = _verify_digests(shard_dir) if verify else None
    doc = read_json_doc(report_path, "shard report")
    report = SweepReport.from_doc(doc.get("report", {}))
    for result in report.results:
        if result.log_dir is None:
            continue
        # Every edge log the (verified) report claims must itself be
        # covered by the digest index — a truncated index must not exempt
        # a log from verification.
        if digests is not None and result.log_dir not in digests:
            raise _CorruptShard(
                f"shard artifact {shard_dir}: digest index does not cover "
                f"edge log {result.log_dir!r} claimed by its report")
        result.log_dir = str(shard_dir / result.log_dir)
    return report.results


def verify_artifact(shard_dir: str | Path) -> ShardManifest:
    """Fully verify one shard artifact; returns its manifest when sound.

    The single-artifact face of the checks :func:`merge_shards` runs per
    shard — manifest readable, schema-compatible, and matching its
    recorded digest; ``report.json`` present, parseable, and covered by a
    digest index whose every entry matches the bytes on disk; every edge
    log the report claims covered and matching its content digest. Raises
    :class:`~repro.util.errors.ValidationError` naming the first defect.

    This is the acceptance gate the fleet coordinator runs on every
    uploaded artifact *before* the shard counts as done, so a corrupted
    or tampered upload is rejected at the door instead of surfacing as a
    merge failure hours later.
    """
    shard_dir = Path(shard_dir)
    manifest = ShardManifest.load(shard_dir / MANIFEST_NAME)
    _check_manifest_digest(shard_dir)
    _load_artifact(shard_dir, verify=True)
    return manifest


def merge_shards(
    shard_dirs,
    *,
    triage: bool = False,
    strict: bool = False,
    verify: bool = True,
) -> SweepReport:
    """Merge shard artifact directories into one fleet-wide sweep report.

    Results are re-sorted to the lineup order every manifest carries,
    verdicts are recomputed over the union (the report's healthy/
    INCOMPLETE logic runs on merged results, exactly as it would in
    process), and with ``triage=True`` layer-drift fingerprinting and
    root-cause clustering run over the merged fleet — cross-shard backend
    divergences included, since clustering never cared which machine
    produced a log.

    Missing or corrupt shards (no artifact, truncated/invalid JSON, digest
    mismatch) become ``skipped`` variants plus a ``notes`` entry unless
    ``strict=True``, in which case they raise. Duplicate variant names
    across shards, stray variants absent from the lineup, and artifacts
    from different sweeps always raise — those are planning bugs, not lost
    workers.

    ``verify=False`` skips digest verification (structural checks still
    run) — only for a driver merging artifacts it wrote itself in the
    same process, like ``repro sweep --shards``; artifacts that traveled
    should always be verified.
    """
    dirs = [Path(d) for d in shard_dirs]
    if not dirs:
        raise ValidationError("merge needs at least one shard directory")

    manifests: dict[Path, ShardManifest | None] = {}
    notes: list[str] = []
    for shard_dir in dirs:
        try:
            manifest = ShardManifest.load(shard_dir / MANIFEST_NAME)
            if verify:
                _check_manifest_digest(shard_dir)
            manifests[shard_dir] = manifest
        except ValidationError as exc:
            if strict:
                raise
            manifests[shard_dir] = None
            notes.append(f"shard {shard_dir.name}: unreadable manifest ({exc})")

    readable = [(d, m) for d, m in manifests.items() if m is not None]
    if not readable:
        raise ValidationError(
            f"no readable shard manifest among {[str(d) for d in dirs]}; "
            "nothing to merge")
    first_dir, first = readable[0]
    lineup = list(first.lineup)
    for shard_dir, manifest in readable[1:]:
        if not manifest.same_sweep(first):
            raise ValidationError(
                f"shard manifests disagree: {shard_dir / MANIFEST_NAME} "
                f"describes a different sweep (model/frames/tag/"
                f"always_assert/lineup) than {first_dir / MANIFEST_NAME}; "
                "these artifacts cannot be merged")

    lineup_names = {v.name for v in lineup}
    merged: dict[str, VariantResult] = {}
    origin: dict[str, str] = {}
    for shard_dir, manifest in readable:
        try:
            results = _load_artifact(shard_dir, verify)
        except ValidationError as exc:
            # _CorruptShard, a bad report schema version, a malformed
            # result document: the shard cannot be trusted, but the fleet
            # report can still account for it.
            if strict:
                raise
            notes.append(f"shard {shard_dir.name}: {exc}")
            continue
        for result in results:
            name = result.variant.name
            if name not in lineup_names:
                raise ValidationError(
                    f"shard artifact {shard_dir} reports variant {name!r}, "
                    "which is not in the sweep lineup its manifest "
                    "describes")
            if name in merged:
                raise ValidationError(
                    f"variant {name!r} is reported by two shard artifacts "
                    f"({origin[name]} and {shard_dir.name}); shards must "
                    "partition the lineup")
            merged[name] = result
            origin[name] = shard_dir.name

    results = []
    missing = []
    for variant in lineup:
        if variant.name in merged:
            results.append(merged[variant.name])
        else:
            missing.append(variant.name)
            results.append(VariantResult(
                variant=variant, report=None, mean_latency_ms=0.0,
                peak_memory_mb=0.0, status=STATUS_SKIPPED))
    if missing:
        notes.append(
            f"{len(missing)} variant(s) have no shard result and were "
            f"marked skipped: {', '.join(missing)}")

    report = SweepReport(model=first.model, frames=first.frames,
                         results=results, notes=notes)
    if triage:
        from repro.validate.triage import triage_sweep

        report.triage = triage_sweep(report)
    return report
