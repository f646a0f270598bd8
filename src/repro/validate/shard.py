"""Fleet-scale sweep sharding: portable manifests and the shard worker.

One machine sweeping every variant × backend × device combination does not
scale past a handful of models — the TinyMLOps/EdgeMLOps bottleneck the
ROADMAP's fleet-validation north star names. This module splits a sweep
lineup into self-contained **shard manifests** that any worker (another
process, another machine) can execute independently, and runs one shard
into a **portable shard artifact** that :func:`~repro.validate.merge.
merge_shards` later folds back into a single fleet-wide
:class:`~repro.validate.reporting.SweepReport`.

Manifest schema (``manifest.json``, version :data:`MANIFEST_SCHEMA_VERSION`)
----------------------------------------------------------------------------

A manifest is one JSON object with the keys:

``schema_version``
    Integer wire-format version. Readers reject documents from a version
    they do not understand instead of misparsing them; bump it whenever a
    serialized manifest would no longer round-trip.
``shard_id`` / ``shard_index`` / ``num_shards``
    ``shard-000``-style identity plus this shard's position in the plan.
``model`` / ``frames`` / ``always_assert`` / ``tag``
    The sweep parameters every shard shares (playback data is derived
    deterministically from ``(model, frames, tag)``, which is what makes
    independently-executed shards mergeable at all).
``variants``
    *This shard's* slice of the lineup, as serialized
    :class:`~repro.validate.variants.SweepVariant` documents.
``lineup``
    The **full** fleet lineup in report order (serialized variants). Every
    manifest carries it so any single readable manifest lets a merge order
    results, detect strays, and account for shards that never reported.
``reference`` / ``reference_digest``
    Optional path of the shared streamed reference log (relative paths
    resolve against the manifest's directory, keeping planned output trees
    relocatable) plus its :func:`~repro.instrument.store.log_digest`. A
    worker verifies the digest before trusting the log and rebuilds the
    reference deterministically when the path is absent.

Shard artifact layout (what :func:`run_shard` writes under ``out_dir``)::

    manifest.json        # copied next to the results: artifacts are self-contained
    report.json          # this shard's SweepReport (versioned JSON)
    logs/<variant>/      # per-variant DirectorySink v3 edge logs
    logs/reference/      # only when the worker had to rebuild the reference
    digests.json         # sha256 of report.json + content digest per edge log
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.instrument.store import file_digest, log_digest
from repro.util.errors import ValidationError
from repro.validate.reporting import SweepReport
from repro.validate.variants import SweepVariant, plan_variants

MANIFEST_SCHEMA_VERSION = 1
"""Version of the shard-manifest wire format (see the module docstring)."""

MANIFEST_NAME = "manifest.json"
REPORT_NAME = "report.json"
DIGESTS_NAME = "digests.json"
LOGS_DIR = "logs"


@dataclass(frozen=True)
class ShardManifest:
    """One worker's share of a sweep, as a portable document.

    Self-contained: a worker needs nothing but this manifest (and,
    optionally, the shared reference log it points at) to produce a shard
    artifact that merges bit-for-bit into the fleet report. See the module
    docstring for the field-by-field schema.
    """

    shard_id: str
    shard_index: int
    num_shards: int
    model: str
    frames: int
    variants: tuple[SweepVariant, ...]
    lineup: tuple[SweepVariant, ...]
    always_assert: bool = False
    tag: str = "sweep"
    reference: str | None = None
    reference_digest: str | None = None

    # ------------------------------------------------------------ wire format
    def to_doc(self) -> dict:
        return {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "shard_id": self.shard_id,
            "shard_index": self.shard_index,
            "num_shards": self.num_shards,
            "model": self.model,
            "frames": self.frames,
            "variants": [v.to_doc() for v in self.variants],
            "lineup": [v.to_doc() for v in self.lineup],
            "always_assert": self.always_assert,
            "tag": self.tag,
            "reference": self.reference,
            "reference_digest": self.reference_digest,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ShardManifest":
        version = doc.get("schema_version")
        if version != MANIFEST_SCHEMA_VERSION:
            raise ValidationError(
                f"shard manifest has schema version {version!r}; this "
                f"reader understands version {MANIFEST_SCHEMA_VERSION}")
        try:
            return cls(
                shard_id=doc["shard_id"],
                shard_index=doc["shard_index"],
                num_shards=doc["num_shards"],
                model=doc["model"],
                frames=doc["frames"],
                variants=tuple(SweepVariant.from_doc(v)
                               for v in doc["variants"]),
                lineup=tuple(SweepVariant.from_doc(v)
                             for v in doc["lineup"]),
                always_assert=doc.get("always_assert", False),
                tag=doc.get("tag", "sweep"),
                reference=doc.get("reference"),
                reference_digest=doc.get("reference_digest"),
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(
                f"malformed shard manifest: {exc}") from None

    def save(self, path: str | Path) -> Path:
        """Write the manifest as JSON; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_doc(), indent=2))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ShardManifest":
        """Read a manifest back; truncated/invalid JSON raises
        :class:`ValidationError` naming the file, never a traceback."""
        path = Path(path)
        if not path.exists():
            raise ValidationError(f"no shard manifest at {path}")
        return cls.from_doc(read_json_doc(path, "shard manifest"))


def read_json_doc(path: str | Path, what: str) -> dict:
    """Load a JSON object, mapping every failure to a named
    :class:`ValidationError` (missing file, truncated/invalid JSON, or a
    non-object document) — the loader every artifact file shares."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"{what} {path} is missing")
    try:
        doc = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(
            f"{what} {path} is truncated or not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} {path} is not a JSON object")
    return doc


def plan_shards(
    model: str,
    variants: list[SweepVariant] | tuple[SweepVariant, ...] | None = None,
    *,
    n_shards: int | None = None,
    max_variants_per_shard: int | None = None,
    frames: int = 16,
    always_assert: bool = False,
    tag: str = "sweep",
    reference: str | None = None,
    reference_digest: str | None = None,
) -> list[ShardManifest]:
    """Partition a sweep lineup into self-contained shard manifests.

    Exactly one of ``n_shards`` / ``max_variants_per_shard`` picks the
    partition: ``n_shards`` splits the lineup into that many contiguous,
    balanced slices (clamped to the lineup size — no empty shards),
    ``max_variants_per_shard`` caps each shard's slice instead. The
    partition is deterministic and preserves lineup order, and because a
    merge re-sorts the union back to lineup order, *any* partition of the
    same lineup merges to the same fleet report.

    ``variants`` defaults to the Figure-4(a) image lineup, exactly like
    :func:`~repro.validate.sweep.run_sweep`; fan a backend axis with
    :func:`~repro.validate.variants.expand_backends` *before* planning so
    ``name@backend`` clones can land on different shards.

    Only the lineup structure is checked here, not per-variant fields:
    shard workers run the sweep pre-flight, which records
    statically-broken variants as skipped results instead of refusing to
    plan the fleet.
    """
    lineup = plan_variants(variants, check=False)
    if (n_shards is None) == (max_variants_per_shard is None):
        raise ValidationError(
            "plan_shards needs exactly one of n_shards / "
            "max_variants_per_shard")
    if n_shards is not None:
        if n_shards < 1:
            raise ValidationError(f"n_shards must be >= 1, got {n_shards}")
        n_shards = min(n_shards, len(lineup))
    else:
        if max_variants_per_shard < 1:
            raise ValidationError(
                f"max_variants_per_shard must be >= 1, got "
                f"{max_variants_per_shard}")
        n_shards = -(-len(lineup) // max_variants_per_shard)

    # Contiguous balanced slices: the first (len % n) shards take one extra.
    base, extra = divmod(len(lineup), n_shards)
    manifests = []
    start = 0
    for index in range(n_shards):
        size = base + (1 if index < extra else 0)
        manifests.append(ShardManifest(
            shard_id=f"shard-{index:03d}",
            shard_index=index,
            num_shards=n_shards,
            model=model,
            frames=frames,
            variants=tuple(lineup[start:start + size]),
            lineup=tuple(lineup),
            always_assert=always_assert,
            tag=tag,
            reference=reference,
            reference_digest=reference_digest,
        ))
        start += size
    return manifests


def write_shards(
    manifests: list[ShardManifest], out_dir: str | Path,
) -> list[Path]:
    """Write each manifest to ``out_dir/<shard_id>/manifest.json``.

    Returns the shard directories — the same directories workers fill with
    artifacts and :func:`~repro.validate.merge.merge_shards` consumes.
    """
    out = Path(out_dir)
    dirs = []
    for manifest in manifests:
        shard_dir = out / manifest.shard_id
        manifest.save(shard_dir / MANIFEST_NAME)
        dirs.append(shard_dir)
    return dirs


def _resolve_reference(manifest: ShardManifest, base: Path) -> Path | None:
    """The manifest's shared-reference path, made absolute.

    Relative manifest paths resolve against the manifest's own directory,
    so a planned output tree (``reference/`` next to ``shard-*/``) can be
    copied or mounted anywhere as a unit.
    """
    if manifest.reference is None:
        return None
    path = Path(manifest.reference)
    return path if path.is_absolute() else (base / path)


def run_shard(
    manifest: ShardManifest | str | Path,
    out_dir: str | Path,
    *,
    executor: str = "process",
    workers: int | None = None,
    on_result=None,
    verify_reference: bool = True,
) -> SweepReport:
    """Execute one shard manifest into a portable artifact under ``out_dir``.

    The worker half of a sharded sweep (CLI: ``repro sweep-worker run``):
    runs the shard's variants through :func:`~repro.validate.sweep.run_sweep`,
    edge logs streaming to ``out_dir/logs/<variant>``, and writes the artifact
    files — ``report.json`` (the shard's
    :class:`~repro.validate.reporting.SweepReport` as versioned JSON, with
    each result's ``log_dir`` recorded *relative* to the artifact root so
    the artifact ships as a unit), ``digests.json`` (content digests a
    merge verifies before trusting the artifact), and a copy of the
    manifest so the artifact is self-describing even when it travels
    without the planner's output tree.

    The shared reference log is reused from ``manifest.reference`` when
    present — after its content digest is verified against
    ``manifest.reference_digest`` (mismatch raises
    :class:`ValidationError`: a silently-corrupt reference would poison
    every verdict in the shard). When absent, the worker rebuilds the
    reference deterministically from ``(model, frames, tag)``.
    ``verify_reference=False`` skips the digest pass — only for drivers
    that just built (and hashed) the reference themselves in the same
    process, like ``repro sweep --shards``; a real worker that received
    the manifest over the wire should always verify. A *relative*
    reference path resolves against the manifest file's directory;
    passing a :class:`ShardManifest` object instead of a path resolves it
    against the current working directory.

    As in :func:`~repro.validate.sweep.run_sweep`, the scheduler
    statically vets the shard's variants and records provably-broken ones
    as ``skipped`` results with diagnostics, so one bad variant cannot sink
    an otherwise-healthy shard artifact.

    Returns the shard report (also written to disk).
    """
    manifest_base = Path.cwd()
    if isinstance(manifest, (str, Path)):
        manifest_path = Path(manifest)
        manifest_base = manifest_path.parent
        manifest = ShardManifest.load(manifest_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    ref_log_dir = _resolve_reference(manifest, manifest_base)
    if ref_log_dir is not None and not (ref_log_dir / "meta.json").exists():
        ref_log_dir = None  # reference not shipped with the manifest: rebuild
    if ref_log_dir is not None and verify_reference \
            and manifest.reference_digest is not None:
        got = log_digest(ref_log_dir)
        if got != manifest.reference_digest:
            raise ValidationError(
                f"shared reference log at {ref_log_dir} fails digest "
                f"verification (manifest says {manifest.reference_digest}, "
                f"directory hashes to {got}); refusing to validate "
                f"{manifest.shard_id} against a corrupt reference")

    # Imported here: repro.validate.sweep re-exports this module.
    from repro.validate.sweep import run_sweep

    report = run_sweep(
        manifest.model, manifest.variants, frames=manifest.frames,
        executor=executor, workers=workers,
        always_assert=manifest.always_assert, tag=manifest.tag,
        on_result=on_result, log_dir=out / LOGS_DIR,
        ref_log_dir=ref_log_dir)
    # Record streamed log locations relative to the artifact root: the
    # artifact is portable, absolute worker paths are not.
    for result in report.results:
        if result.log_dir is not None:
            result.log_dir = (Path(LOGS_DIR) / result.variant.name).as_posix()

    manifest.save(out / MANIFEST_NAME)
    report_doc = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": "shard-report",
        "shard_id": manifest.shard_id,
        "shard_index": manifest.shard_index,
        "num_shards": manifest.num_shards,
        "report": report.to_doc(),
    }
    (out / REPORT_NAME).write_text(json.dumps(report_doc, indent=2))
    # The manifest is covered too: a merge trusts it for lineup identity
    # and ordering, so it must be as tamper-evident as the results.
    digests = {MANIFEST_NAME: file_digest(out / MANIFEST_NAME),
               REPORT_NAME: file_digest(out / REPORT_NAME)}
    for result in report.results:
        if result.log_dir is not None and (out / result.log_dir).is_dir():
            digests[result.log_dir] = log_digest(out / result.log_dir)
    (out / DIGESTS_NAME).write_text(json.dumps(digests, indent=2))
    return report
