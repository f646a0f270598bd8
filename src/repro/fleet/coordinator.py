"""The sweep coordinator: lease shards out, verify artifacts in, merge live.

PR 5 made sharded sweeps *portable* — self-contained manifests, digest-
verified artifacts, a deterministic merge — but left coordination to scp
and shell loops. This module is the missing control plane: a stdlib-only
HTTP service (:class:`ThreadingHTTPServer`) that hands shard manifests to
whichever worker asks first, tracks each lease with a TTL so lost workers
are *noticed* instead of silently stalling the fleet, digest-verifies
every uploaded artifact at the door with the same machinery an offline
``repro sweep merge`` trusts, and serves a live merged
:class:`~repro.validate.reporting.SweepReport` at any point in flight.

Per-shard state machine::

    pending ──lease──▶ leased ──upload──▶ uploaded ──verified──▶ verified
       ▲                 │                    │
       └──── TTL expiry ─┘      digest reject ┘   (back to pending)
       └──────────────── finalize ──▶ lost

``pending`` shards are the lease pool; a ``leased`` shard whose TTL
passes without a heartbeat returns to the pool (``times_lost`` counts
how often); ``uploaded`` is the transient window while an upload is
being digest-verified; ``verified`` is terminal success. ``lost`` is
assigned only by ``POST /finalize``, which also re-plans every
unfinished slice into **remainder manifests** — runnable offline by
``repro sweep-worker run`` and mergeable with the verified artifacts,
because every manifest already carries the full lineup.

Endpoints (all JSON):

=======================  ====================================================
``POST /lease``          next pending shard → ``lease_id``/``ttl_s``/
                         ``manifest`` (or ``retry_after_s`` / ``complete``)
``POST /heartbeat``      extend a live lease's TTL
``POST /upload/<lease>`` artifact archive (tar) for the leased shard;
                         digest-verified before acceptance
``GET  /status``         per-shard state machine + lease table
``GET  /report``         live merged SweepReport (``?triage=1`` clusters)
``POST /finalize``       stop leasing; mark stragglers lost; emit
                         remainder manifests
=======================  ====================================================
"""

from __future__ import annotations

import json
import shutil
import threading
import time
import uuid
from dataclasses import dataclass, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlsplit

from repro.fleet.client import FleetProtocolError, unpack_artifact
from repro.util.errors import ValidationError
from repro.validate.merge import merge_shards, verify_artifact
from repro.validate.reporting import SweepReport
from repro.validate.shard import MANIFEST_NAME, ShardManifest, write_shards

STATE_PENDING = "pending"
STATE_LEASED = "leased"
STATE_UPLOADED = "uploaded"
STATE_VERIFIED = "verified"
STATE_LOST = "lost"

SHARDS_DIR = "shards"
REMAINDER_DIR = "remainder"
STAGING_DIR = "staging"

DEFAULT_TTL_S = 60.0


@dataclass
class ShardRecord:
    """One shard's place in the coordinator's state machine."""

    manifest: ShardManifest
    dir: Path
    state: str = STATE_PENDING
    lease_id: str | None = None
    worker: str | None = None
    deadline: float | None = None
    times_lost: int = 0
    last_error: str | None = None

    def status_doc(self, now: float) -> dict:
        expires_in = None
        if self.state == STATE_LEASED and self.deadline is not None:
            expires_in = round(max(0.0, self.deadline - now), 3)
        return {
            "shard_id": self.manifest.shard_id,
            "state": self.state,
            "variants": [v.name for v in self.manifest.variants],
            "worker": self.worker,
            "lease_id": self.lease_id,
            "expires_in_s": expires_in,
            "times_lost": self.times_lost,
            "last_error": self.last_error,
        }


def _check_same_sweep(manifests: list[ShardManifest]) -> None:
    """All manifests must describe one sweep (same identity the merge checks)."""
    first = manifests[0]
    for manifest in manifests[1:]:
        if not manifest.same_sweep(first):
            raise ValidationError(
                f"coordinator seeded with manifests from different sweeps: "
                f"{manifest.shard_id} disagrees with {first.shard_id} on "
                "model/frames/tag/always_assert/lineup")


class SweepCoordinator:
    """Lease/collect/merge state for one sharded sweep.

    Seeded from the shard manifests a :func:`~repro.validate.shard.
    plan_shards` call produced; every manifest is written under
    ``workdir/shards/<shard_id>/manifest.json`` at construction so the
    work directory is a valid (planned-only) fleet tree from the first
    moment — ``GET /report`` and an offline ``repro sweep merge`` read
    the very same directories.

    All public methods are thread-safe (one lock; digest verification of
    uploads runs outside it so heartbeats never block on hashing).
    ``clock`` is injectable for deterministic lease-expiry tests.
    """

    def __init__(
        self,
        manifests: list[ShardManifest] | tuple[ShardManifest, ...],
        workdir: str | Path,
        *,
        ttl_s: float = DEFAULT_TTL_S,
        clock=time.monotonic,
    ):
        manifests = list(manifests)
        if not manifests:
            raise ValidationError(
                "coordinator needs at least one shard manifest")
        if ttl_s <= 0:
            raise ValidationError(f"ttl_s must be > 0, got {ttl_s}")
        _check_same_sweep(manifests)
        self.workdir = Path(workdir)
        self.ttl_s = float(ttl_s)
        self._clock = clock
        self._lock = threading.Lock()
        self.finalized = False
        self._started = clock()
        shard_dirs = write_shards(manifests, self.workdir / SHARDS_DIR)
        self._shards = [ShardRecord(manifest=m, dir=d)
                        for m, d in zip(manifests, shard_dirs)]
        self._by_lease: dict[str, ShardRecord] = {}
        self._remainders: list[ShardManifest] = []

    # ------------------------------------------------------------- inspection
    @property
    def model(self) -> str:
        return self._shards[0].manifest.model

    @property
    def frames(self) -> int:
        return self._shards[0].manifest.frames

    @property
    def complete(self) -> bool:
        """Every shard verified (a finalized fleet is done, not complete)."""
        with self._lock:
            return self._all_verified()

    def _all_verified(self) -> bool:
        return all(r.state == STATE_VERIFIED for r in self._shards)

    @property
    def done(self) -> bool:
        """No work will ever be leased again: complete or finalized."""
        with self._lock:
            return self.finalized or self._all_verified()

    def shard_dirs(self) -> list[Path]:
        return [record.dir for record in self._shards]

    # ---------------------------------------------------------- lease machine
    def _expire_leases(self, now: float) -> None:
        for record in self._shards:
            if record.state == STATE_LEASED and record.deadline is not None \
                    and now >= record.deadline:
                record.state = STATE_PENDING
                record.times_lost += 1
                record.last_error = (
                    f"lease {record.lease_id} by {record.worker!r} expired "
                    f"after {self.ttl_s:g}s without heartbeat")
                record.lease_id = None
                record.worker = None
                record.deadline = None

    def lease(self, worker: str | None = None) -> dict:
        """Hand the next pending shard to ``worker`` (first come, first serve).

        Returns one of three shapes: a grant (``lease_id``, ``ttl_s``,
        ``shard_id``, ``manifest``), a back-off hint (``retry_after_s``:
        everything is leased or being verified right now — poll again), or
        a stop (``complete``/``finalized`` true and no ``lease_id``).
        """
        now = self._clock()
        with self._lock:
            self._expire_leases(now)
            base = {"complete": self._all_verified(),
                    "finalized": self.finalized}
            if self.finalized or base["complete"]:
                return base
            for record in self._shards:
                if record.state != STATE_PENDING:
                    continue
                record.state = STATE_LEASED
                record.lease_id = uuid.uuid4().hex[:12]
                record.worker = worker or "anonymous"
                record.deadline = now + self.ttl_s
                self._by_lease[record.lease_id] = record
                return {**base,
                        "lease_id": record.lease_id,
                        "shard_id": record.manifest.shard_id,
                        "ttl_s": self.ttl_s,
                        "manifest": record.manifest.to_doc()}
            # Nothing pending but not everything verified: suggest retrying
            # after the soonest in-flight lease could expire.
            deadlines = [r.deadline - now for r in self._shards
                         if r.state == STATE_LEASED and r.deadline is not None]
            retry = min(deadlines) if deadlines else self.ttl_s
            return {**base, "retry_after_s": round(max(0.5, retry), 3)}

    def heartbeat(self, lease_id: str) -> dict:
        """Extend a live lease's TTL; tells an outdated worker the truth."""
        now = self._clock()
        with self._lock:
            self._expire_leases(now)
            record = self._by_lease.get(lease_id)
            if record is None:
                raise FleetProtocolError(
                    f"unknown lease {lease_id!r}", status=404)
            if record.state in (STATE_VERIFIED, STATE_UPLOADED):
                # The artifact already landed — nothing to keep alive, but
                # nothing is wrong either (upload and heartbeat race).
                return {"ok": True, "state": record.state,
                        "shard_id": record.manifest.shard_id}
            if record.lease_id != lease_id or record.state != STATE_LEASED:
                raise FleetProtocolError(
                    f"lease {lease_id!r} for {record.manifest.shard_id} is no "
                    f"longer live (shard is {record.state}); stop working on "
                    "it", status=409)
            record.deadline = now + self.ttl_s
            return {"ok": True, "state": record.state, "ttl_s": self.ttl_s,
                    "shard_id": record.manifest.shard_id}

    # --------------------------------------------------------------- uploads
    def upload(self, lease_id: str, blob: bytes) -> dict:
        """Accept one shard artifact archive — after it proves itself.

        The blob is unpacked to a private staging directory and must pass
        :func:`~repro.validate.merge.verify_artifact` (manifest + report +
        every edge log against ``digests.json``) *and* identify itself as
        the leased shard of this sweep before it replaces the shard's
        planned-only directory. Any defect → HTTP 422 naming it, the
        staging tree is discarded, and the shard returns to ``pending``.

        Idempotent: once a shard is ``verified``, any further upload for
        it (same lease or a later one) answers ``duplicate: true`` and
        changes nothing — two workers racing the same re-leased shard is
        normal fleet weather, not an error.
        """
        now = self._clock()
        with self._lock:
            self._expire_leases(now)
            record = self._by_lease.get(lease_id)
            if record is None:
                raise FleetProtocolError(
                    f"unknown lease {lease_id!r}", status=404)
            shard_id = record.manifest.shard_id
            if record.state == STATE_VERIFIED:
                return {"ok": True, "duplicate": True, "shard_id": shard_id,
                        "state": record.state}
            if record.state == STATE_LOST:
                raise FleetProtocolError(
                    f"shard {shard_id} was finalized as lost and its slice "
                    "re-planned into a remainder manifest; this upload is "
                    "refused to keep the remainder the single source of "
                    "truth", status=409)
            if record.state == STATE_UPLOADED:
                raise FleetProtocolError(
                    f"shard {shard_id} has an upload being verified right "
                    "now; retry only if it fails", status=409)
            previous_state = record.state
            record.state = STATE_UPLOADED
            staging = self.workdir / STAGING_DIR / f"{shard_id}-{lease_id}"

        # Verification happens outside the lock: hashing a large artifact
        # must not stall every other worker's heartbeat.
        try:
            if staging.exists():
                shutil.rmtree(staging)
            unpack_artifact(blob, staging)
            manifest = verify_artifact(staging)
            if manifest.to_doc() != record.manifest.to_doc():
                raise ValidationError(
                    f"uploaded artifact's manifest describes "
                    f"{manifest.shard_id!r} of a different plan, not the "
                    f"leased shard {shard_id!r}")
        except ValidationError as exc:
            shutil.rmtree(staging, ignore_errors=True)
            with self._lock:
                record.last_error = str(exc)
                if record.lease_id == lease_id:
                    # The rejected upload came from the current leaseholder:
                    # revoke the lease and return the shard to the pool.
                    record.state = STATE_PENDING
                    record.lease_id = None
                    record.worker = None
                    record.deadline = None
                else:
                    # A stale lease's late, corrupt upload: restore whatever
                    # was true before (a newer worker may hold the lease).
                    record.state = previous_state
            raise FleetProtocolError(
                f"shard {shard_id} upload rejected: {exc}; shard returned "
                "to pending", status=422) from None

        with self._lock:
            if record.state == STATE_VERIFIED:  # lost a verify race: fine
                shutil.rmtree(staging, ignore_errors=True)
                return {"ok": True, "duplicate": True, "shard_id": shard_id,
                        "state": record.state}
            shutil.rmtree(record.dir)
            staging.rename(record.dir)
            record.state = STATE_VERIFIED
            record.last_error = None
            record.deadline = None
            return {"ok": True, "verified": True, "shard_id": shard_id,
                    "state": record.state,
                    "complete": self._all_verified()}

    # ----------------------------------------------------------- aggregation
    def status(self) -> dict:
        now = self._clock()
        with self._lock:
            self._expire_leases(now)
            shards = [r.status_doc(now) for r in self._shards]
            counts: dict[str, int] = {}
            for doc in shards:
                counts[doc["state"]] = counts.get(doc["state"], 0) + 1
            return {
                "model": self.model,
                "frames": self.frames,
                "num_shards": len(self._shards),
                "complete": self._all_verified(),
                "finalized": self.finalized,
                "uptime_s": round(now - self._started, 3),
                "ttl_s": self.ttl_s,
                "counts": counts,
                "shards": shards,
            }

    def report(self, *, triage: bool = False) -> SweepReport:
        """The live merged fleet report, at whatever stage the sweep is in.

        Runs :func:`~repro.validate.merge.merge_shards` over the shard
        directories: verified artifacts contribute their results, every
        other shard is a planned-only directory whose variants come back
        ``skipped`` with a merge note — so a partial fleet renders as
        INCOMPLETE, and the moment the last shard verifies this output is
        byte-identical to an offline ``repro sweep merge`` over the same
        tree (uploads were digest-verified at acceptance, which is why
        ``verify`` is not repeated here).
        """
        with self._lock:
            return merge_shards(self.shard_dirs(), triage=triage,
                                verify=False)

    def finalize(self) -> dict:
        """Stop leasing and re-plan everything unfinished as remainders.

        Every shard not yet ``verified`` is marked ``lost`` and its slice
        re-issued as a fresh ``remainder-NNN`` manifest under
        ``workdir/remainder/`` — same sweep identity, same full lineup
        (every manifest carries it, which is what makes this possible), so
        their artifacts merge seamlessly with the verified ones later.
        Idempotent: a second finalize reports the same remainders.
        """
        now = self._clock()
        with self._lock:
            self._expire_leases(now)
            if not self.finalized:
                self.finalized = True
                lost = [r for r in self._shards if r.state != STATE_VERIFIED]
                self._remainders = []
                for index, record in enumerate(lost):
                    record.state = STATE_LOST
                    record.lease_id = None
                    record.worker = None
                    record.deadline = None
                    self._remainders.append(replace(
                        record.manifest,
                        shard_id=f"remainder-{index:03d}",
                        shard_index=index,
                        num_shards=len(lost)))
                if self._remainders:
                    write_shards(self._remainders,
                                 self.workdir / REMAINDER_DIR)
            remainder_root = self.workdir / REMAINDER_DIR
            return {
                "finalized": True,
                "complete": self._all_verified(),
                "lost": [r.manifest.shard_id for r in self._shards
                         if r.state == STATE_LOST],
                "remainder": [m.to_doc() for m in self._remainders],
                "remainder_dir": str(remainder_root)
                if self._remainders else None,
                "remainder_manifests": [
                    str(remainder_root / m.shard_id / MANIFEST_NAME)
                    for m in self._remainders],
            }


# ------------------------------------------------------------------ HTTP face

class _FleetHandler(BaseHTTPRequestHandler):
    """Routes the JSON API onto a :class:`SweepCoordinator`."""

    coordinator: SweepCoordinator  # bound by make_server's subclass
    server_version = "repro-fleet/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the CLI prints its own progress; per-request noise helps nobody

    def _send(self, code: int, doc: dict) -> None:
        body = json.dumps(doc, indent=2).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, fn) -> None:
        try:
            code, doc = fn()
        except FleetProtocolError as exc:
            self._send(exc.status, {"error": str(exc)})
        except ValidationError as exc:
            self._send(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - must answer, not hang
            self._send(500, {"error": f"coordinator internal error: {exc}"})
        else:
            self._send(code, doc)

    def _payload(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            doc = json.loads(raw.decode())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FleetProtocolError(
                f"request body is not valid JSON ({exc})", status=400) \
                from None
        if not isinstance(doc, dict):
            raise FleetProtocolError("request body must be a JSON object",
                                     status=400)
        return doc

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        parts = urlsplit(self.path)
        path, query = parts.path, parts.query
        coordinator = self.coordinator
        if path == "/status":
            self._dispatch(lambda: (200, coordinator.status()))
        elif path == "/report":
            triage = "triage=1" in query
            self._dispatch(
                lambda: (200, coordinator.report(triage=triage).to_doc()))
        else:
            self._send(404, {"error": f"no such endpoint: GET {path}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        path = urlsplit(self.path)[2]
        coordinator = self.coordinator
        if path == "/lease":
            def run():
                worker = self._payload().get("worker")
                return 200, coordinator.lease(worker)
            self._dispatch(run)
        elif path == "/heartbeat":
            def run():
                payload = self._payload()
                if "lease_id" not in payload:
                    raise FleetProtocolError(
                        "heartbeat needs a lease_id", status=400)
                return 200, coordinator.heartbeat(payload["lease_id"])
            self._dispatch(run)
        elif path.startswith("/upload/"):
            def run():
                lease_id = path[len("/upload/"):]
                length = int(self.headers.get("Content-Length") or 0)
                blob = self.rfile.read(length) if length else b""
                if not blob:
                    raise FleetProtocolError(
                        "upload body is empty", status=400)
                return 200, coordinator.upload(lease_id, blob)
            self._dispatch(run)
        elif path == "/finalize":
            self._dispatch(lambda: (200, coordinator.finalize()))
        else:
            self._send(404, {"error": f"no such endpoint: POST {path}"})


def make_server(
    coordinator: SweepCoordinator,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ThreadingHTTPServer:
    """An HTTP server bound to ``coordinator`` (``port=0`` picks a free one).

    The caller owns the serve loop: ``server.serve_forever()`` inline, or
    on a thread for tests and the CLI. :func:`server_url` gives the
    address workers should be pointed at.
    """
    handler = type("BoundFleetHandler", (_FleetHandler,),
                   {"coordinator": coordinator})
    return ThreadingHTTPServer((host, port), handler)


def server_url(server: ThreadingHTTPServer) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"
