"""The fleet worker loop: lease → run the shard → upload → repeat.

A worker is any process that can import :mod:`repro` and reach the
coordinator over HTTP. It owns no global state: everything it needs to
execute a shard arrives in the leased manifest (the PR-5 portability
contract), and everything it produces travels back as one digest-carrying
artifact archive. While a shard runs, a daemon thread heartbeats the
lease so the coordinator can tell "slow" from "dead"; if the worker dies
instead, the lease TTL expires and the shard is simply handed to the next
worker to ask.

Transient HTTP faults (coordinator restarting, a dropped connection) are
retried with exponential backoff via
:func:`~repro.util.retry.with_retries`; protocol rejections (a digest
mismatch, a lease the coordinator no longer recognizes) are not — those
are answers, not weather.
"""

from __future__ import annotations

import os
import socket
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.fleet.client import (
    CoordinatorClient,
    FleetProtocolError,
    FleetTransportError,
    pack_artifact,
)
from repro.util.errors import ReproError, ValidationError
from repro.util.retry import with_retries
from repro.validate.shard import ShardManifest, run_shard

HEARTBEAT_FRACTION = 3.0
"""Heartbeats fire every ``ttl / HEARTBEAT_FRACTION`` seconds.

Three beats per TTL window means two may be lost to transient faults
before the coordinator declares the lease expired.
"""

MAX_SHARD_FAILURES = 3
"""Local shard failures after which a worker stops leasing: a shard that
deterministically fails here would otherwise ping-pong between this worker
and the pool forever."""


class _HeartbeatThread:
    """Background lease keep-alive for one shard run.

    Failures are recorded, never raised: a heartbeat that cannot get
    through must not kill the computation it is narrating — if the lease
    really is gone, the upload (or its absence) settles the matter.
    """

    def __init__(self, client: CoordinatorClient, lease_id: str,
                 interval_s: float):
        self.client = client
        self.lease_id = lease_id
        self.interval_s = interval_s
        self.beats = 0
        self.failures: list[str] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat-{lease_id}", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.client.heartbeat(self.lease_id)
                self.beats += 1
            except (FleetTransportError, FleetProtocolError) as exc:
                self.failures.append(str(exc))

    def __enter__(self) -> "_HeartbeatThread":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


@dataclass
class WorkerSummary:
    """What one :func:`run_worker` loop accomplished."""

    worker: str
    completed: list[str] = field(default_factory=list)
    duplicates: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    polls: int = 0
    stop_reason: str = ""

    @property
    def ok(self) -> bool:
        return not self.failures


def default_worker_name() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def run_worker(
    coordinator_url: str,
    *,
    name: str | None = None,
    out_root: str | Path | None = None,
    executor: str = "process",
    workers: int | None = None,
    poll_s: float = 1.0,
    attempts: int = 5,
    base_delay: float = 0.5,
    on_event=None,
    sleep=time.sleep,
    client: CoordinatorClient | None = None,
) -> WorkerSummary:
    """Drain a coordinator: lease shards until it reports the sweep done.

    Each leased shard is executed with :func:`~repro.validate.shard.
    run_shard` into ``out_root/<shard_id>`` (a temporary directory per
    shard when ``out_root`` is ``None``), packed, and uploaded under the
    lease. The loop ends when the coordinator answers a lease request
    with ``complete`` or ``finalized``, or after
    :data:`MAX_SHARD_FAILURES` local shard failures.

    ``on_event(kind, detail)`` receives progress strings (``lease``,
    ``run``, ``upload``, ``duplicate``, ``wait``, ``error``) — the CLI
    prints them; library callers may ignore them. ``sleep`` is injectable
    for tests. Transient transport faults on every RPC are retried
    ``attempts`` times with exponential backoff.
    """
    client = client or CoordinatorClient(coordinator_url)
    summary = WorkerSummary(worker=name or default_worker_name())

    def emit(kind: str, detail: str) -> None:
        if on_event is not None:
            on_event(kind, detail)

    def rpc(fn):
        return with_retries(fn, attempts=attempts, base_delay=base_delay,
                            retry_on=FleetTransportError, sleep=sleep)

    while True:
        response = rpc(lambda: client.lease(summary.worker))
        if response.get("complete") or response.get("finalized"):
            summary.stop_reason = ("complete" if response.get("complete")
                                   else "finalized")
            emit("done", f"coordinator reports sweep {summary.stop_reason}")
            return summary
        if "lease_id" not in response:
            summary.polls += 1
            # retry_after_s is the soonest an in-flight lease could expire,
            # but a shard can return to the pool earlier (a rejected
            # upload), so never wait longer than our own poll cadence.
            wait = min(float(response.get("retry_after_s", poll_s)), poll_s)
            emit("wait", f"no shard available; retrying in {wait:g}s")
            sleep(wait)
            continue

        lease_id = response["lease_id"]
        ttl_s = float(response["ttl_s"])
        manifest = ShardManifest.from_doc(response["manifest"])
        shard_id = manifest.shard_id
        emit("lease", f"{shard_id} leased as {lease_id} (ttl {ttl_s:g}s)")

        scratch = None
        if out_root is None:
            scratch = tempfile.TemporaryDirectory(prefix="exray-worker-")
            out_dir = Path(scratch.name) / shard_id
        else:
            out_dir = Path(out_root) / shard_id
        try:
            with _HeartbeatThread(client, lease_id,
                                  ttl_s / HEARTBEAT_FRACTION):
                emit("run", f"{shard_id}: running "
                            f"{len(manifest.variants)} variant(s)")
                run_shard(manifest, out_dir, executor=executor,
                          workers=workers)
            blob = pack_artifact(out_dir)
            ack = rpc(lambda: client.upload(lease_id, blob))
            if ack.get("duplicate"):
                summary.duplicates.append(shard_id)
                emit("duplicate", f"{shard_id}: another worker's artifact "
                                  "was already verified")
            else:
                summary.completed.append(shard_id)
                emit("upload", f"{shard_id}: artifact verified "
                               f"({len(blob):,} bytes)")
        except (ReproError, ValidationError) as exc:
            summary.failures.append(f"{shard_id}: {exc}")
            emit("error", f"{shard_id}: {exc}")
            if len(summary.failures) >= MAX_SHARD_FAILURES:
                summary.stop_reason = "too many shard failures"
                return summary
            sleep(poll_s)
        finally:
            if scratch is not None:
                scratch.cleanup()
