"""Fleet control-plane tests: lease machine, uploads, worker loop, CLI.

The headline property is the fleet analogue of PR 5's partition
invariance: a coordinator drained over HTTP by concurrent workers serves
a ``/report`` byte-identical (modulo artifact ``log_dir`` paths) to the
single-process ``run_sweep`` of the same lineup. Around it, the fault
half pins the control plane's defensive contract: expired leases return
to the pool and the sweep still completes, duplicate uploads are
idempotent, corrupt uploads are rejected with the digest mismatch named
and the shard re-pooled, and ``/finalize`` re-plans every lost slice
into remainder manifests that merge seamlessly with the verified ones.
"""

import copy
import io
import json
import tarfile
import threading
import zipfile
from pathlib import Path

import pytest

from repro.cli import main
from repro.fleet import (
    CoordinatorClient,
    FleetProtocolError,
    FleetTransportError,
    SweepCoordinator,
    make_server,
    pack_artifact,
    run_worker,
    server_url,
    unpack_artifact,
)
from repro.util.errors import ValidationError
from repro.validate.merge import merge_shards
from repro.validate.shard import ShardManifest, plan_shards, run_shard
from repro.validate.sweep import run_sweep
from repro.validate.variants import SweepVariant

MODEL = "micro_mobilenet_v1"
FRAMES = 6

LINEUP = (
    SweepVariant("clean"),
    SweepVariant("tap", resolver="batched"),
    SweepVariant("rot90", {"rotation_k": 1}),
)


def make_manifests(n_shards=3, frames=FRAMES):
    # No reference entry: fleet workers rebuild it deterministically from
    # (model, frames, tag), exactly like `repro sweep serve` plans.
    return plan_shards(MODEL, list(LINEUP), n_shards=n_shards, frames=frames)


def stripped(report_doc):
    """A report doc with artifact-location noise removed.

    ``log_dir`` is the one field that legitimately differs between an
    in-process sweep and a fleet of artifacts — everything else must be
    byte-identical.
    """
    doc = copy.deepcopy(report_doc)
    for result in doc["results"]:
        result["log_dir"] = None
    return doc


def canonical(report_doc) -> str:
    return json.dumps(stripped(report_doc), sort_keys=True)


class FakeClock:
    """Injectable monotonic clock for deterministic lease-expiry tests."""

    def __init__(self):
        self.now = 100.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


def run_leased_shard(coordinator, grant, out_dir):
    """Execute a lease's manifest offline and return the packed artifact."""
    manifest = ShardManifest.from_doc(grant["manifest"])
    run_shard(manifest, out_dir, executor="serial")
    return pack_artifact(out_dir)


@pytest.fixture(scope="module")
def baseline():
    return run_sweep(MODEL, LINEUP, frames=FRAMES, executor="serial")


@pytest.fixture(scope="module")
def drained(tmp_path_factory):
    """A 3-shard coordinator drained over HTTP by two concurrent workers.

    Kept serving for the whole module so status/report/CLI tests can poke
    the settled fleet without re-running shards.
    """
    workdir = tmp_path_factory.mktemp("fleet")
    coordinator = SweepCoordinator(make_manifests(), workdir, ttl_s=120.0)
    server = make_server(coordinator)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = server_url(server)

    summaries = [None, None]

    def drain(slot):
        summaries[slot] = run_worker(url, name=f"worker-{slot}",
                                     executor="serial", poll_s=0.05)

    workers = [threading.Thread(target=drain, args=(slot,))
               for slot in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=300)
    assert all(s is not None for s in summaries), "a worker never finished"
    yield coordinator, url, summaries
    server.shutdown()
    server.server_close()


class TestEndToEnd:
    def test_two_workers_drain_three_shards(self, drained):
        coordinator, _, summaries = drained
        assert all(s.ok for s in summaries)
        assert all(s.stop_reason == "complete" for s in summaries)
        done = sorted(sid for s in summaries
                      for sid in s.completed + s.duplicates)
        assert done == ["shard-000", "shard-001", "shard-002"]
        assert coordinator.complete

    def test_status_shows_every_shard_verified(self, drained):
        _, url, _ = drained
        status = CoordinatorClient(url).status()
        assert status["complete"] is True
        assert status["finalized"] is False
        assert status["counts"] == {"verified": 3}
        assert status["model"] == MODEL and status["frames"] == FRAMES
        assert all(s["state"] == "verified" for s in status["shards"])

    def test_report_byte_identical_to_run_sweep(self, drained, baseline):
        coordinator, url, _ = drained
        live = CoordinatorClient(url).report()
        assert canonical(live) == canonical(baseline.to_doc())
        # ... and to an offline merge over the very same artifact tree.
        offline = merge_shards(coordinator.shard_dirs(), triage=False)
        assert canonical(live) == canonical(offline.to_doc())
        assert live["notes"] == []

    def test_cli_sweep_status_on_complete_fleet(self, drained, tmp_path):
        _, url, _ = drained
        out = io.StringIO()
        code = main(["sweep", "status", url], out=out)
        assert code == 0  # complete → 0: `until repro sweep status` works
        text = out.getvalue()
        assert "complete" in text and "3 verified" in text
        assert "shard-000" in text

        report_json = tmp_path / "live.json"
        out = io.StringIO()
        code = main(["sweep", "status", url, "--json",
                     "--report-json", str(report_json)], out=out)
        assert code == 0
        assert json.loads(out.getvalue().split("live merged")[0])["complete"]
        doc = json.loads(report_json.read_text())
        assert [r["variant"]["name"] for r in doc["results"]] == \
            [v.name for v in LINEUP]

    def test_cli_worker_against_complete_fleet_exits_clean(self, drained):
        _, url, _ = drained
        out = io.StringIO()
        code = main(["sweep-worker", "run", "--coordinator", url,
                     "--executor", "serial"], out=out)
        assert code == 0
        assert "sweep complete" in out.getvalue()
        assert "0 failure(s)" in out.getvalue()


class TestReportInFlight:
    def test_report_before_completion_is_incomplete(self, tmp_path):
        coordinator = SweepCoordinator(make_manifests(), tmp_path / "w")
        # Nothing uploaded yet: every variant is planned-only.
        report = coordinator.report()
        assert all(r.status == "skipped" for r in report.results)
        assert any("never ran" in note for note in report.notes)

        # Upload exactly one shard; the live report must show its variant
        # with a real verdict and the rest skipped → INCOMPLETE.
        grant = coordinator.lease("w1")
        blob = run_leased_shard(coordinator, grant, tmp_path / "run")
        ack = coordinator.upload(grant["lease_id"], blob)
        assert ack["verified"] is True and ack["complete"] is False

        report = coordinator.report()
        done = [r for r in report.results if r.status != "skipped"]
        assert len(done) == 1 and done[0].completed
        assert done[0].variant.name == "clean"  # shard-000's slice
        assert [r.variant.name for r in report.results] == \
            [v.name for v in LINEUP]  # full lineup order, always
        assert "INCOMPLETE (2 skipped)" in report.render()
        assert len([n for n in report.notes if "never ran" in n]) == 2


class TestLeaseMachine:
    def test_expired_lease_returns_to_pool_and_sweep_completes(self, tmp_path):
        clock = FakeClock()
        coordinator = SweepCoordinator(
            make_manifests(n_shards=1), tmp_path / "w",
            ttl_s=10.0, clock=clock)
        first = coordinator.lease("doomed-worker")
        assert first["shard_id"] == "shard-000"

        # The worker dies silently; until the TTL passes the shard is
        # unavailable, afterwards it is re-leased to whoever asks.
        clock.advance(9.0)
        assert "retry_after_s" in coordinator.lease("patient-worker")
        clock.advance(2.0)
        second = coordinator.lease("patient-worker")
        assert second["shard_id"] == "shard-000"
        assert second["lease_id"] != first["lease_id"]
        status = coordinator.status()["shards"][0]
        assert status["times_lost"] == 1
        assert status["worker"] == "patient-worker"
        assert "expired" in status["last_error"]

        blob = run_leased_shard(coordinator, second, tmp_path / "run")
        ack = coordinator.upload(second["lease_id"], blob)
        assert ack["complete"] is True
        assert coordinator.complete
        report = coordinator.report()
        assert all(r.status != "skipped" for r in report.results)
        assert report.notes == []

    def test_dead_lease_upload_is_still_accepted_if_first(self, tmp_path):
        # An expired worker that finished anyway may still win the race:
        # its lease id is remembered, and accepting the artifact is
        # harmless because it is digest-verified like any other.
        clock = FakeClock()
        coordinator = SweepCoordinator(
            make_manifests(n_shards=1), tmp_path / "w",
            ttl_s=10.0, clock=clock)
        first = coordinator.lease("slow-worker")
        blob = run_leased_shard(coordinator, first, tmp_path / "run")
        clock.advance(11.0)
        second = coordinator.lease("replacement")
        assert second["shard_id"] == "shard-000"
        ack = coordinator.upload(first["lease_id"], blob)
        assert ack["verified"] is True
        # The replacement's later identical upload is a duplicate, not
        # an error.
        ack = coordinator.upload(second["lease_id"], blob)
        assert ack["duplicate"] is True

    def test_heartbeat_extends_lease(self, tmp_path):
        clock = FakeClock()
        coordinator = SweepCoordinator(
            make_manifests(n_shards=1), tmp_path / "w",
            ttl_s=10.0, clock=clock)
        grant = coordinator.lease("w1")
        clock.advance(8.0)
        beat = coordinator.heartbeat(grant["lease_id"])
        assert beat["ok"] is True and beat["state"] == "leased"
        clock.advance(8.0)  # t=16: dead without the beat at t=8
        assert "retry_after_s" in coordinator.lease("w2")
        shard = coordinator.status()["shards"][0]
        assert shard["state"] == "leased" and shard["times_lost"] == 0

    def test_stale_heartbeat_told_the_truth(self, tmp_path):
        clock = FakeClock()
        coordinator = SweepCoordinator(
            make_manifests(n_shards=1), tmp_path / "w",
            ttl_s=10.0, clock=clock)
        first = coordinator.lease("w1")
        clock.advance(11.0)
        coordinator.lease("w2")  # shard re-leased under a new lease id
        with pytest.raises(FleetProtocolError) as err:
            coordinator.heartbeat(first["lease_id"])
        assert err.value.status == 409
        assert "no longer live" in str(err.value)

    def test_unknown_lease_is_404(self, tmp_path):
        coordinator = SweepCoordinator(make_manifests(), tmp_path / "w")
        for call in (lambda: coordinator.heartbeat("nope"),
                     lambda: coordinator.upload("nope", b"x")):
            with pytest.raises(FleetProtocolError) as err:
                call()
            assert err.value.status == 404

    def test_manifests_from_different_sweeps_rejected(self, tmp_path):
        mixed = make_manifests()[:1] + plan_shards(
            MODEL, list(LINEUP), n_shards=3, frames=FRAMES + 2)[1:]
        with pytest.raises(ValidationError, match="different sweeps"):
            SweepCoordinator(mixed, tmp_path / "w")


class TestUploads:
    @pytest.fixture()
    def leased(self, tmp_path):
        """A 1-shard coordinator with a live lease and a good artifact."""
        coordinator = SweepCoordinator(
            make_manifests(n_shards=1), tmp_path / "w")
        grant = coordinator.lease("w1")
        blob = run_leased_shard(coordinator, grant, tmp_path / "run")
        return coordinator, grant, blob, tmp_path

    def test_duplicate_upload_is_idempotent(self, leased, baseline):
        coordinator, grant, blob, _ = leased
        first = coordinator.upload(grant["lease_id"], blob)
        assert first["verified"] is True
        again = coordinator.upload(grant["lease_id"], blob)
        assert again == {"ok": True, "duplicate": True,
                         "shard_id": "shard-000", "state": "verified"}
        # The duplicate changed nothing: the report still matches.
        assert canonical(coordinator.report().to_doc()) == \
            canonical(baseline.to_doc())

    def test_corrupt_upload_rejected_shard_repooled(self, leased):
        coordinator, grant, blob, tmp_path = leased
        # Tamper with report.json inside the archive: digests.json still
        # records the honest hash, so verification must name the mismatch.
        evil_dir = tmp_path / "evil"
        unpack_artifact(blob, evil_dir)
        report_path = evil_dir / "report.json"
        report_path.write_text(report_path.read_text() + " ")
        with pytest.raises(FleetProtocolError) as err:
            coordinator.upload(grant["lease_id"], pack_artifact(evil_dir))
        assert err.value.status == 422
        assert "digest" in str(err.value)
        assert "returned to pending" in str(err.value)

        shard = coordinator.status()["shards"][0]
        assert shard["state"] == "pending"
        assert "digest" in shard["last_error"]

        # The shard is re-leasable and an honest upload then succeeds.
        retry = coordinator.lease("w2")
        assert retry["shard_id"] == "shard-000"
        ack = coordinator.upload(retry["lease_id"], blob)
        assert ack["verified"] is True and coordinator.complete

    def test_wrong_shard_artifact_rejected(self, leased):
        coordinator, grant, _, tmp_path = leased
        # A structurally-valid artifact of a *different* plan must not be
        # accepted under this lease.
        other = plan_shards(MODEL, [SweepVariant("clean")], n_shards=1,
                            frames=FRAMES)[0]
        run_shard(other, tmp_path / "other", executor="serial")
        with pytest.raises(FleetProtocolError) as err:
            coordinator.upload(grant["lease_id"],
                               pack_artifact(tmp_path / "other"))
        assert err.value.status == 422
        assert "different plan" in str(err.value)
        assert coordinator.status()["shards"][0]["state"] == "pending"

    def test_zip_upload_rejected_shard_repooled(self, leased):
        coordinator, grant, blob, tmp_path = leased
        # The honest artifact, re-archived as a zip: workers only ever
        # upload the tar pack_artifact makes, so nothing else is readable.
        honest = tmp_path / "honest"
        unpack_artifact(blob, honest)
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as archive:
            for path in sorted(p for p in honest.rglob("*") if p.is_file()):
                archive.writestr(path.relative_to(honest).as_posix(),
                                 path.read_bytes())
        zipped = buf.getvalue()
        with pytest.raises(ValidationError, match="not a readable tar"):
            unpack_artifact(zipped, tmp_path / "out")

        with pytest.raises(FleetProtocolError) as err:
            coordinator.upload(grant["lease_id"], zipped)
        assert err.value.status == 422
        assert "not a readable tar archive" in str(err.value)
        assert coordinator.status()["shards"][0]["state"] == "pending"

    def test_garbage_blob_rejected(self, leased):
        coordinator, grant, _, _ = leased
        with pytest.raises(FleetProtocolError) as err:
            coordinator.upload(grant["lease_id"], b"not an archive at all")
        assert err.value.status == 422
        assert coordinator.status()["shards"][0]["state"] == "pending"


class TestFinalize:
    def test_remainders_complete_the_sweep_offline(self, tmp_path, baseline):
        coordinator = SweepCoordinator(make_manifests(), tmp_path / "w")
        grant = coordinator.lease("w1")
        blob = run_leased_shard(coordinator, grant, tmp_path / "run")
        coordinator.upload(grant["lease_id"], blob)

        doc = coordinator.finalize()
        assert doc["finalized"] is True and doc["complete"] is False
        assert len(doc["lost"]) == 2 and len(doc["remainder"]) == 2
        # Remainders are a fresh, self-consistent plan of the lost slices
        # carrying the full original lineup.
        remainders = [ShardManifest.from_doc(d) for d in doc["remainder"]]
        assert [m.shard_id for m in remainders] == \
            ["remainder-000", "remainder-001"]
        assert all(m.num_shards == 2 for m in remainders)
        assert all([v.name for v in m.lineup] == [v.name for v in LINEUP]
                   for m in remainders)

        # Finalize is a fence: no more leases; idempotent.
        assert coordinator.lease("late") == \
            {"complete": False, "finalized": True}
        assert coordinator.finalize() == doc

        # The advertised manifests run offline (`repro sweep-worker run`)
        # and their artifacts merge with the verified shard into the very
        # report the unbroken fleet would have served.
        remainder_dirs = []
        for path in doc["remainder_manifests"]:
            shard_dir = Path(path).parent
            run_shard(path, shard_dir, executor="serial")
            remainder_dirs.append(shard_dir)
        verified = [r.dir for r in coordinator._shards
                    if r.state == "verified"]
        merged = merge_shards(verified + remainder_dirs, triage=False)
        assert canonical(merged.to_doc()) == canonical(baseline.to_doc())

    def test_upload_to_lost_shard_409(self, tmp_path):
        coordinator = SweepCoordinator(make_manifests(), tmp_path / "w")
        grant = coordinator.lease("w1")
        coordinator.finalize()
        with pytest.raises(FleetProtocolError) as err:
            coordinator.upload(grant["lease_id"], b"whatever")
        assert err.value.status == 409
        assert "lost" in str(err.value)


class TestHTTPFace:
    @pytest.fixture()
    def served(self, tmp_path):
        coordinator = SweepCoordinator(make_manifests(), tmp_path / "w")
        server = make_server(coordinator)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield coordinator, server_url(server)
        server.shutdown()
        server.server_close()

    def test_lease_round_trips_manifest(self, served):
        coordinator, url = served
        grant = CoordinatorClient(url).lease("http-worker")
        assert grant["shard_id"] == "shard-000"
        manifest = ShardManifest.from_doc(grant["manifest"])
        assert manifest == coordinator._shards[0].manifest
        assert coordinator.status()["shards"][0]["worker"] == "http-worker"

    def test_protocol_errors_carry_status_and_detail(self, served):
        _, url = served
        client = CoordinatorClient(url)
        with pytest.raises(FleetProtocolError) as err:
            client.heartbeat("bogus")
        assert err.value.status == 404
        assert "unknown lease" in str(err.value)
        with pytest.raises(FleetProtocolError) as err:
            client.upload("bogus", b"")
        assert err.value.status == 400  # empty body refused before lease

    def test_unknown_endpoints_404(self, served):
        from repro.fleet import request_json
        _, url = served
        for method, path in (("GET", "/nope"), ("POST", "/nope")):
            with pytest.raises(FleetProtocolError) as err:
                request_json(f"{url}{path}", method=method)
            assert err.value.status == 404
            assert "no such endpoint" in str(err.value)

    def test_malformed_json_body_400(self, served):
        from repro.fleet import request_json
        _, url = served
        with pytest.raises(FleetProtocolError) as err:
            request_json(f"{url}/lease", method="POST", body=b"{oops",
                         content_type="application/json")
        assert err.value.status == 400
        assert "not valid JSON" in str(err.value)

    def test_unreachable_coordinator_is_transport_error(self):
        client = CoordinatorClient("http://127.0.0.1:1")  # nothing listens
        with pytest.raises(FleetTransportError):
            client.status()
        with pytest.raises(ValidationError, match="http"):
            CoordinatorClient("ftp://example.com")

    def test_cli_status_in_flight_exits_one(self, served):
        _, url = served
        out = io.StringIO()
        code = main(["sweep", "status", url], out=out)
        assert code == 1  # in flight: the CI poll loop keeps waiting
        assert "in flight" in out.getvalue()
        assert "3 pending" in out.getvalue()


class TestArtifactArchive:
    def make_tree(self, tmp_path):
        root = tmp_path / "artifact"
        (root / "logs" / "clean").mkdir(parents=True)
        (root / "manifest.json").write_text("{}")
        (root / "logs" / "clean" / "meta.json").write_text('{"a": 1}')
        return root

    def test_pack_unpack_round_trip(self, tmp_path):
        root = self.make_tree(tmp_path)
        dest = tmp_path / "out"
        unpack_artifact(pack_artifact(root), dest)
        assert (dest / "manifest.json").read_text() == "{}"
        assert (dest / "logs" / "clean" / "meta.json").read_text() == \
            '{"a": 1}'

    def test_pack_is_deterministic(self, tmp_path):
        root = self.make_tree(tmp_path)
        assert pack_artifact(root) == pack_artifact(root)

    def test_traversal_member_rejected(self, tmp_path):
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w") as tar:
            info = tarfile.TarInfo("../escape.txt")
            info.size = 2
            tar.addfile(info, io.BytesIO(b"hi"))
        with pytest.raises(ValidationError, match="escapes"):
            unpack_artifact(buf.getvalue(), tmp_path / "out")
        assert not (tmp_path / "escape.txt").exists()

    def test_symlink_member_rejected(self, tmp_path):
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w") as tar:
            info = tarfile.TarInfo("link")
            info.type = tarfile.SYMTYPE
            info.linkname = "/etc/passwd"
            tar.addfile(info)
        with pytest.raises(ValidationError, match="not a regular file"):
            unpack_artifact(buf.getvalue(), tmp_path / "out")


class ScriptedClient:
    """A fake CoordinatorClient that replays canned lease responses."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.heartbeats = 0

    def lease(self, worker):
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response

    def heartbeat(self, lease_id):
        self.heartbeats += 1
        return {"ok": True}

    def upload(self, lease_id, blob):
        raise AssertionError("no upload expected in this script")


class TestWorkerLoop:
    def test_waits_then_stops_on_complete(self):
        sleeps = []
        client = ScriptedClient([
            {"complete": False, "finalized": False, "retry_after_s": 0.25},
            {"complete": True, "finalized": False},
        ])
        summary = run_worker("http://fake", client=client,
                             sleep=sleeps.append)
        assert summary.stop_reason == "complete"
        assert summary.polls == 1 and summary.ok
        assert sleeps == [0.25]

    def test_transport_faults_retried_with_backoff(self):
        sleeps = []
        client = ScriptedClient([
            FleetTransportError("coordinator rebooting"),
            FleetTransportError("still rebooting"),
            {"complete": False, "finalized": True},
        ])
        summary = run_worker("http://fake", client=client, attempts=4,
                             base_delay=0.5, sleep=sleeps.append)
        assert summary.stop_reason == "finalized"
        assert len(sleeps) == 2  # one backoff per transport fault
        assert not client.responses

    def test_transport_budget_exhausted_raises(self):
        client = ScriptedClient(
            [FleetTransportError(f"down #{i}") for i in range(5)])
        with pytest.raises(FleetTransportError, match="down #2"):
            run_worker("http://fake", client=client, attempts=3,
                       sleep=lambda _s: None)
