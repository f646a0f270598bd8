"""Sharded-sweep tests: partition invariance, fault injection, manifests.

The core property: for a fixed lineup, *any* shard partition merges back
into a fleet report byte-identical (ordering, verdicts, triage clusters)
to the in-process ``run_sweep`` — variants are deterministic and
order-independent, so where they ran must not matter. The fault-injection
half pins the defensive contract: truncated manifests, missing artifacts,
digest mismatches, and duplicate variants surface as named
``ValidationError``\\ s or ``skipped``/``INCOMPLETE`` merge outcomes,
never tracebacks.
"""

import json
import shutil

import pytest

from repro.instrument.store import log_digest
from repro.util.errors import ValidationError
from repro.validate.execution import build_reference_log
from repro.validate.merge import merge_shards
from repro.validate.shard import (
    MANIFEST_NAME,
    MANIFEST_SCHEMA_VERSION,
    REPORT_NAME,
    ShardManifest,
    plan_shards,
    run_shard,
    write_shards,
)
from repro.validate.sweep import run_sweep
from repro.validate.triage import triage_sweep
from repro.validate.variants import SweepVariant, expand_backends

MODEL = "micro_mobilenet_v1"
FRAMES = 8

LINEUP = (
    SweepVariant("clean"),
    SweepVariant("tap", resolver="batched"),
    SweepVariant("rot90", {"rotation_k": 1}),
)


def shard_and_merge(tmp, lineup, n_shards, frames=FRAMES, triage=True):
    """Plan → run every shard → merge: the whole fleet flow, in process."""
    ref_root = tmp / "reference"
    build_reference_log(MODEL, frames, "sweep", log_root=ref_root)
    manifests = plan_shards(MODEL, list(lineup), n_shards=n_shards,
                            frames=frames, reference="../reference",
                            reference_digest=log_digest(ref_root))
    shard_dirs = write_shards(manifests, tmp)
    for shard_dir in shard_dirs:
        run_shard(shard_dir / MANIFEST_NAME, shard_dir, executor="serial")
    return merge_shards(shard_dirs, triage=triage), shard_dirs


@pytest.fixture(scope="module")
def baseline():
    report = run_sweep(MODEL, LINEUP, frames=FRAMES, executor="serial")
    report.triage = triage_sweep(report)
    return report


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """A fully-executed 2-shard fleet of LINEUP: shard-000=[clean, tap],
    shard-001=[rot90]. Fault tests copy it and corrupt the copy."""
    tmp = tmp_path_factory.mktemp("fleet")
    _, shard_dirs = shard_and_merge(tmp, LINEUP, 2)
    return tmp, shard_dirs


def corrupted_fleet(fleet, tmp_path):
    """A private copy of the executed fleet, safe to vandalize."""
    src, _ = fleet
    dst = tmp_path / "fleet"
    shutil.copytree(src, dst)
    return dst, [dst / "shard-000", dst / "shard-001"]


class TestPartitionInvariance:
    @pytest.mark.parametrize("n_shards", [1, 2, len(LINEUP)])
    def test_merge_is_byte_identical_to_run_sweep(self, tmp_path, baseline,
                                                  n_shards):
        merged, _ = shard_and_merge(tmp_path, LINEUP, n_shards)
        assert merged.render() == baseline.render()
        assert [r.verdict() for r in merged.results] == \
            [r.verdict() for r in baseline.results]
        assert [r.variant.name for r in merged.results] == \
            [v.name for v in LINEUP]
        assert [(c.label, c.variant_names) for c in merged.triage.clusters] \
            == [(c.label, c.variant_names) for c in baseline.triage.clusters]
        assert merged.notes == []

    def test_backend_fanout_lineup_splits_across_shards(self, tmp_path):
        # name@backend clones of the same base variant land on different
        # shards; the merge must still reconstruct the lineup order and
        # the exact verdicts of the in-process sweep.
        lineup = expand_backends(
            [SweepVariant("clean"), SweepVariant("rot", {"rotation_k": 1})],
            ["optimized", "batched"])
        assert [v.name for v in lineup] == [
            "clean@optimized", "clean@batched",
            "rot@optimized", "rot@batched"]
        baseline = run_sweep(MODEL, lineup, frames=6, executor="serial")
        baseline.triage = triage_sweep(baseline)
        merged, shard_dirs = shard_and_merge(tmp_path, lineup, 3, frames=6)
        assert len(shard_dirs) == 3  # 2/1/1 split: clones truly separated
        assert merged.render() == baseline.render()

    def test_merged_log_dirs_point_into_artifacts(self, fleet):
        _, shard_dirs = fleet
        merged = merge_shards(shard_dirs)
        for result in merged.results:
            assert result.log_dir is not None
            assert result.variant.name in result.log_dir
            assert any(str(d) in result.log_dir for d in shard_dirs)


class TestPlanShards:
    def test_contiguous_balanced_partition(self):
        manifests = plan_shards(MODEL, LINEUP, n_shards=2, frames=4)
        assert [m.shard_id for m in manifests] == ["shard-000", "shard-001"]
        assert [[v.name for v in m.variants] for m in manifests] == \
            [["clean", "tap"], ["rot90"]]
        assert all(tuple(m.lineup) == tuple(LINEUP) for m in manifests)
        assert all(m.num_shards == 2 for m in manifests)

    def test_max_variants_per_shard(self):
        manifests = plan_shards(MODEL, LINEUP, max_variants_per_shard=1)
        assert len(manifests) == 3
        assert [len(m.variants) for m in manifests] == [1, 1, 1]

    def test_n_shards_clamped_to_lineup(self):
        manifests = plan_shards(MODEL, LINEUP, n_shards=10, frames=4)
        assert len(manifests) == len(LINEUP)  # no empty shards

    def test_exactly_one_partition_knob_required(self):
        with pytest.raises(ValidationError):
            plan_shards(MODEL, LINEUP)
        with pytest.raises(ValidationError):
            plan_shards(MODEL, LINEUP, n_shards=2, max_variants_per_shard=1)

    def test_bad_knob_values_rejected(self):
        with pytest.raises(ValidationError):
            plan_shards(MODEL, LINEUP, n_shards=0)
        with pytest.raises(ValidationError):
            plan_shards(MODEL, LINEUP, max_variants_per_shard=0)

    def test_duplicate_lineup_rejected_at_planning(self):
        with pytest.raises(ValidationError):
            plan_shards(MODEL, [SweepVariant("a"), SweepVariant("a")],
                        n_shards=2)


class TestManifestRoundTrip:
    def test_save_load_is_identity(self, tmp_path):
        manifest = plan_shards(
            MODEL, LINEUP, n_shards=2, frames=4, always_assert=True,
            reference="../reference", reference_digest="ab" * 32)[0]
        path = manifest.save(tmp_path / "m.json")
        assert ShardManifest.load(path) == manifest

    def test_doc_version_stamped_and_checked(self):
        doc = plan_shards(MODEL, LINEUP, n_shards=1, frames=4)[0].to_doc()
        assert doc["schema_version"] == MANIFEST_SCHEMA_VERSION
        doc["schema_version"] = 99
        with pytest.raises(ValidationError, match="schema version"):
            ShardManifest.from_doc(doc)

    def test_truncated_manifest_named_error(self, tmp_path):
        path = plan_shards(MODEL, LINEUP, n_shards=1, frames=4)[0] \
            .save(tmp_path / "m.json")
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(ValidationError, match="truncated"):
            ShardManifest.load(path)

    def test_missing_manifest_named_error(self, tmp_path):
        with pytest.raises(ValidationError, match="no shard manifest"):
            ShardManifest.load(tmp_path / "nope.json")


class TestDigests:
    def test_log_digest_is_content_addressed(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for root in (a, b):
            (root / "sub").mkdir(parents=True)
            (root / "x.txt").write_text("hello")
            (root / "sub" / "y.bin").write_bytes(b"\x00\x01")
        assert log_digest(a) == log_digest(b)  # location-independent
        (b / "x.txt").write_text("hellO")
        assert log_digest(a) != log_digest(b)

    def test_log_digest_sees_missing_files(self, tmp_path):
        root = tmp_path / "log"
        root.mkdir()
        (root / "x.txt").write_text("hello")
        (root / "y.txt").write_text("world")
        before = log_digest(root)
        (root / "y.txt").unlink()
        assert log_digest(root) != before

    def test_digest_type_mismatch_rejected(self, tmp_path):
        from repro.instrument.store import file_digest

        (tmp_path / "f").write_text("x")
        with pytest.raises(ValidationError):
            log_digest(tmp_path / "f")
        with pytest.raises(ValidationError):
            file_digest(tmp_path)


class TestFaultInjection:
    def test_truncated_manifest_shard_becomes_skipped(self, fleet, tmp_path):
        _, dirs = corrupted_fleet(fleet, tmp_path)
        manifest = dirs[0] / MANIFEST_NAME
        manifest.write_text(manifest.read_text()[:40])
        merged = merge_shards(dirs)  # never a traceback
        assert merged.result("clean").status == "skipped"
        assert merged.result("tap").status == "skipped"
        assert not merged.result("rot90").healthy
        assert any("manifest" in note for note in merged.notes)
        assert "skipped" in merged.render()

    def test_missing_shard_artifact_yields_incomplete_verdict(self, fleet,
                                                              tmp_path):
        _, dirs = corrupted_fleet(fleet, tmp_path)
        (dirs[1] / REPORT_NAME).unlink()  # the worker "never ran"
        merged = merge_shards(dirs)
        assert merged.result("rot90").status == "skipped"
        # shard-000's variants are all healthy, so the merged verdict is
        # INCOMPLETE, not unhealthy: rot90's health is simply unknown.
        assert "INCOMPLETE (1 skipped)" in merged.render()
        assert any("never ran" in note for note in merged.notes)

    def test_tensor_shard_digest_mismatch_quarantines_shard(self, fleet,
                                                            tmp_path):
        _, dirs = corrupted_fleet(fleet, tmp_path)
        tensors = dirs[0] / "logs" / "clean" / "tensors.bin"
        data = tensors.read_bytes()
        tensors.write_bytes(bytes([data[0] ^ 0xFF]) + data[1:])
        merged = merge_shards(dirs)
        assert merged.result("clean").status == "skipped"
        assert merged.result("tap").status == "skipped"
        assert any("digest" in note for note in merged.notes)
        with pytest.raises(ValidationError, match="digest"):
            merge_shards(dirs, strict=True)

    def test_digest_index_must_cover_report(self, fleet, tmp_path):
        # An "empty but valid" digest index must not exempt the artifact
        # from verification.
        _, dirs = corrupted_fleet(fleet, tmp_path)
        (dirs[0] / "digests.json").write_text("{}")
        merged = merge_shards(dirs)
        assert merged.result("clean").status == "skipped"
        assert any("does not cover" in note for note in merged.notes)
        with pytest.raises(ValidationError, match="does not cover"):
            merge_shards(dirs, strict=True)

    def test_tampered_manifest_quarantined_not_trusted(self, fleet,
                                                       tmp_path):
        # A corrupted-but-parseable manifest must fail its digest check
        # before it can poison the lineup-identity comparison (or become
        # the merge's lineup authority when listed first).
        _, dirs = corrupted_fleet(fleet, tmp_path)
        manifest_path = dirs[0] / MANIFEST_NAME
        doc = ShardManifest.load(manifest_path).to_doc()
        doc["lineup"][0]["name"] = "evil"
        manifest_path.write_text(json.dumps(doc))
        merged = merge_shards(dirs)  # dirs[0] first: must not be trusted
        assert [r.variant.name for r in merged.results] == \
            [v.name for v in LINEUP]
        assert merged.result("clean").status == "skipped"
        with pytest.raises(ValidationError, match="digest"):
            merge_shards(dirs, strict=True)

    def test_digest_index_must_cover_claimed_logs(self, fleet, tmp_path):
        _, dirs = corrupted_fleet(fleet, tmp_path)
        digests_path = dirs[0] / "digests.json"
        digests = json.loads(digests_path.read_text())
        digests.pop("logs/clean")
        digests_path.write_text(json.dumps(digests))
        merged = merge_shards(dirs)
        assert merged.result("clean").status == "skipped"
        assert any("logs/clean" in note for note in merged.notes)

    def test_corrupt_report_json_quarantines_shard(self, fleet, tmp_path):
        _, dirs = corrupted_fleet(fleet, tmp_path)
        report = dirs[0] / REPORT_NAME
        report.write_text(report.read_text()[:100])
        merged = merge_shards(dirs)
        assert merged.result("clean").status == "skipped"
        with pytest.raises(ValidationError):
            merge_shards(dirs, strict=True)

    def test_unverified_merge_skips_digests_not_structure(self, fleet,
                                                          tmp_path):
        # verify=False (the just-wrote-it driver path) ignores digest
        # drift but still catches structural corruption.
        _, dirs = corrupted_fleet(fleet, tmp_path)
        tensors = dirs[0] / "logs" / "clean" / "tensors.bin"
        data = tensors.read_bytes()
        tensors.write_bytes(bytes([data[0] ^ 0xFF]) + data[1:])
        merged = merge_shards(dirs, verify=False)
        assert merged.result("clean").completed  # digest drift not checked
        (dirs[1] / REPORT_NAME).unlink()
        merged = merge_shards(dirs, verify=False)
        assert merged.result("rot90").status == "skipped"

    def test_duplicate_variants_across_shards_named_error(self, fleet,
                                                          tmp_path):
        src, _ = fleet
        a = tmp_path / "a"
        b = tmp_path / "b"
        shutil.copytree(src / "shard-000", a)
        shutil.copytree(src / "shard-000", b)
        with pytest.raises(ValidationError, match="'clean'"):
            merge_shards([a, b])

    def test_stray_variant_not_in_lineup_named_error(self, fleet, tmp_path):
        _, dirs = corrupted_fleet(fleet, tmp_path)
        report_path = dirs[0] / REPORT_NAME
        doc = json.loads(report_path.read_text())
        doc["report"]["results"][0]["variant"]["name"] = "imposter"
        report_path.write_text(json.dumps(doc))
        # Re-stamp the digest so only the stray name is wrong.
        from repro.instrument.store import file_digest
        digests_path = dirs[0] / "digests.json"
        digests = json.loads(digests_path.read_text())
        digests[REPORT_NAME] = file_digest(report_path)
        digests_path.write_text(json.dumps(digests))
        with pytest.raises(ValidationError, match="imposter"):
            merge_shards(dirs)

    @pytest.mark.parametrize("field, value", [
        ("frames", 999),
        ("tag", "nightly"),          # playback derives from (model, frames, tag)
        ("always_assert", True),     # a different notion of "healthy"
        ("model", "micro_mobilenet_v2"),
    ])
    def test_mismatched_sweeps_refuse_to_merge(self, fleet, tmp_path,
                                               field, value):
        from repro.instrument.store import file_digest

        _, dirs = corrupted_fleet(fleet, tmp_path)
        doc = ShardManifest.load(dirs[0] / MANIFEST_NAME).to_doc()
        doc[field] = value
        ShardManifest.from_doc(doc).save(dirs[0] / MANIFEST_NAME)
        # Re-stamp the manifest digest: this simulates an honestly-planned
        # *different* sweep (not tampering), which must hit the identity
        # check, not the digest quarantine.
        digests_path = dirs[0] / "digests.json"
        digests = json.loads(digests_path.read_text())
        digests[MANIFEST_NAME] = file_digest(dirs[0] / MANIFEST_NAME)
        digests_path.write_text(json.dumps(digests))
        with pytest.raises(ValidationError, match="disagree"):
            merge_shards(dirs)

    def test_no_readable_manifest_is_an_error(self, tmp_path):
        empty = tmp_path / "shard-000"
        empty.mkdir()
        with pytest.raises(ValidationError, match="no readable"):
            merge_shards([empty])

    def test_merge_of_partial_fleet_accounts_for_absent_shards(self, fleet):
        _, dirs = fleet
        merged = merge_shards([dirs[0]])  # shard-001 never came back
        assert [r.variant.name for r in merged.results] == \
            [v.name for v in LINEUP]
        assert merged.result("rot90").status == "skipped"
        assert not merged.healthy

    def test_corrupt_reference_refuses_to_run_shard(self, tmp_path):
        ref_root = tmp_path / "reference"
        build_reference_log(MODEL, 4, "sweep", log_root=ref_root)
        manifests = plan_shards(
            MODEL, [SweepVariant("clean")], n_shards=1, frames=4,
            reference="../reference", reference_digest=log_digest(ref_root))
        shard_dir = write_shards(manifests, tmp_path)[0]
        meta = ref_root / "meta.json"
        meta.write_text(meta.read_text() + "\n")
        with pytest.raises(ValidationError, match="digest"):
            run_shard(shard_dir / MANIFEST_NAME, shard_dir, executor="serial")

    def test_missing_reference_rebuilt_deterministically(self, tmp_path,
                                                         baseline):
        # A worker that never received the shared reference rebuilds it
        # from (model, frames, tag) and still produces identical results.
        manifests = plan_shards(MODEL, LINEUP, n_shards=1, frames=FRAMES,
                                reference="../reference",
                                reference_digest="ab" * 32)
        shard_dir = write_shards(manifests, tmp_path)[0]
        report = run_shard(shard_dir / MANIFEST_NAME, shard_dir,
                           executor="serial")
        assert [r.verdict() for r in report.results] == \
            [r.verdict() for r in baseline.results]
        assert (shard_dir / "logs" / "reference" / "meta.json").exists()
