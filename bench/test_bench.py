"""Smoke test of the benchmark: one round per workload, no timing asserts."""

from __future__ import annotations

import dataclasses
import json
import subprocess

import pytest

import repro.pipelines.edge as edge
from bench import ROOT, cli, harness, stats
from bench.workloads import WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _git_status() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=60).stdout
    except (OSError, subprocess.SubprocessError):
        return None


@pytest.fixture(scope="module")
def traced():
    """Each workload traced for one round, plus the git status before."""
    before = _git_status()
    results = {}
    for name in WORKLOADS:
        with harness.scratch_dir(name) as tmp:
            results[name] = harness.run_workload(
                name, seed=1, seconds=0, tmp=tmp, trace=True, setup_reps=1)
    return results, before


def _printed_units(result) -> dict:
    return {k: m["unit"] for k, m in
            json.loads(harness.result_line(result))["metrics"].items()}


def test_workloads_match_spec():
    assert list(WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


def test_printed_metrics_match_spec(traced):
    results, _ = traced
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in results.values():
        assert _printed_units(result) == per_layer
        untraced = dataclasses.replace(result, traced=False)
        assert _printed_units(untraced) == end_to_end


def test_outputs_pass_their_oracles(traced):
    results, _ = traced
    for name, result in results.items():
        assert result.attempted >= 1, name
        assert result.correct, (name, result.failed, result.errors)


def test_traced_run_covers_every_layer_metric(traced):
    results, _ = traced
    for name, result in results.items():
        empty = [k for k, m in result.per_layer.items() if m.samples < 1]
        assert not empty, (name, empty)
        assert result.coverage >= 0.9, (name, result.coverage)
        events = result.tracer.chrome_trace()["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        json.dumps(events)


def test_wrong_program_is_counted_as_failed(monkeypatch):
    original = edge.make_preprocess

    def bgr(meta, overrides=None):
        overrides = dict(overrides or {})
        if meta["task"] == "classification":
            overrides["channel_order"] = "bgr"
        return original(meta, overrides)

    monkeypatch.setattr(edge, "make_preprocess", bgr)
    with harness.scratch_dir("edge_stream") as tmp:
        result = harness.run_workload("edge_stream", seed=1, seconds=0,
                                      tmp=tmp, setup_reps=1)
    last = json.loads(harness.result_line(result))
    assert result.report["fail_ratio"].value > 0
    assert result.exit_code != 0
    assert not last["correct"] and last["failed"] > 0


def test_run_leaves_git_status_unchanged(traced):
    _, before = traced
    if before is None:
        pytest.skip("not a git checkout")
    assert _git_status() == before


def test_percentile_refuses_unsupported_tail():
    with pytest.raises(ValueError):
        stats.percentile(range(999), 99)
    with pytest.raises(ValueError):
        stats.percentile(range(99), 10)
    assert stats.percentile(range(1000), 99) == pytest.approx(989.01)
    assert stats.percentile(range(100), 10) == pytest.approx(9.9)
    assert stats.percentile([3.0], 50) == 3.0
    assert stats.tail(range(500)) == ("p90", pytest.approx(449.1))
    assert stats.tail(range(50)) is None


def test_fast_factor_recovers_fast_state_times():
    # Two kinds of step, each 1.5x slower in the host's slow half of the run.
    fast_times = (1.0, 4.0)
    groups = [[t] * 60 + [1.5 * t] * 60 for t in fast_times]
    factor = stats.fast_factor(groups)
    for t, group in zip(fast_times, groups):
        assert factor * stats.percentile(group, 50) == pytest.approx(t)
    # Below 100 steps it takes the lowest percentile with ten beyond it.
    assert stats.fast_factor([[1.0] * 15 + [2.0] * 35]) == pytest.approx(
        1.0 / 2.0)
    assert stats.fast_factor([[1.0, 3.0, 5.0]]) == 1.0   # the median


@pytest.mark.parametrize("change, outcome", [
    ([11.0, 12.0, 11.5, 12.5, 11.8, 12.2, 11.9, 12.1, 11.7, 12.3], "improved"),
    ([9.0, 9.1, 8.9, 9.2, 8.8, 9.0, 9.1, 8.9, 9.0, 9.1], "regressed"),
    ([10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.1], "unchanged"),
])
def test_compare_verdicts(change, outcome):
    parent = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.1]
    assert stats.verdict(parent, change, "higher", 0.05)["outcome"] == outcome


def test_compare_unresolved_when_parent_spread_exceeds_bound():
    parent = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0]
    change = [9.0, 11.0, 8.0, 12.0, 9.5, 10.0, 10.5, 9.0, 11.0, 9.5]
    assert stats.verdict(parent, change, "higher", 0.05)["outcome"] \
        == "unresolved"


def test_compare_refuses_runs_of_different_lengths(tmp_path, capsys):
    def write(path, seconds):
        rec = {"workload": "edge_stream", "seed": 1, "seconds": seconds,
               "trace": 0, "env": {"OPENBLAS_NUM_THREADS": "1"},
               "end_to_end": {m["name"]: {"value": 1.0}
                              for m in SPEC["end_to_end"]}}
        path.write_text(json.dumps(rec) + "\n")
        return str(path)

    same = write(tmp_path / "a.jsonl", 15)
    assert cli.main(["compare", same, write(tmp_path / "b.jsonl", 15)]) == 0
    assert cli.main(["compare", same, write(tmp_path / "c.jsonl", 5)]) == 2
    assert "different lengths" in capsys.readouterr().err
