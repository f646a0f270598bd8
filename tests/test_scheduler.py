"""Streaming-scheduler tests: incremental yields, priorities, cancellation,
and clean-up of the temporary reference and the pool."""

from pathlib import Path

import pytest

import repro.validate.scheduler as scheduler_mod
from repro.util.errors import ValidationError
from repro.validate.scheduler import iter_sweep
from repro.validate.sweep import DEFAULT_IMAGE_VARIANTS, SweepVariant, run_sweep
from repro.validate.variants import (
    expected_failure_score,
    order_by_expected_failure,
)

MODEL = "micro_mobilenet_v1"

FAILING = SweepVariant("rot", {"rotation_k": 1})
CLEAN_A = SweepVariant("clean_a")
CLEAN_B = SweepVariant("clean_b")


class TestPolicy:
    def test_nonpositive_max_failures_rejected(self):
        for bad in (0, -1):
            with pytest.raises(ValidationError):
                list(iter_sweep(MODEL, [CLEAN_A], frames=2, executor="serial",
                                max_failures=bad))

    def test_negative_deadline_rejected(self):
        with pytest.raises(ValidationError):
            list(iter_sweep(MODEL, [CLEAN_A], frames=2, executor="serial",
                            deadline_s=-1.0))


class TestPrioritization:
    def test_expected_failure_ranking(self):
        kernel = SweepVariant("k", stage="quantized", kernel_bugs="paper-optimized")
        override = SweepVariant("o", {"channel_order": "bgr"})
        quant = SweepVariant("q", stage="quantized")
        plain = SweepVariant("p")
        scores = [expected_failure_score(v) for v in (kernel, override, quant, plain)]
        assert scores == sorted(scores) == [0, 1, 2, 3]

    def test_order_is_stable_within_score(self):
        lineup = [SweepVariant("a"), SweepVariant("b"),
                  SweepVariant("x", {"rotation_k": 1}),
                  SweepVariant("y", {"channel_order": "bgr"})]
        ordered = order_by_expected_failure(lineup)
        assert [v.name for v in ordered] == ["x", "y", "a", "b"]

    def test_dispatch_follows_priority_order(self):
        dispatched = []
        results = list(iter_sweep(
            MODEL, [CLEAN_A, FAILING], frames=4, executor="serial",
            on_dispatch=lambda v: dispatched.append(v.name)))
        assert dispatched == ["rot", "clean_a"]
        assert [r.variant.name for r in results] == dispatched


class TestStreaming:
    def test_results_stream_before_later_dispatches(self):
        # The acceptance property: the first VariantResult is in the
        # consumer's hands before the last variant starts executing.
        events = []
        for result in iter_sweep(
                MODEL, DEFAULT_IMAGE_VARIANTS, frames=8, executor="serial",
                on_dispatch=lambda v: events.append(("dispatch", v.name))):
            events.append(("result", result.variant.name))
        first_result = next(i for i, e in enumerate(events) if e[0] == "result")
        last_dispatch = max(i for i, e in enumerate(events) if e[0] == "dispatch")
        assert first_result < last_dispatch
        assert len(events) == 2 * len(DEFAULT_IMAGE_VARIANTS)

    def test_early_close_is_clean(self):
        stream = iter_sweep(MODEL, [CLEAN_A, CLEAN_B], frames=4,
                            executor="serial")
        first = next(stream)
        assert first.completed
        stream.close()  # must not raise


class TestMaxFailures:
    def test_no_dispatch_after_trip(self):
        dispatched = []
        results = list(iter_sweep(
            MODEL, [FAILING, CLEAN_A, CLEAN_B], frames=12, executor="serial",
            max_failures=1,
            on_dispatch=lambda v: dispatched.append(v.name)))
        assert dispatched == ["rot"]  # priority puts the failure first
        assert len(results) == 3

    def test_undispatched_marked_skipped_not_omitted(self):
        report = run_sweep(MODEL, [FAILING, CLEAN_A, CLEAN_B], frames=12,
                           executor="serial", max_failures=1)
        assert len(report.results) == 3  # nothing omitted
        assert report.result("rot").status == "ok"
        for name in ("clean_a", "clean_b"):
            skipped = report.result(name)
            assert skipped.status == "skipped"
            assert skipped.report is None
            assert not skipped.healthy and skipped.num_issues == 0
        assert not report.healthy
        text = report.render()
        assert "SKIPPED" in text and "2 skipped" in text

    def test_thread_pool_stops_dispatching(self):
        dispatched = []
        results = list(iter_sweep(
            MODEL, [FAILING, CLEAN_A, CLEAN_B], frames=12, executor="thread",
            workers=1, max_failures=1,
            on_dispatch=lambda v: dispatched.append(v.name)))
        assert dispatched == ["rot"]
        statuses = {r.variant.name: r.status for r in results}
        assert statuses == {"rot": "ok", "clean_a": "skipped",
                            "clean_b": "skipped"}

    def test_unreached_limit_runs_everything(self):
        report = run_sweep(MODEL, [CLEAN_A, CLEAN_B], frames=4,
                           executor="serial", max_failures=5)
        assert all(r.status == "ok" for r in report.results)
        assert report.healthy


class TestDeadline:
    def test_expired_budget_cancels_everything(self):
        dispatched = []
        results = list(iter_sweep(
            MODEL, [CLEAN_A, CLEAN_B], frames=4, executor="serial",
            deadline_s=0.0,
            on_dispatch=lambda v: dispatched.append(v.name)))
        assert dispatched == []
        assert [r.status for r in results] == ["cancelled", "cancelled"]

    def test_incomplete_sweep_is_not_healthy(self):
        report = run_sweep(MODEL, [CLEAN_A, CLEAN_B], frames=4,
                           executor="serial", deadline_s=0.0)
        assert not report.healthy  # nothing completed: health is unknown
        assert "INCOMPLETE" in report.render()

    def test_midflight_expiry_cancels_stragglers(self, monkeypatch):
        # Exercise the pool-path timeout branch deterministically: a worker
        # far slower than the budget guarantees the deadline expires with a
        # job in flight, so both the straggler and the queued variant must
        # come back cancelled.
        import time

        from repro.validate.reporting import VariantResult
        from repro.validate.session import ValidationReport

        def slow_worker(args):
            time.sleep(1.0)
            return VariantResult(args[1], ValidationReport(accuracy=None),
                                 0.0, 0.0)

        monkeypatch.setattr(scheduler_mod, "_run_variant_args", slow_worker)
        dispatched = []
        results = list(iter_sweep(
            MODEL, [CLEAN_A, CLEAN_B], frames=2, executor="thread",
            workers=1, deadline_s=0.2,
            on_dispatch=lambda v: dispatched.append(v.name)))
        assert dispatched == ["clean_a"]  # one in flight when time ran out
        assert {r.variant.name: r.status for r in results} == \
            {"clean_a": "cancelled", "clean_b": "cancelled"}

    def test_generous_budget_changes_nothing(self):
        baseline = run_sweep(MODEL, [CLEAN_A], frames=4, executor="serial")
        budgeted = run_sweep(MODEL, [CLEAN_A], frames=4, executor="serial",
                             deadline_s=3600.0)
        assert baseline.render() == budgeted.render()


class TestCleanup:
    """The temporary reference directory and the pool never outlive the
    stream, however it ends."""

    @pytest.fixture
    def made(self, monkeypatch):
        made = {"ref_dirs": [], "pools": []}
        real_mkdtemp = scheduler_mod.tempfile.mkdtemp
        real_make_pool = scheduler_mod.make_pool

        def mkdtemp(*args, **kwargs):
            path = real_mkdtemp(*args, **kwargs)
            if Path(path).name.startswith("exray-ref-"):
                made["ref_dirs"].append(Path(path))
            return path

        def make_pool(*args, **kwargs):
            pool, window = real_make_pool(*args, **kwargs)
            made["pools"].append(pool)
            return pool, window

        monkeypatch.setattr(scheduler_mod.tempfile, "mkdtemp", mkdtemp)
        monkeypatch.setattr(scheduler_mod, "make_pool", make_pool)
        return made

    @staticmethod
    def assert_no_pool_running(made, executor):
        if executor == "serial":
            assert made["pools"] == []
            return
        [pool] = made["pools"]
        with pytest.raises(RuntimeError, match="shutdown"):
            pool.submit(int)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_close_after_first_result(self, made, executor):
        stream = iter_sweep(MODEL, [CLEAN_A, CLEAN_B], frames=2,
                            executor=executor, workers=1)
        assert next(stream).completed
        [ref_dir] = made["ref_dirs"]
        assert (ref_dir / "meta.json").exists()  # in use mid-stream
        stream.close()
        assert not ref_dir.exists()
        self.assert_no_pool_running(made, executor)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_worker_exception_propagates(self, made, monkeypatch, executor):
        class WorkerError(RuntimeError):
            pass

        def failing_worker(args):
            raise WorkerError(args[1].name)

        monkeypatch.setattr(scheduler_mod, "_run_variant_args",
                            failing_worker)
        with pytest.raises(WorkerError, match="clean_a"):
            list(iter_sweep(MODEL, [CLEAN_A, CLEAN_B], frames=2,
                            executor=executor, workers=1))
        [ref_dir] = made["ref_dirs"]
        assert not ref_dir.exists()
        self.assert_no_pool_running(made, executor)


class TestRunSweepWrapper:
    def test_report_keeps_lineup_order_despite_priorities(self):
        lineup = [CLEAN_A, FAILING, CLEAN_B]
        report = run_sweep(MODEL, lineup, frames=12, executor="serial")
        assert [r.variant.name for r in report.results] == \
            [v.name for v in lineup]

    def test_streamed_drain_matches_blocking_serial(self):
        blocking = run_sweep(MODEL, DEFAULT_IMAGE_VARIANTS, frames=8,
                             executor="serial")
        drained = sorted(
            iter_sweep(MODEL, DEFAULT_IMAGE_VARIANTS, frames=8,
                       executor="serial"),
            key=lambda r: [v.name for v in DEFAULT_IMAGE_VARIANTS]
            .index(r.variant.name))
        assert [r.variant.name for r in drained] == \
            [r.variant.name for r in blocking.results]
        for ours, theirs in zip(drained, blocking.results):
            assert ours.report.render() == theirs.report.render()
            assert ours.mean_latency_ms == theirs.mean_latency_ms
