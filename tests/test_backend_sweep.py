"""Backend fan-out tests: --backends axis, pool registration, triage label.

Covers the sweep-facing half of the multi-backend subsystem:

* ``expand_backends`` / ``parse_backends`` lineup construction, and the
  ``batched`` registry name kept as an alias of the optimized backend;
* runtime resolver registrations crossing into process-pool workers via
  the pool initializer (the registry used to be invisible to spawned
  workers), including the thread fallback for unpicklable factories;
* the triage engine's backend-divergence rule: same preprocessing + same
  bug preset but different backend ⇒ kernel-implementation hypothesis.
"""

import multiprocessing

import pytest

from repro.runtime.resolver import (
    RESOLVERS,
    OpResolver,
    make_resolver,
    register_resolver,
)
from repro.util.errors import ValidationError
from repro.validate.execution import make_pool
from repro.validate.sweep import (
    SweepVariant,
    expand_backends,
    parse_backends,
    run_sweep,
)
from repro.validate.triage import CAUSE_BACKEND, CAUSE_HEALTHY, triage_sweep

MODEL = "micro_mobilenet_v1"


def _resolver_registered(name: str) -> bool:
    """Top-level pool probe: is ``name`` visible in this process' registry?"""
    return name in RESOLVERS


class TestParseBackends:
    def test_comma_separated(self):
        assert parse_backends("optimized,reference,batched") == \
            ["optimized", "reference", "batched"]

    def test_all_selects_registry(self):
        # One name per factory: the "batched" alias of OpResolver is not
        # listed next to "optimized".
        assert parse_backends("all") == ["optimized", "reference"]

    def test_all_runs_each_factory_once(self, monkeypatch):
        class CustomResolver(OpResolver):
            pass

        monkeypatch.setitem(RESOLVERS, "custom", CustomResolver)
        monkeypatch.setitem(RESOLVERS, "custom_alias", CustomResolver)
        monkeypatch.setitem(RESOLVERS, "fast_alias", OpResolver)
        assert parse_backends("all") == ["custom", "optimized", "reference"]
        assert [v.name for v in expand_backends([SweepVariant("clean")],
                                                "all")] == [
            "clean@custom", "clean@optimized", "clean@reference"]
        # An explicit list keeps aliases as given.
        assert parse_backends("optimized,batched") == ["optimized", "batched"]

    def test_auto_rejected(self):
        # Per-device backend selection is gone; "auto" is no registry name.
        with pytest.raises(ValidationError, match="available"):
            parse_backends("auto,optimized")

    def test_unknown_rejected(self):
        with pytest.raises(ValidationError):
            parse_backends("optimized,warp")

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            parse_backends("batched,batched")

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            parse_backends("")


class TestExpandBackends:
    def test_names_and_fields(self):
        lineup = [SweepVariant("clean"),
                  SweepVariant("bgr", {"channel_order": "bgr"},
                               stage="quantized", device="pixel3_cpu")]
        expanded = expand_backends(lineup, ["optimized", "batched"])
        assert [v.name for v in expanded] == [
            "clean@optimized", "clean@batched",
            "bgr@optimized", "bgr@batched"]
        bgr = expanded[3]
        assert bgr.resolver == "batched"
        assert bgr.overrides == {"channel_order": "bgr"}
        assert bgr.stage == "quantized" and bgr.device == "pixel3_cpu"

    def test_expanded_lineup_validates(self):
        for v in expand_backends([SweepVariant("clean")], "all"):
            v.check()


class TestBatchedAlias:
    def test_batched_name_builds_optimized_resolver(self):
        # Lineups and shard manifests that name the old batched backend
        # still resolve: its kernels are the optimized kernels now.
        for bugs in ("none", "paper-optimized"):
            resolver = make_resolver("batched", bugs)
            assert type(resolver) is OpResolver
            assert resolver.bugs == make_resolver("optimized", bugs).bugs

    def test_unknown_kind_lists_available(self):
        with pytest.raises(ValidationError, match="available"):
            make_resolver("turbo9000")


class TestPoolRegistration:
    """Runtime registrations must reach process-pool workers (bugfix)."""

    def test_registration_ships_to_spawned_workers(self):
        # spawn re-imports the registry module in the worker, so without
        # the pool initializer the runtime registration is invisible there.
        register_resolver("custom_opt", OpResolver)
        try:
            pool, _ = make_pool(
                "process", 1, 1,
                mp_context=multiprocessing.get_context("spawn"))
            try:
                assert pool.submit(_resolver_registered, "custom_opt").result(
                    timeout=60)
            finally:
                pool.shutdown()
        finally:
            del RESOLVERS["custom_opt"]

    def test_unpicklable_registration_falls_back_to_threads(self):
        from concurrent.futures import ThreadPoolExecutor
        register_resolver("custom_lambda", lambda bugs: OpResolver(bugs=bugs))
        try:
            with pytest.warns(RuntimeWarning, match="custom_lambda"):
                pool, workers = make_pool("process", 2, 2)
            try:
                assert isinstance(pool, ThreadPoolExecutor)
                assert workers == 2
            finally:
                pool.shutdown()
        finally:
            del RESOLVERS["custom_lambda"]

    def test_custom_resolver_sweeps_under_process_executor(self):
        register_resolver("custom_opt", OpResolver)
        try:
            report = run_sweep(
                MODEL, [SweepVariant("c", resolver="custom_opt")],
                frames=8, executor="process", workers=1)
            assert report.healthy
        finally:
            del RESOLVERS["custom_opt"]


class TestBackendAxis:
    def test_run_sweep_fans_across_backends(self):
        report = run_sweep(
            MODEL, [SweepVariant("clean")], frames=8, executor="serial",
            backends="optimized,reference,batched")
        assert [r.variant.name for r in report.results] == [
            "clean@optimized", "clean@reference", "clean@batched"]
        assert report.healthy
        # Reference kernels are charged their Table-4 on-device slowdown;
        # batched is the optimized backend under its old name.
        by_name = {r.variant.name: r for r in report.results}
        assert by_name["clean@reference"].mean_latency_ms > \
            10 * by_name["clean@optimized"].mean_latency_ms
        assert by_name["clean@batched"].mean_latency_ms == \
            by_name["clean@optimized"].mean_latency_ms

    def test_triage_labels_backend_divergence(self):
        # The dwconv accumulator-overflow preset exists only in the
        # optimized kernels: fanned across backends, the same variant
        # passes on reference and fails on optimized/batched — the
        # kernel-implementation signature.
        report = run_sweep(
            "micro_mobilenet_v2",
            [SweepVariant("dw", stage="quantized",
                          kernel_bugs="paper-optimized")],
            frames=10, executor="thread",
            backends=["optimized", "reference", "batched"])
        triage = triage_sweep(report)
        assert triage.cluster_of("dw@reference").cause == CAUSE_HEALTHY
        broken = triage.cluster_of("dw@optimized")
        assert broken is triage.cluster_of("dw@batched")
        assert broken.cause == CAUSE_BACKEND
        assert "depthwise_conv2d" in broken.label
        assert "fail on optimized" in broken.detail
        assert "kernel-backend" in triage.render()
