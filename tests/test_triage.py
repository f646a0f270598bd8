"""Triage-engine tests: fingerprints, distances, clustering, root causes."""

import pytest

from repro.validate.fingerprint import (
    DriftFingerprint,
    cluster_fingerprints,
    fingerprint_distance,
    fingerprint_report,
)
from repro.validate.layerdiff import LayerDiff
from repro.validate.session import ValidationReport
from repro.validate.assertions import AssertionResult
from repro.validate.sweep import SweepVariant, run_sweep
from repro.validate.triage import (
    CAUSE_HEALTHY,
    CAUSE_KERNEL,
    CAUSE_PERFORMANCE,
    CAUSE_PREPROCESSING,
    CAUSE_STAGE,
    PERFORMANCE_CHECKS,
    PREPROCESS_CHECKS,
    root_cause_hypothesis,
    triage_sweep,
)


def cluster_of(triage, variant):
    """The triage cluster holding ``variant``."""
    return next(c for c in triage.clusters if variant in c.variant_names)


def make_fp(name, drift, flagged=(), failed=(), degenerate=(), ops=None):
    schedule = tuple((f"layer{i}", (ops or {}).get(i, "conv2d"))
                     for i in range(len(drift)))
    flagged = tuple(flagged)
    return DriftFingerprint(
        variant=name, schedule=schedule, drift=tuple(drift),
        first_flagged=flagged[0] if flagged else -1, flagged=flagged,
        failed_checks=frozenset(failed), degenerate=frozenset(degenerate))


class TestRootCauseHypothesis:
    def test_healthy_empty(self):
        cause, _ = root_cause_hypothesis(make_fp("v", []))
        assert cause == CAUSE_HEALTHY

    def test_healthy_low_drift(self):
        cause, _ = root_cause_hypothesis(make_fp("v", [0.01, 0.02, 0.01]))
        assert cause == CAUSE_HEALTHY

    def test_input_layer_drift_is_preprocessing(self):
        fp = make_fp("v", [0.4, 0.35, 0.3], flagged=(0,))
        cause, detail = root_cause_hypothesis(fp)
        assert cause == CAUSE_PREPROCESSING
        assert "input-layer drift" in detail

    def test_preprocess_assertion_is_preprocessing(self):
        fp = make_fp("v", [0.05, 0.05], failed=("channel_arrangement",))
        cause, detail = root_cause_hypothesis(fp)
        assert cause == CAUSE_PREPROCESSING
        assert "channel_arrangement" in detail

    def test_internal_jump_is_kernel_and_names_op(self):
        fp = make_fp("v", [0.01, 0.5, 0.45], flagged=(1,),
                     failed=("quantization_health",),
                     ops={1: "depthwise_conv2d"})
        cause, detail = root_cause_hypothesis(fp)
        assert cause == CAUSE_KERNEL
        assert "depthwise_conv2d" in detail

    def test_uniform_drift_is_stage_mismatch(self):
        # A flat profile trips the jump detector at layer 0 (anything beats
        # the near-zero initial running level), so mirror the real pipeline
        # and flag index 0: uniformity must still win over "input drift".
        fp = make_fp("v", [0.3, 0.31, 0.29, 0.3], flagged=(0,))
        cause, detail = root_cause_hypothesis(fp)
        assert cause == CAUSE_STAGE
        assert "uniform" in detail

    def test_degenerate_layers_do_not_sway_hypothesis(self):
        # One constant-reference layer reporting absolute-unit rMSE 5.0
        # must neither break the uniform-drift rule nor unhealth a quiet
        # variant.
        fp = make_fp("v", [0.3, 5.0, 0.31, 0.3], flagged=(0,), degenerate=(1,))
        assert root_cause_hypothesis(fp)[0] == CAUSE_STAGE
        quiet = make_fp("q", [0.02, 5.0, 0.03], degenerate=(1,))
        assert root_cause_hypothesis(quiet)[0] == CAUSE_HEALTHY

    def test_decaying_input_drift_is_not_stage_mismatch(self):
        # An input bug that washes through (decaying profile) must stay
        # classified as preprocessing despite every layer drifting.
        fp = make_fp("v", [0.4, 0.2, 0.1, 0.05], flagged=(0,))
        cause, _ = root_cause_hypothesis(fp)
        assert cause == CAUSE_PREPROCESSING

    def test_budget_only_failure_is_performance(self):
        fp = make_fp("v", [0.01, 0.01], failed=("per_layer_latency",))
        cause, _ = root_cause_hypothesis(fp)
        assert cause == CAUSE_PERFORMANCE

    def test_check_names_are_builtin_assertions(self):
        # A name no built-in assertion carries can never fail, so it can
        # never steer a hypothesis.
        import inspect

        from repro.validate import assertions
        builtin = {cls.name for _, cls in inspect.getmembers(
            assertions, inspect.isclass)
            if issubclass(cls, assertions.DeploymentAssertion)}
        assert PREPROCESS_CHECKS | PERFORMANCE_CHECKS <= builtin

    def test_accuracy_drop_without_drift_is_not_healthy(self):
        # Metric degraded but nothing localized: triage must not file the
        # variant under 'healthy' just because per-layer drift is quiet.
        from dataclasses import replace
        fp = replace(make_fp("v", [0.01, 0.02]), accuracy_degraded=True)
        cause, detail = root_cause_hypothesis(fp)
        assert cause != CAUSE_HEALTHY
        assert "accuracy degraded" in detail


class TestFingerprintDistance:
    def test_identical_is_zero(self):
        a = make_fp("a", [0.1, 0.5, 0.2], flagged=(1,), failed=("x",))
        b = make_fp("b", [0.1, 0.5, 0.2], flagged=(1,), failed=("x",))
        assert fingerprint_distance(a, b) == pytest.approx(0.0)

    def test_scaled_same_profile_stays_close(self):
        a = make_fp("a", [0.01, 0.5, 0.4], flagged=(1,))
        b = make_fp("b", [0.02, 0.9, 0.7], flagged=(1,))
        c = make_fp("c", [0.5, 0.01, 0.01], flagged=(0,))
        assert fingerprint_distance(a, b) < fingerprint_distance(a, c)

    def test_empty_vs_drifting_is_far(self):
        healthy = make_fp("h", [])
        broken = make_fp("b", [0.4, 0.5], flagged=(0,), failed=("x",))
        assert fingerprint_distance(healthy, broken) > 0.5
        assert fingerprint_distance(healthy, make_fp("h2", [])) == 0.0

    def test_empty_with_disjoint_symptoms_do_not_cluster(self):
        # Without layer data, disjoint failure symptoms must still keep
        # variants apart (symptoms stand in for the drift component).
        perf = make_fp("p", [], failed=("per_layer_latency",))
        prep = make_fp("q", [], failed=("channel_arrangement",))
        assert fingerprint_distance(perf, prep) > 0.3
        assert cluster_fingerprints([perf, prep]) != [[perf, prep]]
        assert len(cluster_fingerprints([perf, prep])) == 2

    def test_degenerate_layers_excluded_from_drift(self):
        # Layer 1 is degenerate in `a`: its absolute-unit error must not
        # separate two otherwise-identical fingerprints.
        a = make_fp("a", [0.1, 9.9, 0.2], degenerate=(1,))
        b = make_fp("b", [0.1, 0.0, 0.2], degenerate=(1,))
        assert fingerprint_distance(a, b) == pytest.approx(0.0)


class TestFingerprintReport:
    def test_from_validation_report(self):
        diffs = [LayerDiff(0, "stem", "conv2d", 0.01),
                 LayerDiff(1, "dw1", "depthwise_conv2d", 0.6),
                 LayerDiff(2, "head", "dense", 0.5, degenerate_ref=True)]
        report = ValidationReport(
            accuracy=None, layer_diffs=diffs, flagged_layers=[diffs[1]],
            assertions=[AssertionResult("quantization_health", False, "bad")])
        fp = fingerprint_report("v", report)
        assert fp.schedule == (("stem", "conv2d"),
                               ("dw1", "depthwise_conv2d"),
                               ("head", "dense"))
        assert fp.drift == (0.01, 0.6, 0.5)
        assert fp.first_flagged == 1
        assert fp.first_flagged_op == "depthwise_conv2d"
        assert fp.failed_checks == frozenset({"quantization_health"})
        assert fp.degenerate == frozenset({2})

    def test_healthy_report_yields_empty_fingerprint(self):
        fp = fingerprint_report("v", ValidationReport(accuracy=None))
        assert fp.empty and fp.healthy
        assert fp.first_flagged_op is None

    def test_degraded_accuracy_carries_into_fingerprint(self):
        from repro.validate.accuracy import AccuracyReport
        degraded = AccuracyReport(edge_metric=0.5, ref_metric=0.9,
                                  tolerance=0.02)
        fp = fingerprint_report("v", ValidationReport(accuracy=degraded))
        assert fp.accuracy_degraded and not fp.healthy


class TestClustering:
    def test_same_signature_joins_one_cluster(self):
        fps = [make_fp("a", [0.01, 0.5], flagged=(1,)),
               make_fp("b", [0.01, 0.52], flagged=(1,)),
               make_fp("h", [])]
        clusters = cluster_fingerprints(fps)
        assert [len(c) for c in clusters] == [2, 1]

    def test_deterministic_order(self):
        fps = [make_fp("a", [0.4, 0.4], flagged=(0,)),
               make_fp("b", []),
               make_fp("c", [0.4, 0.41], flagged=(0,))]
        once = cluster_fingerprints(fps)
        twice = cluster_fingerprints(list(fps))
        assert [[m.variant for m in c] for c in once] == \
            [[m.variant for m in c] for c in twice] == [["a", "c"], ["b"]]


class TestTriageSweep:
    """End-to-end: the Figure-6 rule applied across a real fleet sweep."""

    def test_kernel_bug_presets_cluster_together(self):
        variants = [
            SweepVariant("clean"),
            SweepVariant("dwconv_a", stage="quantized",
                         kernel_bugs="paper-optimized"),
            SweepVariant("dwconv_b", stage="quantized",
                         kernel_bugs="paper-optimized", device="pixel3_cpu"),
            SweepVariant("bgr", {"channel_order": "bgr"}),
        ]
        report = run_sweep("micro_mobilenet_v2", variants, frames=12,
                           executor="process")
        triage = triage_sweep(report)
        report.triage = triage

        # Same-preset variants land in the same cluster, and the cluster
        # label names the first drifting op class (the injected root cause).
        a, b = cluster_of(triage, "dwconv_a"), cluster_of(triage, "dwconv_b")
        assert a is b
        assert a.cause == CAUSE_KERNEL
        assert "depthwise_conv2d" in a.label

        # The clean and preprocessing-bug variants triage elsewhere.
        assert cluster_of(triage, "clean").cause == CAUSE_HEALTHY
        assert cluster_of(triage, "bgr").cause == CAUSE_PREPROCESSING
        assert cluster_of(triage, "bgr") is not a

        # The attached cluster table renders inside the sweep report.
        text = report.render()
        assert "root-cause triage" in text
        assert "depthwise_conv2d" in text

    def test_skipped_variants_reported_unfingerprinted(self):
        report = run_sweep(
            "micro_mobilenet_v1",
            [SweepVariant("rot", {"rotation_k": 1}), SweepVariant("clean")],
            frames=12, executor="serial", max_failures=1)
        triage = triage_sweep(report)
        assert triage.unfingerprinted == ["clean"]
        assert not any("clean" in c.variant_names for c in triage.clusters)
        assert "not fingerprinted" in triage.render()
