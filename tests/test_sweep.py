"""Deployment-sweep tests: variant parsing, parallel/serial equivalence."""

import numpy as np
import pytest

from repro.util.errors import ValidationError
from repro.validate.sweep import (
    DEFAULT_IMAGE_VARIANTS,
    SweepVariant,
    build_reference_log,
    coerce_override_value,
    parse_variant_spec,
    run_sweep,
    run_variant,
)
from repro.zoo import playback_data

MODEL = "micro_mobilenet_v1"


class TestVariantSpec:
    def test_name_only(self):
        v = parse_variant_spec("clean")
        assert v.name == "clean" and v.overrides == {}
        assert v.stage == "mobile" and v.resolver == "optimized"

    def test_overrides_and_fields(self):
        v = parse_variant_spec(
            "bgr:channel_order=bgr,rotation_k=1,stage=quantized,"
            "resolver=reference,device=pixel3_cpu")
        assert v.overrides == {"channel_order": "bgr", "rotation_k": 1}
        assert v.stage == "quantized" and v.resolver == "reference"
        assert v.device == "pixel3_cpu"

    def test_integer_values_parsed(self):
        assert parse_variant_spec("r:rotation_k=2").overrides["rotation_k"] == 2

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            parse_variant_spec(":channel_order=bgr")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValidationError):
            parse_variant_spec("v:nonsense")

    def test_bad_stage_rejected(self):
        with pytest.raises(ValidationError):
            parse_variant_spec("v:stage=folded").check()

    def test_bad_device_rejected(self):
        with pytest.raises(ValidationError):
            parse_variant_spec("v:device=pixel9").check()

    def test_bad_kernel_bugs_rejected(self):
        with pytest.raises(ValidationError):
            parse_variant_spec("v:kernel_bugs=all-of-them").check()

    def test_bracketed_value_not_split(self):
        v = parse_variant_spec("n:normalization=[0,1]")
        assert v.overrides == {"normalization": "[0,1]"}

    def test_target_size_value_coerced(self):
        v = parse_variant_spec("s:target_size=[16,16]")
        assert v.overrides == {"target_size": [16, 16]}
        assert coerce_override_value("target_size", "16x16") == [16, 16]

    def test_bad_resolver_rejected(self):
        with pytest.raises(ValidationError):
            parse_variant_spec("v:resolver=turbo").check()

    def test_bad_target_size_rejected(self):
        with pytest.raises(ValidationError):
            coerce_override_value("target_size", "huge")

    @pytest.mark.parametrize("spec", ["v:stage=folded", "v:resolver=turbo",
                                      "v:kernel_bugs=all-of-them",
                                      "v:device=pixel9"])
    def test_check_raises_what_preflight_reports(self, spec):
        # One field table: S002's finding is the error check() raises.
        from repro.analysis import lint_graph
        variant = parse_variant_spec(spec)
        with pytest.raises(ValidationError) as err:
            variant.check()
        report = lint_graph(None, variant=variant, categories=("pipeline",))
        assert [(d.rule_id, d.message) for d in report.diagnostics] == \
            [("S002", str(err.value))]


class TestPlaybackData:
    def test_deterministic(self):
        a, la = playback_data(MODEL, 6, "t")
        b, lb = playback_data(MODEL, 6, "t")
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(la, lb)

    def test_detection_labels_dropped(self):
        _, labels = playback_data("ssd_lite", 2, "t")
        assert labels is None


class TestRunVariant:
    def test_clean_variant_healthy(self):
        result = run_variant(MODEL, SweepVariant("clean"), frames=12)
        assert result.healthy and result.num_issues == 0
        assert result.mean_latency_ms > 0
        assert result.peak_memory_mb > 0

    def test_bug_variant_diagnosed(self):
        result = run_variant(
            MODEL, SweepVariant("rot", {"rotation_k": 1}), frames=12)
        assert not result.healthy
        assert any("rotated" in a.diagnosis for a in result.report.issues)

    def test_unknown_override_rejected(self):
        with pytest.raises(ValidationError):
            run_variant(MODEL, SweepVariant("typo", {"chanel_order": "bgr"}),
                        frames=2)

    def test_shared_reference_log_matches_private_run(self):
        ref_log = build_reference_log(MODEL, 8)
        shared = run_variant(MODEL, SweepVariant("clean"), frames=8,
                             ref_log=ref_log)
        private = run_variant(MODEL, SweepVariant("clean"), frames=8)
        assert shared.report.render() == private.report.render()


class TestRunSweep:
    def test_parallel_matches_serial_exactly(self):
        serial = run_sweep(MODEL, DEFAULT_IMAGE_VARIANTS, frames=12,
                           executor="serial")
        parallel = run_sweep(MODEL, DEFAULT_IMAGE_VARIANTS, frames=12,
                             executor="process")
        assert len(parallel.results) == len(DEFAULT_IMAGE_VARIANTS) >= 4
        for ours, theirs in zip(serial.results, parallel.results):
            assert ours.variant == theirs.variant
            assert ours.report.render() == theirs.report.render()
            assert ours.mean_latency_ms == theirs.mean_latency_ms
            assert ours.peak_memory_mb == theirs.peak_memory_mb
        assert serial.render() == parallel.render()

    def test_thread_executor_matches_serial(self):
        variants = [SweepVariant("clean"),
                    SweepVariant("bgr", {"channel_order": "bgr"})]
        serial = run_sweep(MODEL, variants, frames=8, executor="serial")
        threaded = run_sweep(MODEL, variants, frames=8, executor="thread")
        assert serial.render() == threaded.render()

    def test_bug_lineup_flags_rot90_not_clean(self):
        report = run_sweep(MODEL, DEFAULT_IMAGE_VARIANTS, frames=12,
                           executor="process")
        assert report.result("clean").healthy
        assert not report.result("rot90").healthy
        assert not report.healthy

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            run_sweep(MODEL, [SweepVariant("a"), SweepVariant("a")], frames=2)

    def test_empty_variants_rejected(self):
        with pytest.raises(ValidationError):
            run_sweep(MODEL, [], frames=2)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValidationError):
            run_sweep(MODEL, [SweepVariant("a")], frames=2, executor="gpu")

    def test_nonpositive_workers_rejected(self):
        for bad in (0, -1):
            with pytest.raises(ValidationError):
                run_sweep(MODEL, [SweepVariant("a")], frames=2, workers=bad)

    def test_unknown_result_name_rejected(self):
        report = run_sweep(MODEL, [SweepVariant("clean")], frames=4,
                           executor="serial")
        with pytest.raises(ValidationError):
            report.result("nope")

    def test_render_mentions_every_variant(self):
        report = run_sweep(MODEL, DEFAULT_IMAGE_VARIANTS[:2], frames=8,
                           executor="serial")
        text = report.render()
        for variant in DEFAULT_IMAGE_VARIANTS[:2]:
            assert variant.name in text
        assert "sweep verdict" in text
