"""Per-layer diff tests: error functions and discrepancy localization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.validate import (
    ERROR_FUNCTIONS,
    LayerDiff,
    cosine_distance,
    locate_discrepancies,
    max_abs_error,
    mean_abs_error,
    normalized_rmse,
    per_layer_diff,
    rmse,
)
from repro.util.errors import ValidationError


class TestErrorFunctions:
    def test_rmse_zero_for_identical(self, rng):
        x = rng.normal(size=(4, 5))
        assert rmse(x, x) == 0.0

    def test_rmse_known_value(self):
        assert rmse(np.array([1.0, 3.0]), np.array([0.0, 0.0])) == pytest.approx(
            np.sqrt(5))

    def test_rmse_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            rmse(np.zeros(3), np.zeros(4))

    def test_normalized_rmse_scale_free(self, rng):
        """nrMSE is invariant to rescaling both tensors — the property that
        makes it comparable across layers with different output ranges."""
        ref = rng.normal(size=(3, 4))
        edge = ref + rng.normal(0, 0.1, size=(3, 4))
        a = normalized_rmse(edge, ref)
        b = normalized_rmse(edge * 1000, ref * 1000)
        assert a == pytest.approx(b, rel=1e-9)

    def test_normalized_rmse_constant_reference(self):
        ref = np.full(5, 2.0)
        assert normalized_rmse(ref + 1.0, ref) == pytest.approx(1.0)

    def test_max_abs(self):
        assert max_abs_error(np.array([1.0, -5.0]), np.array([0.0, 0.0])) == 5.0

    def test_mean_abs(self):
        assert mean_abs_error(np.array([1.0, 3.0]), np.zeros(2)) == 2.0

    def test_cosine_distance_orthogonal(self):
        assert cosine_distance(np.array([1.0, 0.0]),
                               np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_cosine_distance_parallel(self, rng):
        x = rng.normal(size=10)
        assert cosine_distance(x, 3 * x) == pytest.approx(0.0, abs=1e-9)

    def test_cosine_zero_vectors(self):
        assert cosine_distance(np.zeros(3), np.zeros(3)) == 0.0

    def test_registry_complete(self):
        assert {"nrmse", "rmse", "max_abs", "mean_abs", "cosine"} == set(
            ERROR_FUNCTIONS)

    @given(st.floats(0.01, 10.0), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_nrmse_monotone_in_noise(self, noise, seed):
        rng = np.random.default_rng(seed)
        ref = rng.normal(size=64)
        small = normalized_rmse(ref + rng.normal(0, noise / 10, 64), ref)
        large = normalized_rmse(ref + rng.normal(0, noise, 64) * 10, ref)
        assert large >= small * 0.5  # noise dominates eventually


class TestLocateDiscrepancies:
    def diffs(self, errors):
        return [LayerDiff(i, f"layer{i}", "conv2d", e)
                for i, e in enumerate(errors)]

    def test_flags_jump(self):
        flagged = locate_discrepancies(
            self.diffs([0.01, 0.01, 0.5, 0.5]), threshold=0.1)
        assert [d.index for d in flagged] == [2]

    def test_below_threshold_ignored(self):
        assert locate_discrepancies(self.diffs([0.01, 0.05, 0.08])) == []

    def test_gradual_growth_not_flagged(self):
        # Accumulating quantization drift without a jump is not an op bug.
        flagged = locate_discrepancies(
            self.diffs([0.05, 0.11, 0.15, 0.2]), threshold=0.1, jump_factor=3.0)
        assert flagged == []

    def test_multiple_jumps(self):
        # After layer 1 the running level is 0.3: a later 0.8 (< 3x0.3) is
        # inherited drift, a later 1.2 (> 3x0.3) is a second independent jump.
        flagged = locate_discrepancies(
            self.diffs([0.001, 0.3, 0.002, 0.001, 0.8]), threshold=0.1)
        assert [d.index for d in flagged] == [1]
        flagged = locate_discrepancies(
            self.diffs([0.001, 0.3, 0.002, 0.001, 1.2]), threshold=0.1)
        assert [d.index for d in flagged] == [1, 4]


class TestPerLayerDiff:
    def make_logs(self, small_cnn, rng, perturb_layer=None):
        from repro.instrument import EXrayLog, EdgeMLMonitor
        from repro.runtime import Interpreter

        def capture():
            monitor = EdgeMLMonitor(per_layer=True)
            interp = Interpreter(small_cnn)
            monitor.attach(interp)
            for i in range(2):
                monitor.on_inf_start()
                interp.invoke(x[i:i + 1])
                monitor.on_inf_stop(interp)
            return monitor

        x = rng.normal(size=(2, 8, 8, 3)).astype(np.float32)
        ref = capture()
        edge = capture()
        if perturb_layer:
            for frame in edge.frames:
                frame.tensors[f"layer/{perturb_layer}"] = (
                    frame.tensors[f"layer/{perturb_layer}"] + 5.0)
        return EXrayLog.from_monitor(edge), EXrayLog.from_monitor(ref)

    def test_identical_runs_zero_diff(self, small_cnn, rng):
        edge, ref = self.make_logs(small_cnn, rng)
        diffs = per_layer_diff(edge, ref)
        assert all(d.error == 0.0 for d in diffs)
        assert [d.layer for d in diffs] == [n.name for n in small_cnn.nodes]

    def test_perturbed_layer_detected(self, small_cnn, rng):
        edge, ref = self.make_logs(small_cnn, rng, perturb_layer="dw")
        diffs = per_layer_diff(edge, ref)
        worst = max(diffs, key=lambda d: d.error)
        assert worst.layer == "dw" and worst.op == "depthwise_conv2d"

    def test_unknown_error_fn_rejected(self, small_cnn, rng):
        edge, ref = self.make_logs(small_cnn, rng)
        with pytest.raises(ValidationError):
            per_layer_diff(edge, ref, error_fn="hamming")

    def test_no_layer_logs_rejected(self, small_cnn, rng):
        from repro.instrument import EXrayLog, EdgeMLMonitor
        empty = EXrayLog.from_monitor(EdgeMLMonitor())
        with pytest.raises(ValidationError):
            per_layer_diff(empty, empty)

    def test_degenerate_reference_layer_flagged(self, small_cnn, rng):
        # A constant reference output makes nrMSE fall back to absolute
        # units (span 1.0); the diff must say so instead of silently mixing
        # unit systems.
        edge, ref = self.make_logs(small_cnn, rng)
        target = ref.layer_names()[1]
        for log in (edge, ref):
            for frame in log.frames:
                frame.tensors[f"layer/{target}"] = np.full((2, 2), 3.0)
        diffs = per_layer_diff(edge, ref)
        by_layer = {d.layer: d for d in diffs}
        assert by_layer[target].degenerate_ref
        assert not any(d.degenerate_ref for d in diffs if d.layer != target)

    def test_layer_schedule_stable_across_logs(self, small_cnn, rng):
        edge, ref = self.make_logs(small_cnn, rng)
        assert edge.layer_schedule() == ref.layer_schedule()
        assert all(isinstance(op, str) for _, op in edge.layer_schedule())
        # per_layer_diff threads exactly these keys into its diffs.
        diffs = per_layer_diff(edge, ref)
        assert [(d.layer, d.op) for d in diffs] == list(edge.layer_schedule())
