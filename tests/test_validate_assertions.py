"""Built-in assertion tests: each catches its bug and passes on clean runs."""

import numpy as np
import pytest

from repro.instrument import DirectorySink, EXrayLog, EdgeMLMonitor, store
from repro.util.errors import AssertionFailure, ValidationError
from repro.validate import (
    ChannelArrangementAssertion,
    FunctionAssertion,
    NormalizationRangeAssertion,
    OrientationAssertion,
    QuantizationHealthAssertion,
    ResizeFunctionAssertion,
    SpectrogramNormalizationAssertion,
    StragglerLatencyAssertion,
    ValidationContext,
    default_assertions,
)
from repro.validate.layerdiff import LayerDiff


def log_with_inputs(inputs, outputs=None, sensor=None):
    """Build an in-memory log whose frames carry the given model inputs."""
    monitor = EdgeMLMonitor(name="t")
    for i, x in enumerate(inputs):
        monitor.on_inf_start()
        monitor.log("model_input", np.asarray(x, dtype=np.float32))
        if sensor is not None:
            monitor.log("sensor_frame", np.asarray(sensor[i]))
        monitor.on_inf_stop()
        if outputs is not None:
            monitor.frames[-1].tensors["model_output"] = np.asarray(outputs[i])
    return EXrayLog.from_monitor(monitor)


def ctx_for(edge_inputs, ref_inputs, diffs=(), edge_outputs=None,
            sensor=None):
    edge = log_with_inputs(edge_inputs, edge_outputs, sensor)
    ref = log_with_inputs(ref_inputs)
    return ValidationContext(edge, ref, list(diffs))


@pytest.fixture
def base_inputs(rng):
    return rng.uniform(-1, 1, (4, 8, 8, 3))


class TestChannelAssertion:
    def test_passes_on_match(self, base_inputs):
        result = ChannelArrangementAssertion().run(
            ctx_for(base_inputs, base_inputs))
        assert result.passed

    def test_catches_bgr(self, base_inputs):
        result = ChannelArrangementAssertion().run(
            ctx_for(base_inputs[..., ::-1], base_inputs))
        assert not result.passed and result.diagnosis == "BGR->RGB"

    def test_other_difference_not_misdiagnosed(self, base_inputs, rng):
        noise = base_inputs + rng.normal(0, 0.5, base_inputs.shape)
        result = ChannelArrangementAssertion().run(ctx_for(noise, base_inputs))
        assert result.passed  # differs, but not a channel permutation

    def test_shape_mismatch_fails(self, base_inputs):
        result = ChannelArrangementAssertion().run(
            ctx_for(base_inputs[:, :4], base_inputs))
        assert not result.passed


class TestNormalizationAssertion:
    def test_passes_on_match(self, base_inputs):
        assert NormalizationRangeAssertion().run(
            ctx_for(base_inputs, base_inputs)).passed

    def test_names_scheme_pair(self, rng):
        ref = rng.uniform(-1, 1, (4, 8, 8, 3))          # [-1,1] expected
        edge = (ref + 1.0) / 2.0                         # app produced [0,1]
        result = NormalizationRangeAssertion().run(ctx_for(edge, ref))
        assert not result.passed
        assert "[0,1]" in result.diagnosis and "[-1,1]" in result.diagnosis

    def test_unexplained_difference_passes(self, base_inputs, rng):
        shuffled = rng.permutation(base_inputs.ravel()).reshape(base_inputs.shape)
        result = NormalizationRangeAssertion().run(ctx_for(shuffled, base_inputs))
        assert result.passed  # not an affine rescale: someone else's bug


class TestOrientationAssertion:
    def test_passes_on_match(self, base_inputs):
        assert OrientationAssertion().run(ctx_for(base_inputs, base_inputs)).passed

    def test_catches_rotation(self, rng):
        # Structured images (gradient) so rotations are distinguishable.
        grad = np.linspace(0, 1, 8)[None, :, None, None]
        ref = np.broadcast_to(grad, (4, 8, 8, 3)).transpose(0, 2, 1, 3)
        edge = np.rot90(ref, k=1, axes=(1, 2))
        result = OrientationAssertion().run(ctx_for(edge, ref))
        assert not result.passed and "rotated" in result.diagnosis


class TestResizeAssertion:
    def test_identifies_method(self, rng):
        from repro.pipelines.preprocess import ImagePreprocessConfig
        sensor = rng.integers(0, 255, (2, 80, 80, 3)).astype(np.uint8)
        bad = ImagePreprocessConfig((16, 16), resize_method="bilinear")
        edge_inputs = bad.apply(sensor)
        ref_inputs = ImagePreprocessConfig((16, 16)).apply(sensor)
        ctx = ctx_for(list(edge_inputs), list(ref_inputs), sensor=sensor)
        result = ResizeFunctionAssertion().run(ctx)
        assert not result.passed and "bilinear" in result.diagnosis

    def test_passes_on_correct_method(self, rng):
        from repro.pipelines.preprocess import ImagePreprocessConfig
        sensor = rng.integers(0, 255, (2, 80, 80, 3)).astype(np.uint8)
        inputs = ImagePreprocessConfig((16, 16)).apply(sensor)
        ctx = ctx_for(list(inputs), list(inputs), sensor=sensor)
        assert ResizeFunctionAssertion().run(ctx).passed

    def test_needs_sensor_frame(self, base_inputs):
        with pytest.raises(ValidationError):
            ResizeFunctionAssertion().check(ctx_for(base_inputs, base_inputs))


class TestQuantizationHealthAssertion:
    def diffs(self, errors, op="depthwise_conv2d"):
        return [LayerDiff(i, f"l{i}", op, e) for i, e in enumerate(errors)]

    def test_passes_on_small_drift(self, base_inputs, rng):
        out = rng.normal(size=(4, 10))
        ctx = ctx_for(base_inputs, base_inputs,
                      self.diffs([0.01, 0.02, 0.03]), edge_outputs=out)
        assert QuantizationHealthAssertion().run(ctx).passed

    def test_flags_jump_with_op_name(self, base_inputs, rng):
        out = rng.normal(size=(4, 10))
        ctx = ctx_for(base_inputs, base_inputs,
                      self.diffs([0.01, 0.45, 0.4]), edge_outputs=out)
        result = QuantizationHealthAssertion().run(ctx)
        assert not result.passed and "depthwise_conv2d" in result.diagnosis

    def test_constant_output_reported(self, base_inputs):
        out = np.ones((4, 10))
        ctx = ctx_for(base_inputs, base_inputs, [], edge_outputs=out)
        result = QuantizationHealthAssertion().run(ctx)
        assert not result.passed and "constant" in result.diagnosis

    def test_defers_to_preprocessing(self, base_inputs, rng):
        """Input-level drift means preprocessing, not model ops (§3.4)."""
        out = rng.normal(size=(4, 10))
        edge_inputs = base_inputs + 1.0
        ctx = ctx_for(edge_inputs, base_inputs,
                      self.diffs([0.5, 0.6]), edge_outputs=out)
        result = QuantizationHealthAssertion().run(ctx)
        assert result.passed and "preprocessing" in result.diagnosis


class TestStragglerAssertion:
    def make_log(self, layer_ms):
        monitor = EdgeMLMonitor()
        monitor.on_inf_start()
        frame = monitor.on_inf_stop()
        frame.layer_latency_ms = dict(layer_ms)
        frame.layer_ops = {k: "conv2d" for k in layer_ms}
        return EXrayLog.from_monitor(monitor)

    def test_flags_dominant_layer(self):
        log = self.make_log({f"l{i}": 1.0 for i in range(9)} | {"slow": 100.0})
        ctx = ValidationContext(log, log)
        result = StragglerLatencyAssertion().run(ctx)
        assert not result.passed and "slow" in result.diagnosis

    def test_uniform_profile_passes(self):
        log = self.make_log({f"l{i}": 1.0 for i in range(10)})
        assert StragglerLatencyAssertion().run(
            ValidationContext(log, log)).passed


class TestSpectrogramAssertion:
    def test_catches_convention_mismatch(self, rng):
        from repro.pipelines.preprocess import SPEC_NORMALIZATIONS, spectrogram
        spec = spectrogram(rng.normal(size=(4, 4000)))
        edge = SPEC_NORMALIZATIONS["per_utterance"].apply(spec)[..., None]
        ref = SPEC_NORMALIZATIONS["global_db"].apply(spec)[..., None]
        ctx = ctx_for(list(edge), list(ref))
        result = SpectrogramNormalizationAssertion().run(ctx)
        assert not result.passed and "normalization" in result.diagnosis

    def test_passes_on_match(self, rng):
        from repro.pipelines.preprocess import SPEC_NORMALIZATIONS, spectrogram
        spec = spectrogram(rng.normal(size=(4, 4000)))
        feats = SPEC_NORMALIZATIONS["global_db"].apply(spec)[..., None]
        assert SpectrogramNormalizationAssertion().run(
            ctx_for(list(feats), list(feats))).passed


class TestInputStacks:
    INPUT_ASSERTIONS = (ChannelArrangementAssertion,
                        NormalizationRangeAssertion, OrientationAssertion,
                        QuantizationHealthAssertion,
                        SpectrogramNormalizationAssertion)

    @staticmethod
    def dir_log(inputs, root):
        with EdgeMLMonitor(name="t", sink=DirectorySink(root)) as monitor:
            for x in inputs:
                monitor.on_inf_start()
                monitor.log("model_input", np.asarray(x, dtype=np.float32))
                monitor.on_inf_stop()
        return EXrayLog.load(root)

    def test_each_log_read_once_per_context(self, base_inputs, tmp_path,
                                            monkeypatch):
        edge_inputs = base_inputs + 1.0
        opened = []
        open_tensors = store._open_tensors
        monkeypatch.setattr(store, "_open_tensors",
                            lambda path: opened.append(path)
                            or open_tensors(path))
        ctx = ValidationContext(self.dir_log(edge_inputs, tmp_path / "e"),
                                self.dir_log(base_inputs, tmp_path / "r"))
        docs = [a().run(ctx).to_doc() for a in self.INPUT_ASSERTIONS]
        assert sorted(path.parent.name for path in opened) == ["e", "r"]
        in_memory = ctx_for(edge_inputs, base_inputs)
        assert docs == [a().run(in_memory).to_doc()
                        for a in self.INPUT_ASSERTIONS]

    def test_stacks_are_shared_and_read_only(self, base_inputs):
        ctx = ctx_for(base_inputs, base_inputs)
        edge, ref = ctx.input_stacks()
        assert ctx.input_stacks()[0] is edge
        assert edge.dtype == np.float64 and edge.shape == (4, 8, 8, 3)
        with pytest.raises(ValueError):
            ref[...] = 0


class TestAssertionFramework:
    def test_function_assertion_pass(self, base_inputs):
        def custom(ctx):
            return "all good"

        result = FunctionAssertion(custom).run(ctx_for(base_inputs, base_inputs))
        assert result.passed and result.check == "custom"

    def test_function_assertion_failure_captured(self, base_inputs):
        def failing(ctx):
            raise AssertionFailure("custom", "lane offset too large", {"px": 9})

        result = FunctionAssertion(failing).run(ctx_for(base_inputs, base_inputs))
        assert not result.passed
        assert result.diagnosis == "lane offset too large"
        assert result.details == {"px": 9}

    def test_default_suites_by_task(self):
        for task in ("classification", "detection", "segmentation", "speech",
                     "text"):
            suite = default_assertions(task)
            assert suite, task
        with pytest.raises(ValidationError):
            default_assertions("astrology")

    def test_result_render(self, base_inputs):
        result = ChannelArrangementAssertion().run(
            ctx_for(base_inputs, base_inputs))
        assert "PASS" in result.render()
