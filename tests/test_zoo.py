"""Model-zoo tests: registry completeness, stage equivalence, trained quality.

These use the on-disk training cache; the first run trains the models it
touches (deterministic, seeded).
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.convert import QuantizationConfig, convert_to_mobile, quantize_graph
from repro.metrics import top_1_accuracy
from repro.runtime import Interpreter, OpResolver, ReferenceOpResolver
from repro.util.errors import ReproError
from repro.zoo import (
    IMAGE_CLASSIFIERS,
    build_checkpoint,
    calibration_batches,
    eval_data,
    get_entry,
    get_model,
    get_trained,
    list_models,
    playback_data,
)
from repro.zoo import registry
from repro.zoo.arch import arch_signature


EXPECTED_MODELS = {
    "micro_mobilenet_v1", "micro_mobilenet_v2", "micro_mobilenet_v3",
    "micro_inception", "micro_resnet", "micro_densenet", "effdet_lite",
    "ssd_lite", "frcnn_lite", "deeplab_lite", "speech_cnn_a", "speech_cnn_b",
    "nnlm_lite", "micro_bert",
}


class TestRegistry:
    def test_all_models_registered(self):
        assert set(list_models()) == EXPECTED_MODELS

    def test_unknown_model_helpful_error(self):
        with pytest.raises(ReproError, match="available"):
            get_entry("resnet152")

    def test_entries_carry_pipelines(self):
        for name in list_models():
            entry = get_entry(name)
            assert entry.pipeline["task"] == entry.task
            assert entry.family

    def test_image_lineup_matches_paper_tables(self):
        assert len(IMAGE_CLASSIFIERS) == 6
        families = {get_entry(n).family for n in IMAGE_CLASSIFIERS}
        assert "Mobilenet v2" in families and "Densenet 121" in families

    def test_arch_signature_stable_and_sensitive(self):
        a = arch_signature(get_entry("micro_mobilenet_v2").arch_fn())
        b = arch_signature(get_entry("micro_mobilenet_v2").arch_fn())
        c = arch_signature(get_entry("micro_mobilenet_v1").arch_fn())
        assert a == b and a != c


class TestTrainedQuality:
    def test_mobilenet_v2_accuracy(self):
        _, _, meta = get_trained("micro_mobilenet_v2")
        assert meta["val_accuracy"] > 0.85

    def test_speech_accuracy(self):
        _, _, meta = get_trained("speech_cnn_a")
        assert meta["val_accuracy"] > 0.9

    def test_text_accuracy(self):
        _, _, meta = get_trained("nnlm_lite")
        assert meta["val_accuracy"] > 0.85

    def test_loss_decreases(self):
        _, _, meta = get_trained("micro_mobilenet_v2")
        history = meta["loss_history"]
        assert history[-1] < history[0] / 2

    def test_training_deterministic_via_cache(self):
        a = get_trained("micro_mobilenet_v2")
        b = get_trained("micro_mobilenet_v2")
        np.testing.assert_array_equal(a[0]["stem.w"], b[0]["stem.w"])


class TestStages:
    def test_checkpoint_has_bn_and_activations(self):
        graph = build_checkpoint("micro_mobilenet_v2")
        ops = {n.op for n in graph.nodes}
        assert "batch_norm" in ops and "activation" in ops
        assert graph.metadata["stage"] == "checkpoint"
        assert graph.metadata["pipeline"]["task"] == "classification"

    def test_mobile_folds_everything(self):
        mobile = get_model("micro_mobilenet_v2", "mobile")
        ops = {n.op for n in mobile.nodes}
        assert "batch_norm" not in ops
        assert mobile.num_layers() < build_checkpoint(
            "micro_mobilenet_v2").num_layers()

    def test_v2_second_layer_is_depthwise(self):
        """Figure 6's premise: MobileNet v2's 2nd (mobile) layer is a dwconv."""
        mobile = get_model("micro_mobilenet_v2", "mobile")
        assert mobile.nodes[1].op == "depthwise_conv2d"

    def test_v3_has_avgpool_in_every_se_block(self):
        mobile = get_model("micro_mobilenet_v3", "mobile")
        squeezes = [n for n in mobile.nodes
                    if n.op == "avg_pool2d" and "se" in n.name]
        assert len(squeezes) >= 4  # one full-extent AveragePool per SE block

    def test_mobile_equals_checkpoint(self):
        x, _ = eval_data("micro_mobilenet_v2", 32)
        ckpt = Interpreter(build_checkpoint("micro_mobilenet_v2")).invoke_single(x)
        mobile = Interpreter(get_model("micro_mobilenet_v2", "mobile")).invoke_single(x)
        np.testing.assert_allclose(ckpt, mobile, atol=1e-4)

    def test_quantized_close_to_float(self):
        x, labels = eval_data("micro_mobilenet_v2", 128)
        mobile = get_model("micro_mobilenet_v2", "mobile")
        quant = get_model("micro_mobilenet_v2", "quantized")
        acc_f = top_1_accuracy(Interpreter(mobile).invoke_single(x), labels)
        acc_q = top_1_accuracy(Interpreter(quant).invoke_single(x), labels)
        assert abs(acc_f - acc_q) < 0.06  # Fig 5: +-3% for correct kernels

    def test_quantized_resolvers_bit_identical(self):
        x, _ = eval_data("micro_mobilenet_v1", 32)
        quant = get_model("micro_mobilenet_v1", "quantized")
        a = Interpreter(quant, OpResolver()).invoke_single(x)
        b = Interpreter(quant, ReferenceOpResolver()).invoke_single(x)
        np.testing.assert_array_equal(a, b)

    def test_quant_config_respected(self):
        quant = get_model(
            "micro_mobilenet_v1", "quantized",
            QuantizationConfig(per_channel_weights=False))
        node = next(n for n in quant.nodes if n.op == "conv2d")
        assert not node.weight_quant["weights"].per_channel

    def test_unknown_stage_rejected(self):
        with pytest.raises(ReproError):
            get_model("micro_mobilenet_v1", "tflite")

    def test_effdet_normalization_in_graph(self):
        mobile = get_model("effdet_lite", "mobile")
        assert mobile.nodes[0].op == "image_normalize"

    def test_inception_expects_bgr(self):
        entry = get_entry("micro_inception")
        assert entry.pipeline["image_preprocess"]["channel_order"] == "bgr"

    def test_text_models_run(self):
        ids, labels = eval_data("nnlm_lite", 64)
        graph = get_model("nnlm_lite", "mobile")
        out = Interpreter(graph).invoke_single(ids)
        assert top_1_accuracy(out, labels) > 0.8

    def test_detector_runs_and_detects(self):
        from repro.pipelines.detection import decode_predictions
        from repro.metrics import mean_average_precision
        x, anns = eval_data("ssd_lite", 64)
        graph = get_model("ssd_lite", "mobile")
        head = Interpreter(graph).invoke_single(x)
        decoded = decode_predictions(head, 4, 48)
        gt = [[(a.label, a.box) for a in img] for img in anns]
        assert mean_average_precision(decoded, gt, 4) > 0.3

    def test_segmenter_runs(self):
        from repro.metrics import mean_iou
        x, masks = eval_data("deeplab_lite", 32)
        graph = get_model("deeplab_lite", "mobile")
        logits = Interpreter(graph).invoke_single(x)
        assert mean_iou(logits.argmax(-1), masks, 4) > 0.5


# ------------------------------------------------------------- build memo

# Their graphs hold ops full-integer quantization does not support.
UNQUANTIZABLE = {"nnlm_lite", "micro_bert", "deeplab_lite", "effdet_lite"}
PLAYBACK_MODELS = ("micro_mobilenet_v1", "ssd_lite", "deeplab_lite",
                   "speech_cnn_a", "nnlm_lite")   # one per task family


def canon(obj):
    """Exact, comparable form of a graph or any value it holds: arrays by
    dtype, shape and bytes; dataclasses (nodes, specs, quant params) field
    by field."""
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape, obj.tobytes())
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__, [(f.name, canon(getattr(obj, f.name)))
                                     for f in dataclasses.fields(obj)])
    if isinstance(obj, dict):
        return ("dict", [(k, canon(v)) for k, v in sorted(obj.items())])
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, [canon(v) for v in obj])
    return (type(obj).__name__, obj)


def uncached_build(name, stage):
    graph = build_checkpoint(name)
    if stage != "checkpoint":
        graph = convert_to_mobile(graph)
    if stage == "quantized":
        graph = quantize_graph(graph, calibration_batches(name),
                               QuantizationConfig())
    return graph


def buildable_stages(name):
    stages = ["checkpoint", "mobile", "quantized"]
    return stages[:2] if name in UNQUANTIZABLE else stages


@pytest.fixture
def cold_memo():
    registry._build_stage.cache_clear()
    registry._playback.cache_clear()
    yield
    registry._build_stage.cache_clear()
    registry._playback.cache_clear()


class TestBuildMemo:
    @pytest.mark.parametrize("name", sorted(EXPECTED_MODELS))
    def test_memo_hit_byte_identical_to_uncached_build(self, name):
        stages = buildable_stages(name)
        for stage in stages:
            get_model(name, stage)        # warm every stage first
        for stage in stages:
            hit = get_model(name, stage)
            assert canon(hit) == canon(uncached_build(name, stage)), stage

    @pytest.mark.parametrize("name", PLAYBACK_MODELS)
    def test_playback_hit_byte_identical_to_uncached(self, name):
        playback_data(name, 3, "memo-parity")
        hit = playback_data(name, 3, "memo-parity")
        assert canon(hit) == canon(
            registry._playback.__wrapped__(name, 3, "memo-parity"))

    def test_quant_config_default_shares_one_entry(self, cold_memo):
        get_model("micro_mobilenet_v1", "quantized")
        get_model("micro_mobilenet_v1", "quantized", QuantizationConfig())
        get_model("micro_mobilenet_v1", "mobile", QuantizationConfig())
        # checkpoint, mobile, quantized: the config only keys quantized
        assert registry._build_stage.cache_info().currsize == 3

    def test_pipeline_of_returned_graph_does_not_alias_registry(self):
        name = "micro_mobilenet_v1"
        truth = copy.deepcopy(get_entry(name).pipeline)
        graph = get_model(name, "mobile")
        try:
            graph.metadata["pipeline"]["image_preprocess"][
                "channel_order"] = "bgr"
            assert get_model(name, "mobile").metadata["pipeline"] == truth
            assert get_entry(name).pipeline == truth
        finally:
            get_entry(name).pipeline["image_preprocess"].update(
                truth["image_preprocess"])

    def test_writes_to_returned_graph_do_not_reach_next_call(self):
        name = "micro_mobilenet_v1"
        pristine = canon(get_model(name, "quantized"))
        graph = get_model(name, "quantized")
        conv = next(n for n in graph.nodes if n.op == "conv2d")
        conv.weights["weights"][...] = 0
        conv.attrs["stride"] = 7
        conv.weight_quant["weights"].scale[...] = 1.0
        spec = graph.spec(conv.output)
        spec.dtype = "float32"
        spec.quant.zero_point[...] = 3
        graph.tensors.pop(graph.inputs[0])
        graph.nodes.reverse()
        graph.nodes.pop()
        graph.metadata["quantization"]["activation_dtype"] = "uint8"
        graph.metadata["stage"] = "mobile"
        assert canon(get_model(name, "quantized")) == pristine

    def test_writes_to_returned_playback_do_not_reach_next_call(self):
        raw, labels = playback_data("micro_mobilenet_v1", 3, "memo-iso")
        pristine = canon((raw, labels))
        raw[...] = 0
        labels[...] = -1
        assert canon(playback_data("micro_mobilenet_v1", 3,
                                   "memo-iso")) == pristine

    def test_cold_sweep_builds_each_stage_and_playback_once(
            self, cold_memo, monkeypatch):
        from repro.datasets import SyntheticImageClassification
        from repro.validate.sweep import SweepVariant, run_sweep

        tag = "memo-counts"
        calls = {}

        def count(owner, attr, when=lambda *a, **k: True):
            real = getattr(owner, attr)

            def counted(*args, **kwargs):
                if when(*args, **kwargs):
                    calls[attr] = calls.get(attr, 0) + 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, attr, counted)

        for attr in ("build_checkpoint", "convert_to_mobile",
                     "calibration_batches", "quantize_graph"):
            count(registry, attr)
        count(SyntheticImageClassification, "sample",
              lambda self, n, split="train": split == tag)
        lineup = (
            SweepVariant("clean"),
            SweepVariant("bgr", {"channel_order": "bgr"}),
            SweepVariant("norm01", {"normalization": "[0,1]"}),
            SweepVariant("rot90", {"rotation_k": 1}),
            SweepVariant("q", stage="quantized"),
            SweepVariant("q_ref", stage="quantized", resolver="reference"),
            SweepVariant("q_bug", stage="quantized",
                         kernel_bugs="paper-optimized"),
            SweepVariant("ref", resolver="reference"),
        )
        report = run_sweep("micro_mobilenet_v1", lineup, frames=4,
                           executor="serial", tag=tag)
        assert len(report.results) == 8
        assert calls == {"build_checkpoint": 1, "convert_to_mobile": 1,
                         "calibration_batches": 1, "quantize_graph": 1,
                         "sample": 1}

    def test_retrain_and_cache_dir_switch_rebuild(self, tmp_path,
                                                  monkeypatch):
        from repro.zoo.backends import ParamStore

        name = "nnlm_lite"
        original = canon(get_model(name, "mobile"))
        params, state, _ = get_trained(name)
        shift = {"by": 0.5}

        def fake_train(arch, inputs, targets, **kwargs):
            store = ParamStore(seed=0)
            store.load_arrays({k: v + shift["by"] for k, v in params.items()})
            store.state = state
            return store, [1.0, 0.5]

        monkeypatch.setattr(registry, "train_model", fake_train)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        get_trained(name, force_retrain=True)
        first = canon(get_model(name, "mobile"))
        assert first != original
        assert first == canon(uncached_build(name, "mobile"))

        shift["by"] = 1.5      # retrain into the same cache directory
        get_trained(name, force_retrain=True)
        second = canon(get_model(name, "mobile"))
        assert second not in (first, original)
        assert second == canon(uncached_build(name, "mobile"))

        monkeypatch.undo()
        assert canon(get_model(name, "mobile")) == original

    def test_playback_memo_bounded(self):
        for i in range(registry.PLAYBACK_MEMO_SIZE + 3):
            playback_data("speech_cnn_a", 1, f"memo-bound-{i}")
            info = registry._playback.cache_info()
            assert info.currsize <= registry.PLAYBACK_MEMO_SIZE
        assert info.currsize == registry.PLAYBACK_MEMO_SIZE

    @pytest.mark.parametrize("name", sorted(UNQUANTIZABLE))
    def test_failing_build_raises_same_error_every_call(self, name):
        errors = []
        for _ in range(3):
            with pytest.raises(ReproError) as info:
                get_model(name, "quantized")
            errors.append((type(info.value), str(info.value)))
        assert errors == [errors[0]] * 3
