"""Model-zoo tests: registry completeness, stage equivalence, trained quality.

These use the on-disk training cache; the first run trains the models it
touches (deterministic, seeded).
"""

import copy
import dataclasses
import subprocess
from pathlib import Path

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
from repro.zoo.cache import CACHE_VERSION


@pytest.fixture(scope="module")
def committed_weights():
    """File names git tracks under the repo's ``.cache/zoo`` (the files
    present there when git lists none, outside a checkout). Untracked
    files a retrain left behind do not count."""
    root = Path(__file__).resolve().parents[1]
    try:
        listing = subprocess.run(
            ["git", "ls-files", "--", ".cache/zoo"], cwd=root,
            capture_output=True, text=True, timeout=60).stdout
    except OSError:
        listing = ""
    if listing:
        return {Path(line).name for line in listing.splitlines()}
    return {path.name for path in (root / ".cache" / "zoo").iterdir()}


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

    @pytest.mark.parametrize("edit", [
        {"train_cfg": {"lr": 1e-3}},
        {"train_cfg": {"epochs": 5}},
        {"pipeline": {"image_preprocess": {"channel_order": "bgr"}}},
        {"pipeline": {"dataset": {"seed": 7}}},
    ], ids=["train_cfg-lr", "train_cfg-epochs", "pipeline-recipe",
            "pipeline-dataset"])
    def test_cache_key_covers_training_recipe(self, edit):
        """Editing what trains the weights retrains: the key changes."""
        entry = get_entry("micro_mobilenet_v1")

        def merged(base, patch):
            out = copy.deepcopy(base)
            for key, value in patch.items():
                out[key] = (merged(out[key], value)
                            if isinstance(value, dict) else value)
            return out

        fields = {field: merged(getattr(entry, field), patch)
                  for field, patch in edit.items()}
        edited = dataclasses.replace(entry, **fields)
        assert registry._cache_key(edited) != registry._cache_key(entry)
        assert registry._cache_key(dataclasses.replace(entry)) == \
            registry._cache_key(entry)

    @pytest.mark.parametrize("name", sorted(EXPECTED_MODELS))
    def test_cache_key_names_a_committed_weights_file(self, name,
                                                      committed_weights):
        """A key change must come with the renamed committed weights, or a
        fresh checkout retrains (and leaves untracked cache files)."""
        key = registry._cache_key(get_entry(name))
        for suffix in ("npz", "json"):
            file = f"{key}_v{CACHE_VERSION}.{suffix}"
            assert file in committed_weights, f"{name}: no committed {file}"


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
        """Every layer of every int8 zoo model, batch 1 and 32: the
        optimized kernels (float32 accumulation where exact) equal the
        reference kernels byte for byte."""
        for name in sorted(EXPECTED_MODELS - UNQUANTIZABLE):
            x, _ = eval_data(name, 32)
            quant = get_model(name, "quantized")
            layers = {}
            for resolver in (OpResolver(), ReferenceOpResolver()):
                interp = Interpreter(quant, resolver)
                seen = layers.setdefault(resolver.kind, {})
                interp.add_observer(lambda rec, seen=seen: seen.setdefault(
                    rec.node.name, []).append(rec.output))
                for batch in (1, 32):
                    interp.invoke(np.ascontiguousarray(x[:batch]))
            assert layers["optimized"].keys() == layers["reference"].keys()
            for layer, outs in layers["optimized"].items():
                for a, b in zip(outs, layers["reference"][layer],
                                strict=True):
                    np.testing.assert_array_equal(
                        a, b, err_msg=f"{name}/{layer}")

    def test_quant_config_respected(self):
        name = "micro_mobilenet_v1"
        quant = quantize_graph(get_model(name, "mobile"),
                               calibration_batches(name),
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
    by field. Lists and tuples, and dicts and read-only mappings, compare
    alike, so a frozen graph equals its editable build."""
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape, obj.tobytes())
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__, [(f.name, canon(getattr(obj, f.name)))
                                     for f in dataclasses.fields(obj)])
    if isinstance(obj, dict):
        return ("dict", [(k, canon(v)) for k, v in sorted(obj.items())])
    if isinstance(obj, (list, tuple)):
        return ("sequence", [canon(v) for v in obj])
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


def graph_writes(graph):
    """One closure per kind of write a caller could make to a quantized
    zoo graph: into parameter and quantization arrays, node attrs, the
    tensor map, the node sequence and nested metadata, and reassigning a
    node or graph field or growing a node's inputs."""
    conv = next(n for n in graph.nodes if n.op == "conv2d")
    quant = graph.spec(conv.output).quant

    def fill(array, value):
        array[...] = value

    return [
        lambda: fill(conv.weights["weights"], 0),
        lambda: conv.attrs.__setitem__("stride", 7),
        lambda: fill(conv.weight_quant["weights"].scale, 1.0),
        lambda: fill(quant.zero_point, 3),
        lambda: graph.tensors.pop(graph.inputs[0]),
        lambda: graph.nodes.reverse(),
        lambda: graph.nodes.pop(),
        lambda: graph.metadata["quantization"].__setitem__(
            "activation_dtype", "uint8"),
        lambda: graph.metadata.__setitem__("stage", "mobile"),
        lambda: setattr(conv, "weights", {}),
        lambda: setattr(conv, "attrs", {}),
        lambda: conv.inputs.append(graph.inputs[0]),
        lambda: setattr(graph, "metadata", {}),
        lambda: setattr(graph, "name", "edited"),
    ]


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
        get_model("micro_mobilenet_v1", "quantized")
        get_model("micro_mobilenet_v1", "mobile")
        # checkpoint, mobile, quantized: one entry per stage
        assert registry._build_stage.cache_info().currsize == 3

    def test_pipeline_of_returned_graph_does_not_alias_registry(self):
        name = "micro_mobilenet_v1"
        truth = copy.deepcopy(get_entry(name).pipeline)
        graph = get_model(name, "mobile")
        with pytest.raises(TypeError, match="read-only"):
            graph.metadata["pipeline"]["image_preprocess"][
                "channel_order"] = "bgr"
        assert get_model(name, "mobile").metadata["pipeline"] == truth
        assert get_entry(name).pipeline == truth
        assert graph.metadata["pipeline"]["image_preprocess"] \
            is not get_entry(name).pipeline["image_preprocess"]

    def test_writes_to_returned_graph_do_not_reach_next_call(self):
        name = "micro_mobilenet_v1"
        graph = get_model(name, "quantized")
        conv = next(n for n in graph.nodes if n.op == "conv2d")
        with pytest.raises(dataclasses.FrozenInstanceError):
            graph.spec(conv.output).dtype = "float32"
        for write in graph_writes(graph):
            with pytest.raises((TypeError, ValueError, AttributeError)):
                write()
        assert all(isinstance(n.inputs, tuple) and isinstance(n.outputs, tuple)
                   for n in graph.nodes)
        assert canon(graph) == canon(uncached_build(name, "quantized"))

    @pytest.mark.parametrize("name", sorted(EXPECTED_MODELS))
    def test_frozen_graph_counts_param_bytes_once(self, name, monkeypatch):
        """Monitors read ``weights_bytes`` on every window; a frozen graph
        answers from the total ``freeze`` counted, never walking its nodes
        again, and the total equals an editable copy's."""
        from repro.graph.node import Node

        for stage in buildable_stages(name):
            graph = get_model(name, stage)
            want = copy.deepcopy(graph).param_bytes()
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr(Node, "param_bytes",
                              lambda node: calls.append(node) or 0)
                assert graph.param_bytes() == want > 0
                assert Interpreter(graph).weights_bytes() == want
            assert calls == [], stage

    def test_every_call_hands_out_the_same_graph(self):
        for stage in ("checkpoint", "mobile", "quantized"):
            assert get_model("micro_mobilenet_v1", stage) \
                is get_model("micro_mobilenet_v1", stage)

    def test_deepcopy_of_returned_graph_is_editable_and_independent(self):
        name = "micro_mobilenet_v1"
        graph = get_model(name, "quantized")
        pristine = canon(graph)
        mine = copy.deepcopy(graph)
        for write in graph_writes(mine):
            write()
        assert canon(mine) != pristine
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

    def test_warm_sweep_loads_no_weights(self, monkeypatch):
        from repro.validate.sweep import SweepVariant, run_sweep

        lineup = (SweepVariant("clean"),
                  SweepVariant("q", stage="quantized"))
        run_sweep("micro_mobilenet_v1", lineup, frames=4,
                  executor="serial", tag="warm-loads")
        loads = []
        load_trained = registry.load_trained
        monkeypatch.setattr(registry, "load_trained",
                            lambda key: loads.append(key)
                            or load_trained(key))
        run_sweep("micro_mobilenet_v1", lineup, frames=4,
                  executor="serial", tag="warm-loads")
        assert loads == []

    def test_ensure_trained_trains_only_an_uncached_model(self, tmp_path,
                                                         monkeypatch):
        trained = []
        monkeypatch.setattr(registry, "get_trained", trained.append)
        registry.ensure_trained("nnlm_lite")
        assert trained == []
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        registry.ensure_trained("nnlm_lite")
        assert trained == ["nnlm_lite"]

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


# ------------------------------------------------------- batch invariance

def layer_outputs(interp, x):
    """Every layer's output of one invoke, by node name (copies)."""
    outputs = {}
    interp.add_observer(
        lambda rec: outputs.__setitem__(rec.node.name, np.array(rec.output)))
    interp.invoke(x)
    return outputs


class TestBatchInvariance:
    """Row i of a batched invoke equals a batch-1 invoke on sample i, byte
    for byte, on every layer: what lets an offline replay run many frames
    per invoke and still log what a frame-at-a-time run logs."""

    BATCH = 3

    @pytest.mark.parametrize("name", sorted(EXPECTED_MODELS))
    def test_rows_equal_batch_one(self, name):
        from repro.pipelines import make_preprocess

        raw = playback_data(name, self.BATCH, "batch-invariance")[0]
        for stage in buildable_stages(name):
            graph = get_model(name, stage)
            x = np.asarray(make_preprocess(graph.metadata["pipeline"])(raw))
            resolvers = [OpResolver]
            if stage == "quantized":
                resolvers.append(ReferenceOpResolver)
            for resolver in resolvers:
                batched = layer_outputs(Interpreter(graph, resolver()), x)
                for i in range(self.BATCH):
                    single = layer_outputs(Interpreter(graph, resolver()),
                                           x[i:i + 1])
                    assert list(single) == list(batched)
                    for layer, out in single.items():
                        row = batched[layer][i:i + 1]
                        assert (row.dtype, row.shape) == (out.dtype, out.shape)
                        assert row.tobytes() == out.tobytes(), (
                            stage, resolver.__name__, layer, i)


class TestTrainingForwardParity:
    """A deployed float model computes what training computed: the mobile
    graph's interpreter outputs lie within 1e-4 of the training framework's
    forward pass (``repro.zoo.train.predict``) on playback inputs."""

    @pytest.mark.parametrize("name", ["micro_mobilenet_v1", "speech_cnn_a",
                                      "micro_bert"])
    def test_mobile_matches_training_forward(self, name):
        from repro.pipelines import make_preprocess
        from repro.zoo.backends import ParamStore
        from repro.zoo.train import predict

        graph = get_model(name, "mobile")
        raw = playback_data(name, 32)[0]
        x = np.asarray(make_preprocess(graph.metadata["pipeline"])(raw))
        params, state, _ = get_trained(name)
        store = ParamStore(registry.SEED)
        store.load_arrays(params)
        store.state = state
        for batch in (1, 32):
            want = predict(get_entry(name).arch_fn(), store, x[:batch])
            got = Interpreter(graph).invoke_single(x[:batch])
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-4)


IMAGE_BUG_OVERRIDES = ({"channel_order": "bgr"}, {"normalization": "[0,1]"},
                       {"rotation_k": 1}, {"resize_method": "bilinear"},
                       {"resize_method": "nearest"})
PREPROCESS_CASES = (
    [(name, {}) for name in sorted(EXPECTED_MODELS)]
    + [(name, overrides) for name in ("micro_mobilenet_v1", "ssd_lite")
       for overrides in IMAGE_BUG_OVERRIDES]
    + [("speech_cnn_a", {"spectrogram_normalization": "per_utterance"})])


class TestPreprocessBatchInvariance:
    """Row i of a batch preprocessed in one call equals that frame
    preprocessed alone, byte for byte, for every zoo recipe and the §2 bug
    overrides: what lets replay preprocess a chunk of frames per call."""

    BATCH = 33

    @pytest.mark.parametrize(
        "name,overrides", PREPROCESS_CASES,
        ids=[name + "".join(f"-{k}={v}" for k, v in overrides.items())
             for name, overrides in PREPROCESS_CASES])
    def test_rows_equal_batch_one(self, name, overrides):
        from repro.pipelines import make_preprocess

        raw = playback_data(name, self.BATCH, "batch-invariance")[0]
        preprocess = make_preprocess(get_entry(name).pipeline, overrides)
        batched = np.asarray(preprocess(raw))
        assert len(batched) == self.BATCH
        for i in range(self.BATCH):
            single = np.asarray(preprocess(raw[i:i + 1]))
            row = batched[i:i + 1]
            assert (row.dtype, row.shape) == (single.dtype, single.shape)
            assert row.tobytes() == single.tobytes(), i
