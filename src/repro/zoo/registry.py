"""The model zoo registry: train-on-demand, cache, and export at any stage.

``get_model(name, stage)`` is the main entry point; stages mirror the
deployment progression of Figure 5:

* ``"checkpoint"`` — the training-framework graph (explicit BN, standalone
  activations), the *Reference* baseline;
* ``"mobile"`` — converted float model (folded/fused), the *Mobile* bar;
* ``"quantized"`` — post-training full-integer model, the *Mobile Quant* /
  *Mobile Quant Ref* bars depending on the resolver it is run with.

Every exported graph carries its correct input pipeline in
``graph.metadata["pipeline"]`` — the ground truth that reference pipelines
replay and that deployment assertions check against.

Model stages and playback frames are deterministic, so each is built once
per process. Every call hands out the same frozen stage graph
(:meth:`~repro.graph.graph.Graph.freeze`) and its own copy of playback
frames.
"""

from __future__ import annotations

import copy
import functools
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.convert import convert_to_mobile, quantize_graph
from repro.datasets import (
    SyntheticDetection,
    SyntheticImageClassification,
    SyntheticSegmentation,
    SyntheticSentiment,
    SyntheticSpeechCommands,
)
from repro.graph.graph import Graph, GraphBuilder
from repro.pipelines.detection import GRID, encode_targets
from repro.pipelines.preprocess import (
    SPEC_NORMALIZATIONS,
    ImagePreprocessConfig,
    flip_horizontal,
    spectrogram,
)
from repro.util.errors import ReproError
from repro.util.rng import derive_rng, stable_hash
from repro.zoo import models as M
from repro.zoo.arch import Layer, arch_signature, run_arch
from repro.zoo.backends import ExportBackend, ParamStore
from repro.zoo.cache import cache_dir, is_cached, load_trained, save_trained
from repro.zoo.train import (
    classification_accuracy,
    classification_loss,
    make_detection_loss,
    train_model,
)

SEED = 2022


@dataclass(frozen=True)
class ZooEntry:
    """Everything needed to train, evaluate, and export one zoo model."""

    name: str
    family: str                     # paper-model counterpart
    task: str
    arch_fn: Callable[[], list[Layer]]
    input_shape: tuple
    input_dtype: str
    pipeline: dict                  # correct preprocessing recipe + dataset card
    train_cfg: dict = field(default_factory=dict)


# --------------------------------------------------------- data preparation

def image_dataset() -> SyntheticImageClassification:
    return SyntheticImageClassification(M.IMAGE_CLASSES, seed=SEED)


def detection_dataset() -> SyntheticDetection:
    # Sensor resolution equals the model input so box annotations share the
    # model's coordinate frame (the preprocess resize is then an identity
    # spatially, while channel/normalization bugs still apply).
    return SyntheticDetection(M.DETECTION_SIZE, seed=SEED)


def segmentation_dataset() -> SyntheticSegmentation:
    return SyntheticSegmentation(M.SEGMENTATION_SIZE, seed=SEED)


def speech_dataset() -> SyntheticSpeechCommands:
    return SyntheticSpeechCommands(seed=SEED)


def text_dataset() -> SyntheticSentiment:
    return SyntheticSentiment(seed=SEED)


def preprocess_images(sensor: np.ndarray, pipeline: dict) -> np.ndarray:
    """Apply a model's correct image preprocessing recipe."""
    return ImagePreprocessConfig.from_json(pipeline["image_preprocess"]).apply(sensor)


def speech_features(waves: np.ndarray, pipeline: dict) -> np.ndarray:
    """Waveforms -> normalized spectrogram tensors (N, frames, bins, 1)."""
    spec = spectrogram(waves, **pipeline["spectrogram"])
    norm = SPEC_NORMALIZATIONS[pipeline["spectrogram_normalization"]]
    return norm.apply(spec)[..., None].astype(np.float32)


def _image_training_data(entry: ZooEntry, n_train: int):
    ds = image_dataset()
    sensor, labels = ds.sample(n_train, "train")
    x = preprocess_images(sensor, entry.pipeline)
    # Augmentation, as the paper notes real training pipelines use (flips,
    # photometric jitter) — yet 90-degree rotations remain out-of-sample.
    rng = derive_rng(SEED, "augment", entry.name)
    contrast = rng.uniform(0.7, 1.3, size=(len(x), 1, 1, 1)).astype(np.float32)
    brightness = rng.uniform(-0.25, 0.25, size=(len(x), 1, 1, 1)).astype(np.float32)
    jittered = x * contrast + brightness
    x = np.concatenate([x, flip_horizontal(jittered)], axis=0)
    labels = np.concatenate([labels, labels], axis=0)
    return x.astype(np.float32), labels


def training_data(entry: ZooEntry):
    """Model-ready (inputs, targets) for an entry's training split."""
    cfg = entry.train_cfg
    n_train = cfg.get("n_train", 3000)
    if entry.task == "classification":
        return _image_training_data(entry, n_train)
    if entry.task == "detection":
        ds = detection_dataset()
        sensor, anns = ds.sample(n_train, "train")
        x = preprocess_images(sensor, entry.pipeline)
        targets = encode_targets(anns, GRID, M.DETECTION_SIZE, num_classes=4)
        return x.astype(np.float32), targets
    if entry.task == "segmentation":
        ds = segmentation_dataset()
        sensor, masks = ds.sample(n_train, "train")
        x = preprocess_images(sensor, entry.pipeline)
        return x.astype(np.float32), masks
    if entry.task == "speech":
        ds = speech_dataset()
        waves, labels = ds.sample(n_train, "train")
        return speech_features(waves, entry.pipeline), labels
    if entry.task == "text":
        ds = text_dataset()
        ids, labels = ds.sample(n_train, "train")
        return ids, labels
    raise ReproError(f"unknown task {entry.task!r}")


PLAYBACK_MEMO_SIZE = 1
"""Playback recordings kept per process. A sweep's variants and reference
all replay one recording; older ones would pin frames callers already copied."""


def playback_data(name: str, n: int, split: str = "playback"):
    """Deterministic raw (sensor frames, labels) for edge-app playback.

    Unlike :func:`eval_data` this returns *unpreprocessed* sensor data — the
    bytes an edge app's (possibly buggy) preprocess consumes. Labels are
    dropped for detection/segmentation, where scalar labels don't apply
    (assertions still run); text returns pre-encoded ids via eval_data.

    The latest :data:`PLAYBACK_MEMO_SIZE` recordings are kept per process;
    every call returns fresh copies of their arrays.
    """
    raw, labels = _playback(name, n, split)
    return raw.copy(), None if labels is None else labels.copy()


@functools.lru_cache(maxsize=PLAYBACK_MEMO_SIZE)
def _playback(name: str, n: int, split: str):
    entry = get_entry(name)
    if entry.task == "text":
        return eval_data(name, n, split)
    raw, labels = {
        "classification": image_dataset,
        "detection": detection_dataset,
        "segmentation": segmentation_dataset,
        "speech": speech_dataset,
    }[entry.task]().sample(n, split)
    if entry.task in ("detection", "segmentation"):
        labels = None
    return raw, labels


def eval_data(name: str, n: int = 500, split: str = "test"):
    """Model-ready (inputs, targets) for evaluation with the *correct* pipeline."""
    entry = get_entry(name)
    if entry.task == "classification":
        sensor, labels = image_dataset().sample(n, split)
        return preprocess_images(sensor, entry.pipeline), labels
    if entry.task == "detection":
        sensor, anns = detection_dataset().sample(n, split)
        return preprocess_images(sensor, entry.pipeline), anns
    if entry.task == "segmentation":
        sensor, masks = segmentation_dataset().sample(n, split)
        return preprocess_images(sensor, entry.pipeline), masks
    if entry.task == "speech":
        waves, labels = speech_dataset().sample(n, split)
        return speech_features(waves, entry.pipeline), labels
    if entry.task == "text":
        return text_dataset().sample(n, split)
    raise ReproError(f"unknown task {entry.task!r}")


# ------------------------------------------------------------------ registry

def _image_pipeline(channel_order: str = "rgb",
                    normalization: str = "[-1,1]") -> dict:
    return {
        "task": "classification",
        "dataset": image_dataset().describe(),
        "image_preprocess": ImagePreprocessConfig(
            (M.IMAGE_SIZE, M.IMAGE_SIZE), "area", channel_order,
            normalization).to_json(),
    }


_SPECTROGRAM = {"frame_len": 256, "hop": 125, "num_bins": 64}
_SPEC_FRAMES = 30

_REGISTRY: dict[str, ZooEntry] = {}


def _register(entry: ZooEntry) -> None:
    _REGISTRY[entry.name] = entry


def _populate() -> None:
    img_shape = (None, M.IMAGE_SIZE, M.IMAGE_SIZE, 3)
    img_train = {"epochs": 4, "n_train": 3000, "lr": 3e-3, "batch": 96}
    _register(ZooEntry(
        "micro_mobilenet_v1", "Mobilenet v1", "classification",
        M.micro_mobilenet_v1, img_shape, "float32", _image_pipeline(),
        img_train))
    _register(ZooEntry(
        "micro_mobilenet_v2", "Mobilenet v2", "classification",
        M.micro_mobilenet_v2, img_shape, "float32", _image_pipeline(),
        img_train))
    _register(ZooEntry(
        "micro_mobilenet_v3", "Mobilenet v3", "classification",
        M.micro_mobilenet_v3, img_shape, "float32", _image_pipeline(),
        img_train))
    _register(ZooEntry(
        "micro_inception", "Inception v3", "classification",
        M.micro_inception, img_shape, "float32",
        _image_pipeline(channel_order="bgr"),  # Inception expects BGR (§3.2)
        img_train))
    _register(ZooEntry(
        "micro_resnet", "Resnet50 v2", "classification",
        M.micro_resnet, img_shape, "float32", _image_pipeline(), img_train))
    _register(ZooEntry(
        "micro_densenet", "Densenet 121", "classification",
        M.micro_densenet, img_shape, "float32",
        _image_pipeline(normalization="[0,1]"),  # DenseNet takes [0,1] (§1)
        img_train))
    _register(ZooEntry(
        "effdet_lite", "EfficientDet", "classification",
        M.effdet_lite, img_shape, "float32",
        _image_pipeline(normalization="[0,1]"),  # normalization is IN-GRAPH
        img_train))

    det_shape = (None, M.DETECTION_SIZE, M.DETECTION_SIZE, 3)
    det_pipeline = {
        "task": "detection",
        "dataset": {"kind": "detection", "num_classes": 4, "seed": SEED},
        "image_preprocess": ImagePreprocessConfig(
            (M.DETECTION_SIZE, M.DETECTION_SIZE), "area", "rgb", "[-1,1]").to_json(),
    }
    det_train = {"epochs": 8, "n_train": 2500, "lr": 3e-3, "batch": 64,
                 "loss": "detection", "num_classes": 4}
    _register(ZooEntry("ssd_lite", "SSD", "detection", M.ssd_lite,
                       det_shape, "float32", det_pipeline, det_train))
    _register(ZooEntry("frcnn_lite", "FasterRCNN", "detection", M.frcnn_lite,
                       det_shape, "float32", det_pipeline, det_train))

    seg_shape = (None, M.SEGMENTATION_SIZE, M.SEGMENTATION_SIZE, 3)
    seg_pipeline = {
        "task": "segmentation",
        "dataset": {"kind": "segmentation", "num_classes": 4, "seed": SEED},
        "image_preprocess": ImagePreprocessConfig(
            (M.SEGMENTATION_SIZE, M.SEGMENTATION_SIZE), "area", "rgb",
            "[-1,1]").to_json(),
    }
    _register(ZooEntry("deeplab_lite", "Deeplab v3", "segmentation",
                       M.deeplab_lite, seg_shape, "float32", seg_pipeline,
                       {"epochs": 7, "n_train": 2000, "lr": 3e-3, "batch": 48}))

    speech_shape = (None, _SPEC_FRAMES, _SPECTROGRAM["num_bins"], 1)
    for model_name, arch_fn, norm in (
        ("speech_cnn_a", M.speech_cnn_a, "global_db"),
        ("speech_cnn_b", M.speech_cnn_b, "per_utterance"),
    ):
        _register(ZooEntry(
            model_name, "Speech command CNN", "speech", arch_fn,
            speech_shape, "float32",
            {"task": "speech", "spectrogram": dict(_SPECTROGRAM),
             "spectrogram_normalization": norm,
             "dataset": {"kind": "speech", "num_classes": 8, "seed": SEED}},
            {"epochs": 4, "n_train": 2500, "lr": 3e-3, "batch": 64}))

    vocab = text_dataset().vocab_size
    text_pipeline = {
        "task": "text", "lowercase": False,
        "dataset": {"kind": "sentiment", "vocab_size": vocab, "seed": SEED,
                    "seq_len": text_dataset().seq_len},
    }
    _register(ZooEntry(
        "nnlm_lite", "NNLM embeddings", "text",
        lambda: M.nnlm_lite(vocab), (None, text_dataset().seq_len), "int64",
        text_pipeline, {"epochs": 5, "n_train": 3000, "lr": 5e-3, "batch": 96}))
    _register(ZooEntry(
        "micro_bert", "MobileBert", "text",
        lambda: M.micro_bert(vocab), (None, text_dataset().seq_len), "int64",
        text_pipeline, {"epochs": 5, "n_train": 3000, "lr": 2e-3, "batch": 64}))


_populate()

IMAGE_CLASSIFIERS = (
    "micro_mobilenet_v1", "micro_mobilenet_v2", "micro_mobilenet_v3",
    "micro_inception", "micro_resnet", "micro_densenet",
)
"""The five-model lineup of Tables 3/5 and Figures 4(a)/5 (plus DenseNet)."""


def list_models() -> list[str]:
    """All registered zoo model names."""
    return sorted(_REGISTRY)


def get_entry(name: str) -> ZooEntry:
    """Registry lookup with a helpful error."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown zoo model {name!r}; available: {', '.join(list_models())}"
        ) from None


# ------------------------------------------------------------------ training

def _cache_key(entry: ZooEntry) -> str:
    """Cache key tied to everything that trains the weights — the
    architecture, the training config and the input pipeline (which
    :func:`training_data` applies) — so editing any of them retrains."""
    recipe = json.dumps({"train_cfg": entry.train_cfg,
                         "pipeline": entry.pipeline}, sort_keys=True)
    fingerprint = stable_hash(arch_signature(entry.arch_fn()), recipe) % 16**8
    return f"{entry.name}_{fingerprint:08x}"


@functools.lru_cache(maxsize=None)
def _model_cache_key(name: str) -> str:
    """:func:`_cache_key` of a registered model, computed once per process."""
    return _cache_key(get_entry(name))


def get_trained(name: str, force_retrain: bool = False):
    """Trained (params, state, meta) for a model, training+caching on demand."""
    entry = get_entry(name)
    key = _model_cache_key(name)
    if not force_retrain:
        cached = load_trained(key)
        if cached is not None:
            return cached
    _build_stage.cache_clear()
    cfg = entry.train_cfg
    inputs, targets = training_data(entry)
    if cfg.get("loss") == "detection":
        loss_fn = make_detection_loss(cfg["num_classes"])
    else:
        loss_fn = classification_loss
    store, history = train_model(
        entry.arch_fn(), inputs, targets, loss_fn=loss_fn,
        epochs=cfg.get("epochs", 4), batch_size=cfg.get("batch", 96),
        lr=cfg.get("lr", 3e-3), seed=SEED,
    )
    meta = {"name": name, "family": entry.family, "task": entry.task,
            "loss_history": [float(v) for v in history]}
    if entry.task in ("classification", "speech", "text", "segmentation"):
        val_x, val_y = eval_data(name, 400, "val")
        meta["val_accuracy"] = classification_accuracy(
            entry.arch_fn(), store, val_x, val_y)
    save_trained(key, store.export_arrays(), store.state, meta)
    return load_trained(key)


def ensure_trained(name: str) -> None:
    """Train and cache a model's weights unless they are cached already;
    cached weights are not read."""
    if not is_cached(_model_cache_key(name)):
        get_trained(name)


# -------------------------------------------------------------------- export

def build_checkpoint(name: str) -> Graph:
    """Export the training-framework ("Reference") graph of a trained model."""
    entry = get_entry(name)
    params, state, meta = get_trained(name)
    builder = GraphBuilder(name, metadata={
        "family": entry.family,
        "task": entry.task,
        "stage": "checkpoint",
        "pipeline": copy.deepcopy(entry.pipeline),
        "training_meta": meta,
    })
    x = builder.input("input", entry.input_shape, entry.input_dtype)
    backend = ExportBackend(builder, params, state)
    out = run_arch(entry.arch_fn(), x, backend)
    builder.mark_output(out)
    return builder.finish()


def calibration_batches(name: str) -> list[np.ndarray]:
    """Representative input batches for post-training quantization: 64
    calibration samples in batches of 32."""
    inputs, _ = eval_data(name, 64, "calib")
    return [np.asarray(inputs[i:i + 32], dtype=np.float32)
            for i in range(0, 64, 32)]


def get_model(name: str, stage: str = "mobile") -> Graph:
    """Build a zoo model at a deployment stage (see module docstring).

    Each stage is built once per process (per cache directory) from the
    stage before it, quantized with the default
    :class:`~repro.convert.QuantizationConfig`, and frozen; every call
    returns that one read-only graph, so a write to it raises instead of
    reaching later callers. ``copy.deepcopy`` of it is an independent,
    editable graph. Every convert pass verifies its output, so each stage
    built is lint-checked once. Retraining or switching
    ``REPRO_CACHE_DIR`` rebuilds. A build that raises is not remembered.
    """
    if stage not in ("checkpoint", "mobile", "quantized"):
        raise ReproError(
            f"unknown stage {stage!r}; use checkpoint/mobile/quantized")
    return _build_stage(name, stage, cache_dir())


@functools.lru_cache(maxsize=None)
def _build_stage(name, stage, root) -> Graph:
    """The frozen, memoized graph :func:`get_model` hands out; ``root``
    (the weights cache directory) is only part of the key."""
    if stage == "checkpoint":
        graph = build_checkpoint(name)
    elif stage == "mobile":
        graph = convert_to_mobile(_build_stage(name, "checkpoint", root))
    else:
        graph = quantize_graph(_build_stage(name, "mobile", root),
                               calibration_batches(name))
    return graph.freeze()
