"""The instrumented edge application: sensor -> preprocess -> invoke -> log.

``EdgeApp`` models the mobile app of Figure 1: it owns an interpreter on a
simulated device, a preprocessing recipe (possibly buggy — that is the whole
point), and an attached :class:`~repro.instrument.monitor.EdgeMLMonitor`.
Frames come from seeded playback arrays (``repro.zoo.playback_data``) so the
reference pipeline can replay the same bytes (§3.3).

``EdgeApp.run`` is the paper's edge loop: one frame per invoke. Offline
replays of playback data (the reference pipeline, sweep variants) call
``EdgeApp.replay`` instead, which invokes :data:`REPLAY_BATCH` frames at a
time and writes the same per-frame logs. Both are one capture loop over the
monitor's inference windows, one or many frames per invoke.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.graph.graph import Graph
from repro.instrument.monitor import EdgeMLMonitor
from repro.instrument.store import EXrayLog
from repro.perfmodel.device import PIXEL4_CPU, Device
from repro.pipelines.preprocess import (
    SPEC_NORMALIZATIONS,
    ImagePreprocessConfig,
    spectrogram,
)
from repro.runtime.interpreter import Interpreter
from repro.runtime.resolver import BaseOpResolver
from repro.util.errors import ValidationError

Preprocess = Callable[[np.ndarray], np.ndarray]

REPLAY_BATCH = 32
"""Frames per invoke in :meth:`EdgeApp.replay`."""

IMAGE_OVERRIDE_KEYS = frozenset(
    ("target_size", "resize_method", "channel_order", "normalization",
     "rotation_k"))
"""Recognized override keys for image tasks (the ImagePreprocessConfig fields)."""

SPEECH_OVERRIDE_KEYS = frozenset(
    ("spectrogram_normalization", "frame_len", "hop", "num_bins"))
"""Recognized override keys for the speech pipeline."""


def _check_override_keys(overrides: dict, known: frozenset, task: str) -> None:
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise ValidationError(
            f"unrecognized preprocess override(s) {unknown} for task "
            f"{task!r}; recognized keys: {sorted(known)}"
        )


def make_preprocess(pipeline_meta: dict, overrides: dict | None = None) -> Preprocess:
    """Build the preprocessing function for a model's pipeline metadata.

    ``overrides`` patches the recipe — this is how experiments inject the §2
    bug classes (e.g. ``{"channel_order": "bgr"}``,
    ``{"normalization": "[0,1]"}``, ``{"rotation_k": 1}``,
    ``{"resize_method": "bilinear"}``,
    ``{"spectrogram_normalization": "per_utterance"}``).

    Every recognized override is applied even when the recorded recipe omits
    that field, and unrecognized keys raise :class:`ValidationError` — a
    silently dropped override would make a bug-injection experiment run the
    *correct* pipeline while claiming to be buggy.
    """
    overrides = dict(overrides or {})
    task = pipeline_meta["task"]
    if task in ("classification", "detection", "segmentation"):
        _check_override_keys(overrides, IMAGE_OVERRIDE_KEYS, task)
        cfg_json = dict(pipeline_meta["image_preprocess"])
        cfg_json.update(overrides)
        cfg = ImagePreprocessConfig.from_json(cfg_json)
        return cfg.apply
    if task == "speech":
        _check_override_keys(overrides, SPEECH_OVERRIDE_KEYS, task)
        spec_cfg = dict(pipeline_meta["spectrogram"])
        spec_cfg.update(
            {k: v for k, v in overrides.items()
             if k != "spectrogram_normalization"})
        norm_name = overrides.get(
            "spectrogram_normalization",
            pipeline_meta["spectrogram_normalization"],
        )
        norm = SPEC_NORMALIZATIONS[norm_name]

        def speech_preprocess(waves: np.ndarray) -> np.ndarray:
            feats = norm.apply(spectrogram(waves, **spec_cfg))
            return feats[..., None].astype(np.float32)

        return speech_preprocess
    if task == "text":
        # Token ids arrive pre-encoded; the lowercase bug is injected at
        # encode time (see SyntheticSentiment.encode) — pass through here.
        _check_override_keys(overrides, frozenset(), task)
        return lambda ids: np.asarray(ids)
    raise ValidationError(f"unknown task {task!r}")


class EdgeApp:
    """An instrumented ML application on a (simulated) edge device.

    Parameters
    ----------
    graph:
        The deployed model (any stage: checkpoint / mobile / quantized).
    preprocess:
        Sensor-batch -> model-input function; defaults to the *correct*
        recipe recorded in the graph metadata.
    device / resolver:
        Simulated hardware and kernel resolver.
    monitor:
        Attached monitor; a fresh default one is created if omitted.
        Give it a sink (e.g. a
        :class:`~repro.instrument.sinks.DirectorySink`) to stream frames
        to disk as the app runs.
    log_inputs:
        Log the preprocessed model input tensor per frame. Needed by the
        preprocessing assertions; disable for the lean always-on logging
        profile whose overhead Table 2 reports.
    """

    def __init__(
        self,
        graph: Graph,
        preprocess: Preprocess | None = None,
        device: Device | None = PIXEL4_CPU,
        resolver: BaseOpResolver | None = None,
        monitor: EdgeMLMonitor | None = None,
        log_inputs: bool = True,
    ):
        self.log_inputs = log_inputs
        self.graph = graph
        self.pipeline_meta = graph.metadata.get("pipeline", {})
        if preprocess is None:
            preprocess = make_preprocess(self.pipeline_meta)
        self.preprocess = preprocess
        self.interpreter = Interpreter(graph, resolver=resolver, device=device)
        self.monitor = monitor or EdgeMLMonitor(name="edge")
        self.monitor.attach(self.interpreter)

    # --------------------------------------------------------------- frames
    def run(
        self,
        raw_items: np.ndarray,
        labels: np.ndarray | None = None,
        log_raw: bool = False,
    ) -> np.ndarray:
        """Process items one frame per invoke with full instrumentation.

        Returns the stacked model outputs (one row per frame). Each frame,
        model output and label included, reaches the monitor's sink the
        moment its inference window closes, whatever the sink's retention
        policy.
        """
        return self._capture(raw_items, labels, log_raw, 1)

    def replay(
        self,
        raw_items: np.ndarray,
        labels: np.ndarray | None = None,
        log_raw: bool = False,
    ) -> np.ndarray:
        """Replay recorded items offline, :data:`REPLAY_BATCH` per invoke.

        Writes the frames :meth:`run` writes — the same tensors, keys,
        steps, scalars and simulated latency/memory — and returns the same
        stacked outputs, as long as both the preprocessing and the model
        are row-invariant: row i of a batched call equals a batch-1 call on
        frame i (every zoo recipe and model is). Per-frame ``wall_ms`` is
        the batch's wall time divided by its frame count (see
        :mod:`repro.instrument.monitor`).
        """
        return self._capture(raw_items, labels, log_raw, REPLAY_BATCH)

    def _capture(self, raw_items: np.ndarray, labels: np.ndarray | None,
                 log_raw: bool, chunk: int) -> np.ndarray:
        """Preprocess ``chunk`` frames in one call, log each frame's sensor
        read and model-input row on its own frame, then invoke the chunk in
        one monitor window. A chunk above 1 needs row-invariant
        preprocessing, as it needs a row-invariant model."""
        outputs = []
        for start in range(0, len(raw_items), chunk):
            raw = raw_items[start:start + chunk]
            x = np.asarray(self.preprocess(raw))
            for i, row in enumerate(x):
                self.monitor.on_sensor_start()
                if log_raw:
                    self.monitor.log("sensor_frame", np.asarray(raw[i]))
                self.monitor.on_sensor_stop()
                if self.log_inputs:
                    self.monitor.log("model_input", row)
                self.monitor.hold()
            with self.monitor.window(self.interpreter) as frames:
                out = next(iter(self.interpreter.invoke(x).values()))
                for i, frame in enumerate(frames):
                    frame.tensors["model_output"] = np.array(out[i])
                    if labels is not None:
                        frame.scalars["label"] = float(labels[start + i])
            outputs.append(out)
        return np.concatenate(outputs)

    def run_batched(self, raw_items: np.ndarray, batch: int = 128) -> np.ndarray:
        """Fast uninstrumented path (accuracy sweeps): batched invokes."""
        outs = []
        for start in range(0, len(raw_items), batch):
            x = self.preprocess(raw_items[start:start + batch])
            out = self.interpreter.invoke(np.asarray(x))
            outs.append(next(iter(out.values())))
        return np.concatenate(outs, axis=0)

    # ----------------------------------------------------------------- logs
    def log(self) -> EXrayLog:
        """The monitor's log stream as a queryable EXrayLog view."""
        return EXrayLog.from_monitor(self.monitor)
