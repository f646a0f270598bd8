"""Log records: the ML-EXray data model (§3.2).

Three telemetry families, all reducible to key-value pairs per inference
frame:

* **Input/Output** — model input/output, per-layer outputs, and the
  input/output of any user-instrumented function;
* **Performance metrics** — end-to-end latency, per-layer latency, memory
  footprint;
* **Peripheral sensors** — device context (orientation, motion, lighting)
  captured around the sensor read.

This module also holds the frame <-> JSON document codec shared by the
streaming sinks (:mod:`repro.instrument.sinks`) and the log store
(:mod:`repro.instrument.store`): a frame's scalar payload serializes to one
JSON object (tensors travel separately, referenced by ``tensor_keys``), and
numpy scalars/arrays in the sensor channel are canonicalized to plain
floats/lists so a saved-and-reloaded log always carries JSON-native values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class FrameLog:
    """Everything logged for one inference frame (one sensor sample).

    ``sensor_only`` marks a frame that never saw an inference window — a
    lazily-opened frame closed by :meth:`EdgeMLMonitor.flush` (trailing
    sensor telemetry, an aborted invocation). Such frames carry zero
    latency/memory by construction; aggregate statistics must exclude them
    from latency means rather than average in their zeros.
    """

    step: int
    latency_ms: float = 0.0
    wall_ms: float = 0.0
    memory_mb: float = 0.0
    scalars: dict[str, float] = field(default_factory=dict)
    sensors: dict[str, object] = field(default_factory=dict)
    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    layer_latency_ms: dict[str, float] = field(default_factory=dict)
    layer_ops: dict[str, str] = field(default_factory=dict)
    sensor_only: bool = False

    def tensor(self, key: str) -> np.ndarray:
        """Fetch a logged tensor; raises KeyError with available keys."""
        try:
            return self.tensors[key]
        except KeyError:
            raise KeyError(
                f"frame {self.step} has no tensor {key!r}; "
                f"available: {sorted(self.tensors)}"
            ) from None


def jsonable(value):
    """Canonicalize a logged value for JSON: numpy scalars/arrays become
    plain floats/(nested) lists; everything else passes through."""
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def frame_to_doc(frame: FrameLog) -> dict:
    """A frame's JSON document: everything but the tensor payloads.

    Tensors are referenced by sorted ``tensor_keys`` and stored out of band
    (one ``.npz`` shard per frame).
    """
    return {
        "step": frame.step,
        "latency_ms": frame.latency_ms,
        "wall_ms": frame.wall_ms,
        "memory_mb": frame.memory_mb,
        "scalars": {k: jsonable(v) for k, v in frame.scalars.items()},
        "sensors": {k: jsonable(v) for k, v in frame.sensors.items()},
        "tensor_keys": sorted(frame.tensors),
        "layer_latency_ms": frame.layer_latency_ms,
        "layer_ops": frame.layer_ops,
        "sensor_only": frame.sensor_only,
    }


def frame_from_doc(doc: dict) -> FrameLog:
    """Rebuild a frame from its JSON document (tensors attached separately)."""
    return FrameLog(
        step=doc["step"],
        latency_ms=doc["latency_ms"],
        wall_ms=doc["wall_ms"],
        memory_mb=doc["memory_mb"],
        scalars=dict(doc["scalars"]),
        sensors=dict(doc["sensors"]),
        layer_latency_ms=dict(doc.get("layer_latency_ms", {})),
        layer_ops=dict(doc.get("layer_ops", {})),
        sensor_only=doc.get("sensor_only", False),
    )


@dataclass
class TraceSummary:
    """Aggregate statistics over a run (consumed by the overhead tables)."""

    num_frames: int
    mean_latency_ms: float
    std_latency_ms: float
    mean_wall_ms: float
    peak_memory_mb: float
    monitor_overhead_ms: float
    log_bytes: int
    sensor_only_frames: int = 0

    @property
    def bytes_per_frame(self) -> float:
        return self.log_bytes / max(self.num_frames, 1)
