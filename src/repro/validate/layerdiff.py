"""Per-layer output validation: the paper's normalized-rMSE analysis (§3.4).

Given edge and reference logs with per-layer tensors, compute for each layer

    nrMSE = rMSE / (max_i(e_i) - min_i(e_i))

where *e* is the reference layer output — rMSE normalized by the layer
output scale. A jump of nrMSE after a particular op localizes the bug: at
the model input it is a preprocessing issue; at an internal layer it is an
op/quantization issue (Figure 6). The error function is pluggable, as the
paper specifies ("the ML-EXray framework allows easy extension to other
error functions").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.instrument.store import EXrayLog
from repro.util.errors import ValidationError


def rmse(edge: np.ndarray, ref: np.ndarray) -> float:
    """Root-mean-square error between two tensors."""
    edge = np.asarray(edge, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if edge.shape != ref.shape:
        raise ValidationError(f"shape mismatch {edge.shape} vs {ref.shape}")
    return float(np.sqrt(np.mean((edge - ref) ** 2)))


def ref_span(ref: np.ndarray) -> float:
    """The reference tensor's output scale: ``max - min``.

    A span of 0 (constant layer output) makes normalized rMSE ill-defined;
    callers that care mark the layer via :attr:`LayerDiff.degenerate_ref`.
    """
    ref = np.asarray(ref, dtype=np.float64)
    return float(ref.max() - ref.min())


def normalized_rmse(edge: np.ndarray, ref: np.ndarray) -> float:
    """rMSE normalized by the reference layer's output scale (paper §3.4)."""
    span = ref_span(ref)
    if span <= 0:
        # Degenerate reference (constant layer output): fall back to rMSE so
        # a real discrepancy still registers. The value is then in absolute
        # units, not span-relative — :func:`per_layer_diff` flags the layer
        # (``degenerate_ref``) so downstream triage does not cluster on the
        # unit change.
        span = 1.0
    return rmse(edge, ref) / span


def max_abs_error(edge: np.ndarray, ref: np.ndarray) -> float:
    """Worst-case elementwise deviation."""
    return float(np.max(np.abs(np.asarray(edge, np.float64) - np.asarray(ref, np.float64))))


def mean_abs_error(edge: np.ndarray, ref: np.ndarray) -> float:
    """Mean elementwise deviation."""
    return float(np.mean(np.abs(np.asarray(edge, np.float64) - np.asarray(ref, np.float64))))


def cosine_distance(edge: np.ndarray, ref: np.ndarray) -> float:
    """1 - cosine similarity of the flattened tensors."""
    a = np.asarray(edge, np.float64).ravel()
    b = np.asarray(ref, np.float64).ravel()
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    if denom == 0:
        return 0.0 if np.allclose(a, b) else 1.0
    return float(1.0 - (a @ b) / denom)


ERROR_FUNCTIONS = {
    "nrmse": normalized_rmse,
    "rmse": rmse,
    "max_abs": max_abs_error,
    "mean_abs": mean_abs_error,
    "cosine": cosine_distance,
}


@dataclass(frozen=True)
class LayerDiff:
    """Per-layer discrepancy between edge and reference executions.

    ``degenerate_ref`` marks layers whose reference output was constant in
    at least one compared frame: their nrMSE fell back to absolute-unit rMSE
    (span 1.0), so the value is not comparable to span-normalized layers and
    fingerprinting/triage must not cluster on it.
    """

    index: int
    layer: str
    op: str
    error: float
    degenerate_ref: bool = False

    # ------------------------------------------------------------ wire format
    def to_doc(self) -> dict:
        """JSON-native document; round-trips to an equal (frozen) diff."""
        return {"index": self.index, "layer": self.layer, "op": self.op,
                "error": self.error, "degenerate_ref": self.degenerate_ref}

    @classmethod
    def from_doc(cls, doc: dict) -> "LayerDiff":
        return cls(index=doc["index"], layer=doc["layer"], op=doc["op"],
                   error=doc["error"],
                   degenerate_ref=doc.get("degenerate_ref", False))


CHUNK_FRAMES = 16
"""Frames of each log that :func:`per_layer_diff` compares per pass.

Each pass holds this many frames of every compared layer, per log, plus
one float64 ``(frames, elements)`` temporary for the layer at hand. On
48-frame logs of three zoo models, one frame per pass was 2-4x slower
than eight or more, and 8 to 48 frames per pass were within run-to-run
noise of each other. Sixteen keeps the resident chunk at 1.4-2.4 MB per
log on those models, so peak RSS does not move.
"""


def _chunk_rmse(edge: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """:func:`rmse` of every row of two ``(frames, elements)`` arrays.

    Byte-identical to :func:`rmse` per row: the float64 difference is
    squared in place and each row is summed by one contiguous reduction
    (the same pairwise order ``np.mean`` uses on one frame's tensor).
    """
    diff = np.subtract(edge, ref, dtype=np.float64)
    np.square(diff, out=diff)
    return np.sqrt(np.add.reduce(diff, axis=1) / diff.shape[1])


def _chunk_span(ref: np.ndarray) -> np.ndarray:
    """:func:`ref_span` of every row, reduced on the stored dtype (the
    float64 cast is monotone, so max/min commute with it)."""
    return (np.maximum.reduce(ref, axis=1).astype(np.float64)
            - np.minimum.reduce(ref, axis=1).astype(np.float64))


def per_layer_diff(
    edge_log: EXrayLog,
    ref_log: EXrayLog,
    error_fn: str = "nrmse",
) -> list[LayerDiff]:
    """Compare per-layer outputs of two logs, frame-averaged, in layer order.

    Layers are matched by name (the quantization pass preserves tensor
    names precisely so this alignment holds across deployment stages);
    layers present in only one log are skipped.

    Both logs are consumed :data:`CHUNK_FRAMES` frames at a time through
    :meth:`EXrayLog.stack_frames`, reading only the compared ``layer/*``
    tensors. Resident memory is one chunk of frames per log, never the
    whole trace; only the per-frame error scalars accumulate. ``nrmse`` and
    ``rmse`` are computed for a whole chunk of one layer at once, on
    ``(frames, elements)`` arrays, and equal the per-frame functions bit
    for bit; other error functions are called once per frame.
    """
    try:
        fn = ERROR_FUNCTIONS[error_fn]
    except KeyError:
        raise ValidationError(
            f"unknown error function {error_fn!r}; "
            f"available: {sorted(ERROR_FUNCTIONS)}"
        ) from None
    # The edge log's (layer, op) schedule is the stable cross-variant key
    # (names survive the conversion passes); restrict it to layers the
    # reference also logged.
    ref_layers = set(ref_log.layer_names())
    schedule = [(name, op) for name, op in edge_log.layer_schedule()
                if name in ref_layers]
    if not schedule:
        raise ValidationError(
            "no common per-layer logs; run both pipelines with per_layer=True"
        )
    n_frames = min(len(edge_log), len(ref_log))
    if n_frames == 0:
        raise ValidationError("logs contain no frames")
    keys = {f"layer/{name}" for name, _ in schedule}
    errors: list[list[np.ndarray]] = [[] for _ in schedule]
    degenerate = [False] * len(schedule)
    for start in range(0, n_frames, CHUNK_FRAMES):
        stop = min(start + CHUNK_FRAMES, n_frames)
        edge = edge_log.stack_frames(keys, start, stop)
        ref = ref_log.stack_frames(keys, start, stop)
        for index, (layer, _) in enumerate(schedule):
            edge_out = edge[f"layer/{layer}"]
            ref_out = ref[f"layer/{layer}"]
            if edge_out.shape != ref_out.shape:
                raise ValidationError(
                    f"layer {layer!r}: shape mismatch {edge_out.shape[1:]} "
                    f"vs {ref_out.shape[1:]}")
            if fn in (rmse, normalized_rmse):
                rows = len(edge_out)
                ref_rows = ref_out.reshape(rows, -1)
                error = _chunk_rmse(edge_out.reshape(rows, -1), ref_rows)
                if fn is normalized_rmse:
                    # Only nrMSE has the degenerate-span unit fallback
                    # worth flagging (see normalized_rmse).
                    span = _chunk_span(ref_rows)
                    degenerate[index] |= bool((span <= 0).any())
                    error /= np.where(span > 0, span, 1.0)
            else:
                error = np.array([fn(e, r) for e, r in zip(edge_out, ref_out)],
                                 dtype=np.float64)
            errors[index].append(error)
    return [
        LayerDiff(index=index, layer=layer, op=op,
                  error=float(np.mean(np.concatenate(errors[index]))),
                  degenerate_ref=degenerate[index])
        for index, (layer, op) in enumerate(schedule)
    ]


def locate_discrepancies(
    diffs: list[LayerDiff],
    threshold: float = 0.1,
    jump_factor: float = 3.0,
) -> list[LayerDiff]:
    """Flag layers where the error is large and *jumps* relative to upstream.

    A layer is suspicious when its error exceeds ``threshold`` and is at
    least ``jump_factor`` times the running error level before it — the
    "jump of nrMSE after a particular op" criterion of §3.4.
    """
    flagged = []
    running = 1e-6
    for diff in diffs:
        if diff.error > threshold and diff.error > jump_factor * running:
            flagged.append(diff)
        running = max(running, diff.error)
    return flagged
