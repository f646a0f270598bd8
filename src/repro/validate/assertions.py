"""Deployment assertions: root-cause analysis functions (§3.2, §3.4).

An assertion function is "an arbitrary function that can indicate whether a
bug exists" by querying keys from one or more logs. ML-EXray ships built-in
assertions for the §2 bug classes — channel arrangement, normalization
scale, resize function, orientation, quantization health, latency/memory
budgets, spectrogram normalization — and users add custom ones by
subclassing :class:`DeploymentAssertion` or passing plain functions to the
:class:`~repro.validate.session.DebugSession`.

A user-defined assertion is a few lines, exactly as in the paper::

    def channel_assertion(ctx):
        edge, ref = ctx.edge_input(0), ctx.ref_input(0)
        if not np.allclose(edge, ref) and np.allclose(edge[..., ::-1], ref):
            raise AssertionFailure("channel", "BGR->RGB")
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.instrument.records import jsonable
from repro.instrument.store import EXrayLog
from repro.pipelines.preprocess import NORMALIZATIONS, resize, to_float
from repro.util.errors import AssertionFailure, ValidationError
from repro.validate.layerdiff import LayerDiff, locate_discrepancies


def jsonable_details(value):
    """Canonicalize an assertion-evidence value for JSON.

    Assertions attach free-form evidence dicts (error norms, per-rotation
    MSE tables keyed by ints, numpy scalars); this recursively maps them to
    JSON-native values — dict keys become strings, numpy scalars/arrays
    become floats/lists — so a serialized report never depends on what a
    particular assertion chose to record.
    """
    if isinstance(value, dict):
        return {str(k): jsonable_details(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable_details(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    return jsonable(value)


@dataclass(frozen=True)
class AssertionResult:
    """Outcome of one assertion: pass/fail plus a root-cause diagnosis."""

    check: str
    passed: bool
    diagnosis: str
    details: dict = field(default_factory=dict)

    def render(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.check}: {self.diagnosis}"

    # ------------------------------------------------------------ wire format
    def to_doc(self) -> dict:
        """JSON-native document. Evidence values are canonicalized (see
        :func:`jsonable_details`), so a round-trip through JSON is the
        identity on the canonical form, not necessarily on raw evidence."""
        return {"check": self.check, "passed": self.passed,
                "diagnosis": self.diagnosis,
                "details": jsonable_details(self.details)}

    @classmethod
    def from_doc(cls, doc: dict) -> "AssertionResult":
        return cls(check=doc["check"], passed=doc["passed"],
                   diagnosis=doc["diagnosis"],
                   details=dict(doc.get("details", {})))


class ValidationContext:
    """Everything an assertion may query: both logs plus analysis products."""

    def __init__(
        self,
        edge_log: EXrayLog,
        ref_log: EXrayLog,
        layer_diffs: list[LayerDiff] | None = None,
        extras: dict | None = None,
    ):
        self.edge_log = edge_log
        self.ref_log = ref_log
        self.layer_diffs = layer_diffs or []
        self.extras = dict(extras or {})

    def edge_input(self, frame: int = 0) -> np.ndarray:
        # Random access via EXrayLog.frame keeps directory-backed (lazy)
        # logs lazy, and the keys filter reads just this tensor's bytes
        # rather than every per-layer tensor of the frame.
        return self.edge_log.frame(frame, keys={"model_input"}) \
            .tensor("model_input")

    def ref_input(self, frame: int = 0) -> np.ndarray:
        return self.ref_log.frame(frame, keys={"model_input"}) \
            .tensor("model_input")

    def num_frames(self) -> int:
        return min(len(self.edge_log), len(self.ref_log))


class DeploymentAssertion:
    """Base class: implement :meth:`check`, raising AssertionFailure on bugs."""

    name = "assertion"

    def check(self, ctx: ValidationContext) -> str:
        """Return a pass message or raise :class:`AssertionFailure`."""
        raise NotImplementedError

    def run(self, ctx: ValidationContext) -> AssertionResult:
        """Execute the assertion, capturing the outcome."""
        try:
            message = self.check(ctx)
            return AssertionResult(self.name, True, message or "ok")
        except AssertionFailure as failure:
            return AssertionResult(self.name, False, failure.diagnosis,
                                   failure.details)


class FunctionAssertion(DeploymentAssertion):
    """Adapter turning a plain user function into an assertion."""

    def __init__(self, fn, name: str | None = None):
        self.fn = fn
        self.name = name or getattr(fn, "__name__", "user_assertion")

    def check(self, ctx: ValidationContext) -> str:
        result = self.fn(ctx)
        return result if isinstance(result, str) else "ok"


# ----------------------------------------------------------------- built-ins

def _mean_inputs(ctx: ValidationContext, frames: int = 4):
    n = min(ctx.num_frames(), frames)
    edge = np.stack([ctx.edge_input(i) for i in range(n)]).astype(np.float64)
    ref = np.stack([ctx.ref_input(i) for i in range(n)]).astype(np.float64)
    return edge, ref


class ChannelArrangementAssertion(DeploymentAssertion):
    """Detects RGB/BGR mix-ups: the paper's §3.2 example assertion."""

    name = "channel_arrangement"

    def __init__(self, atol: float = 2e-2):
        self.atol = atol

    def check(self, ctx: ValidationContext) -> str:
        edge, ref = _mean_inputs(ctx)
        if edge.shape != ref.shape:
            raise AssertionFailure(self.name,
                                   f"input shape {edge.shape} != {ref.shape}")
        if np.allclose(edge, ref, atol=self.atol):
            return "channel arrangement matches reference"
        if np.allclose(edge[..., ::-1], ref, atol=self.atol):
            raise AssertionFailure(self.name, "BGR->RGB",
                                   {"fix": "reverse channel order"})
        return "inputs differ, but not by channel permutation"


class NormalizationRangeAssertion(DeploymentAssertion):
    """Detects numerical-conversion mismatches by fitting the affine map
    between edge and reference inputs and naming the offending scheme."""

    name = "normalization_range"

    def __init__(self, tol: float = 0.05):
        self.tol = tol

    def check(self, ctx: ValidationContext) -> str:
        edge, ref = _mean_inputs(ctx)
        e = edge.ravel()
        r = ref.ravel()
        a_mat = np.stack([e, np.ones_like(e)], axis=1)
        (scale, offset), *_ = np.linalg.lstsq(a_mat, r, rcond=None)
        if abs(scale - 1.0) <= self.tol and abs(offset) <= self.tol:
            return "normalization matches reference"
        # Only diagnose when an affine map actually EXPLAINS the difference;
        # otherwise the discrepancy is some other bug (channel, rotation, ...)
        # and naming a normalization scheme would be a false root cause.
        residual = r - (scale * e + offset)
        r2 = 1.0 - float(np.var(residual)) / max(float(np.var(r)), 1e-12)
        if r2 < 0.95:
            return "inputs differ, but not by an affine rescale"
        # Name the scheme pair if the affine map matches a known mismatch.
        for edge_name, edge_s in NORMALIZATIONS.items():
            for ref_name, ref_s in NORMALIZATIONS.items():
                if edge_name == ref_name:
                    continue
                want_scale = ref_s.scale / edge_s.scale
                want_offset = ref_s.offset - edge_s.offset * want_scale
                if (abs(scale - want_scale) <= self.tol
                        and abs(offset - want_offset) <= self.tol * 4):
                    raise AssertionFailure(
                        self.name,
                        f"edge normalizes to {edge_name}, model expects {ref_name}",
                        {"fitted_scale": float(scale),
                         "fitted_offset": float(offset)},
                    )
        raise AssertionFailure(
            self.name,
            f"input ranges differ (edge*{scale:.3f}{offset:+.3f} ~= reference)",
            {"fitted_scale": float(scale), "fitted_offset": float(offset)},
        )


class OrientationAssertion(DeploymentAssertion):
    """Detects rotated inputs by trying all four 90-degree orientations."""

    name = "orientation"

    def check(self, ctx: ValidationContext) -> str:
        edge, ref = _mean_inputs(ctx)
        errors = {}
        for k in range(4):
            rotated = np.rot90(edge, k=k, axes=(1, 2))
            if rotated.shape != ref.shape:
                continue
            errors[k] = float(np.mean((rotated - ref) ** 2))
        if not errors:
            raise AssertionFailure(self.name, "input shapes never align")
        best = min(errors, key=errors.get)
        if best != 0 and errors[best] < 0.25 * errors.get(0, np.inf):
            raise AssertionFailure(
                self.name, f"input is rotated by {90 * (4 - best) % 360} degrees",
                {"per_rotation_mse": errors},
            )
        return "orientation matches reference"


class ResizeFunctionAssertion(DeploymentAssertion):
    """Identifies which resize function the edge app used, from the logged
    raw sensor frame, and compares it against the reference recipe."""

    name = "resize_function"

    def __init__(self, expected: str = "area",
                 candidates: tuple[str, ...] = ("area", "bilinear", "nearest")):
        self.expected = expected
        self.candidates = candidates

    def check(self, ctx: ValidationContext) -> str:
        frame = ctx.edge_log.frame(0, keys={"sensor_frame"})
        if "sensor_frame" not in frame.tensors:
            raise ValidationError(
                "resize assertion needs the raw frame: run the edge app with "
                "log_raw=True"
            )
        sensor = to_float(frame.tensor("sensor_frame"))
        edge_in = ctx.edge_input(0).astype(np.float64)
        h, w = edge_in.shape[0], edge_in.shape[1]
        # Undo whatever affine normalization was applied by matching moments.
        errors = {}
        for method in self.candidates:
            candidate = resize(sensor, h, w, method)
            cand = (candidate - candidate.mean()) / (candidate.std() + 1e-9)
            got = (edge_in - edge_in.mean()) / (edge_in.std() + 1e-9)
            errors[method] = float(np.mean((cand - got) ** 2))
        best = min(errors, key=errors.get)
        if best != self.expected:
            raise AssertionFailure(
                self.name,
                f"edge app resizes with {best!r}, training used {self.expected!r}",
                {"match_errors": errors},
            )
        return f"resize function matches training pipeline ({self.expected})"


class QuantizationHealthAssertion(DeploymentAssertion):
    """Flags error-prone quantized layers from per-layer drift, and constant
    model output (the 0%-accuracy failure mode of §4.4)."""

    name = "quantization_health"

    def __init__(self, threshold: float = 0.1, jump_factor: float = 3.0):
        self.threshold = threshold
        self.jump_factor = jump_factor

    def check(self, ctx: ValidationContext) -> str:
        # Per §3.4: "if the error happens at the model input, the problem
        # resides in the preprocessing functions" — defer to the
        # preprocessing assertions instead of blaming model ops.
        edge_in, ref_in = _mean_inputs(ctx)
        if edge_in.shape == ref_in.shape:
            span = float(ref_in.max() - ref_in.min()) or 1.0
            input_drift = float(np.sqrt(np.mean((edge_in - ref_in) ** 2))) / span
            if input_drift > 0.05:
                return (
                    "model inputs already differ (preprocessing issue); "
                    "skipping op-level diagnosis"
                )
        outputs = ctx.edge_log.stacked("model_output")
        constant = bool(np.ptp(outputs.reshape(len(outputs), -1), axis=0).max()
                        < 1e-6) if len(outputs) > 1 else False
        flagged = locate_discrepancies(ctx.layer_diffs, self.threshold,
                                       self.jump_factor)
        if flagged:
            worst = max(flagged, key=lambda d: d.error)
            ops = sorted({d.op for d in flagged})
            raise AssertionFailure(
                self.name,
                f"error-prone op(s) {', '.join(ops)}: nrMSE jumps at layer "
                f"{worst.index} ({worst.layer}, {worst.error:.3f})"
                + ("; model output is CONSTANT" if constant else ""),
                {"layers": [(d.index, d.layer, d.op, d.error) for d in flagged],
                 "constant_output": constant},
            )
        if constant:
            raise AssertionFailure(self.name, "model output is constant",
                                   {"constant_output": True})
        return "per-layer outputs track the reference"


class StragglerLatencyAssertion(DeploymentAssertion):
    """Per-layer latency validation: flags straggler layers (§4.5)."""

    name = "per_layer_latency"

    def __init__(self, share_threshold: float = 0.2, median_factor: float = 10.0):
        self.share_threshold = share_threshold
        self.median_factor = median_factor

    def check(self, ctx: ValidationContext) -> str:
        from repro.validate.latency import find_stragglers

        stragglers = find_stragglers(ctx.edge_log, self.share_threshold,
                                     self.median_factor)
        if stragglers:
            worst = stragglers[0]
            raise AssertionFailure(
                self.name,
                f"straggler layer {worst.layer} ({worst.op}): "
                f"{worst.latency_ms:.2f}ms = {worst.share:.0%} of inference, "
                f"{worst.ratio_to_median:.0f}x the median layer",
                {"stragglers": [(s.layer, s.op, s.latency_ms, s.share)
                                for s in stragglers]},
            )
        return "no straggler layers"


class SpectrogramNormalizationAssertion(DeploymentAssertion):
    """Audio: detects mismatched spectrogram normalization conventions by
    comparing input feature statistics (the Figure 4(c) bug)."""

    name = "spectrogram_normalization"

    def __init__(self, tol: float = 0.15):
        self.tol = tol

    def check(self, ctx: ValidationContext) -> str:
        edge, ref = _mean_inputs(ctx)
        stats = {
            "edge": (float(edge.mean()), float(edge.std())),
            "ref": (float(ref.mean()), float(ref.std())),
        }
        if (abs(stats["edge"][0] - stats["ref"][0]) <= self.tol
                and abs(stats["edge"][1] - stats["ref"][1]) <= self.tol):
            return "spectrogram normalization matches reference"
        raise AssertionFailure(
            self.name,
            "spectrogram statistics differ: edge mean/std "
            f"({stats['edge'][0]:.2f}, {stats['edge'][1]:.2f}) vs reference "
            f"({stats['ref'][0]:.2f}, {stats['ref'][1]:.2f}) — mismatched "
            "normalization convention between training pipelines",
            {"stats": stats},
        )


def default_assertions(task: str) -> list[DeploymentAssertion]:
    """Built-in assertion suite per task (the Figure 3 coverage matrix)."""
    if task in ("classification", "detection", "segmentation"):
        return [
            ChannelArrangementAssertion(),
            NormalizationRangeAssertion(),
            OrientationAssertion(),
            QuantizationHealthAssertion(),
            StragglerLatencyAssertion(),
        ]
    if task == "speech":
        return [
            SpectrogramNormalizationAssertion(),
            NormalizationRangeAssertion(),
            QuantizationHealthAssertion(),
            StragglerLatencyAssertion(),
        ]
    if task == "text":
        return [QuantizationHealthAssertion(), StragglerLatencyAssertion()]
    raise ValidationError(f"no default assertions for task {task!r}")
