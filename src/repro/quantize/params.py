"""Affine quantization parameters and the quantize/dequantize primitives.

This implements the paper's Eqns. (1)-(2) and their generalizations:
asymmetric vs symmetric, per-tensor vs per-channel, for int8/uint8
activations+weights and int32 biases — the post-training full-integer
scheme the paper deploys (§2, §3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.errors import QuantizationError

_DTYPE_RANGES: dict[str, tuple[int, int]] = {
    "int8": (-128, 127),
    "uint8": (0, 255),
    "int16": (-32768, 32767),
    "int32": (-(2**31), 2**31 - 1),
}

#: numpy storage dtype of each quantized dtype name.
NP_DTYPES: dict[str, np.dtype] = {name: np.dtype(name) for name in _DTYPE_RANGES}


def dtype_range(dtype: str) -> tuple[int, int]:
    """Return the (qmin, qmax) representable range of a quantized dtype."""
    try:
        return _DTYPE_RANGES[dtype]
    except KeyError:
        raise QuantizationError(f"unsupported quantized dtype {dtype!r}") from None


@dataclass(frozen=True)
class QuantParams:
    """Parameters of an affine quantization: ``real = (q - zero_point) * scale``.

    Attributes
    ----------
    scale:
        Positive float scale; scalar array for per-tensor, 1-D array of length
        C for per-channel quantization.
    zero_point:
        Integer zero point(s), same shape as ``scale``. Always 0 for symmetric
        quantization.
    dtype:
        Quantized storage dtype name ("int8", "uint8", "int32").
    axis:
        Channel axis for per-channel quantization; ``None`` for per-tensor.
    """

    scale: np.ndarray
    zero_point: np.ndarray
    dtype: str = "int8"
    axis: int | None = None

    def __post_init__(self) -> None:
        scale = np.atleast_1d(np.asarray(self.scale, dtype=np.float64))
        zp = np.atleast_1d(np.asarray(self.zero_point, dtype=np.int64))
        if scale.shape != zp.shape:
            raise QuantizationError(
                f"scale shape {scale.shape} != zero_point shape {zp.shape}"
            )
        if np.any(scale <= 0) or not np.all(np.isfinite(scale)):
            raise QuantizationError(f"scales must be finite and positive: {scale}")
        qmin, qmax = dtype_range(self.dtype)
        if np.any(zp < qmin) or np.any(zp > qmax):
            raise QuantizationError(f"zero points {zp} outside [{qmin}, {qmax}]")
        if self.axis is None and scale.size != 1:
            raise QuantizationError("per-tensor params must have a single scale")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "zero_point", zp)

    @property
    def per_channel(self) -> bool:
        """Whether this is a per-channel (axis-wise) quantization."""
        return self.axis is not None

    @property
    def qmin(self) -> int:
        return dtype_range(self.dtype)[0]

    @property
    def qmax(self) -> int:
        return dtype_range(self.dtype)[1]

    def _broadcast(self, arr: np.ndarray, ndim: int) -> np.ndarray:
        """Reshape per-channel params so they broadcast along ``self.axis``."""
        if self.axis is None:
            return arr.reshape(())
        shape = [1] * ndim
        shape[self.axis] = -1
        return arr.reshape(shape)

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Quantize a float array to this parameterization (saturating).

        Computed in float64 in one scratch array, then cast to the storage
        dtype.
        """
        q = np.array(x, dtype=np.float64)
        q /= self._broadcast(self.scale, q.ndim)
        np.round(q, out=q)
        q += self._broadcast(self.zero_point, q.ndim)
        np.clip(q, self.qmin, self.qmax, out=q)
        return q.astype(NP_DTYPES[self.dtype])

    def dequantize(self, q: np.ndarray) -> np.ndarray:
        """Reconstruct float values: ``(q - zero_point) * scale``.

        Computed in float64 in one scratch copy of ``q``, then rounded to
        float32.
        """
        x = np.array(q, dtype=np.float64)
        x -= self._broadcast(self.zero_point, x.ndim)
        x *= self._broadcast(self.scale, x.ndim)
        return x.astype(np.float32)

    def to_json(self) -> dict:
        """JSON-serializable representation (for model files and logs)."""
        return {
            "scale": self.scale.tolist(),
            "zero_point": self.zero_point.tolist(),
            "dtype": self.dtype,
            "axis": self.axis,
        }

    @classmethod
    def from_json(cls, data: dict) -> "QuantParams":
        return cls(
            scale=np.asarray(data["scale"], dtype=np.float64),
            zero_point=np.asarray(data["zero_point"], dtype=np.int64),
            dtype=data["dtype"],
            axis=data["axis"],
        )


def choose_qparams(
    min_val: float,
    max_val: float,
    dtype: str = "int8",
    symmetric: bool = False,
) -> QuantParams:
    """Compute per-tensor quantization parameters from an observed range.

    The range is always extended to include zero (so that zero-padding is
    exactly representable — the same requirement TFLite imposes), and a
    degenerate range collapses to a small epsilon scale.
    """
    if not np.isfinite(min_val) or not np.isfinite(max_val) or min_val > max_val:
        raise QuantizationError(f"invalid calibration range [{min_val}, {max_val}]")
    qmin, qmax = dtype_range(dtype)
    min_val = min(float(min_val), 0.0)
    max_val = max(float(max_val), 0.0)
    if symmetric:
        bound = max(abs(min_val), abs(max_val), 1e-8)
        scale = bound / float(max(qmax, -qmin - 1) if qmin < 0 else qmax)
        zero_point = 0 if qmin < 0 else (qmin + qmax + 1) // 2
        return QuantParams(np.float64(scale), np.int64(zero_point), dtype)
    span = max(max_val - min_val, 1e-8)
    scale = span / float(qmax - qmin)
    zero_point = int(np.clip(np.round(qmin - min_val / scale), qmin, qmax))
    return QuantParams(np.float64(scale), np.int64(zero_point), dtype)


def choose_qparams_per_channel(weights: np.ndarray, axis: int) -> QuantParams:
    """Symmetric per-channel int8 parameters for a weight tensor along ``axis``.

    This is the scheme §2 motivates: after batch-norm folding, channel scales
    can differ wildly, and per-tensor quantization "can squash the entire
    channel to 0"; per-channel gives each output channel its own scale.
    """
    w = np.asarray(weights, dtype=np.float64)
    if not 0 <= axis < w.ndim:
        raise QuantizationError(f"axis {axis} out of range for shape {w.shape}")
    reduce_axes = tuple(i for i in range(w.ndim) if i != axis)
    bounds = np.maximum(np.abs(w).max(axis=reduce_axes), 1e-8)
    qmin, qmax = dtype_range("int8")
    denom = float(max(qmax, -qmin - 1) if qmin < 0 else qmax)
    scales = bounds / denom
    zeros = np.zeros_like(scales, dtype=np.int64)
    return QuantParams(scales, zeros, "int8", axis=axis)
