"""Requantization arithmetic shared by all integer kernels.

Integer kernels accumulate exact int32-style sums, then map them to the
output quantization with ``out_q = clamp(round(acc * M) + zp_out)`` where the
multiplier ``M = s_in * s_w / s_out`` (per-channel for per-channel weights).

Accumulators are integers held in a float dtype, so the sums run on the
BLAS-fast numpy path: the reference kernels accumulate in float64, the
optimized ones in float32 where it is exact
(:func:`~repro.kernels.quantized.optimized.accumulator_dtype`). Either way
the mapping itself runs in float64. :class:`Requantizer` holds its
constants, computed once per layer, and applies them in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.quantize.params import NP_DTYPES, QuantParams, dtype_range


def output_multiplier(
    in_params: QuantParams,
    weight_params: QuantParams,
    out_params: QuantParams,
) -> np.ndarray:
    """Per-output-channel (or scalar) requantization multiplier."""
    return (
        in_params.scale.astype(np.float64)
        * weight_params.scale.astype(np.float64)
        / out_params.scale.astype(np.float64)
    )


@dataclass(frozen=True)
class Requantizer:
    """One layer's ``clamp(round(q) + zp_out)`` constants, computed once.

    ``lo``/``hi`` are the clamp bounds of the fused activation
    (:func:`fused_activation_bounds`).
    """

    zero_point: float
    lo: int
    hi: int
    dtype: np.dtype

    @classmethod
    def for_output(cls, out_params: QuantParams,
                   fused_activation: str) -> "Requantizer":
        lo, hi = fused_activation_bounds(fused_activation, out_params)
        return cls(float(out_params.zero_point.item()), lo, hi,
                   NP_DTYPES[out_params.dtype])

    def __call__(self, q: np.ndarray) -> np.ndarray:
        """Quantize the float64 scaled accumulators ``q = acc * M``,
        overwriting them."""
        np.round(q, out=q)
        q += self.zero_point
        np.clip(q, self.lo, self.hi, out=q)
        return q.astype(self.dtype)


def requantize(
    acc: np.ndarray,
    multiplier: np.ndarray,
    out_params: QuantParams,
    fused_activation: str = "linear",
) -> np.ndarray:
    """Map integer accumulators to the output quantized domain.

    ``multiplier`` broadcasts against ``acc`` (scalar, or per-channel along
    the last axis). ``fused_activation`` clamps in the quantized domain, the
    way TFLite folds activations into the preceding op.
    """
    return Requantizer.for_output(out_params, fused_activation)(
        acc * multiplier)


def fused_activation_bounds(activation: str, out_params: QuantParams) -> tuple[int, int]:
    """Quantized-domain clamp bounds implementing a fused activation."""
    qmin, qmax = dtype_range(out_params.dtype)
    if activation in ("linear", ""):
        return qmin, qmax
    zp = int(out_params.zero_point.item())
    scale = float(out_params.scale.item())
    if activation == "relu":
        return max(qmin, zp), qmax
    if activation == "relu6":
        return max(qmin, zp), min(qmax, zp + int(round(6.0 / scale)))
    raise ValueError(
        f"activation {activation!r} cannot be fused in the quantized domain; "
        "it must remain a standalone (LUT) activation node"
    )


def rescale_tensor(
    q: np.ndarray, src: QuantParams, dst: QuantParams
) -> np.ndarray:
    """Requantize a tensor from one parameterization to another."""
    real = (q.astype(np.float64) - float(src.zero_point.item())) * float(src.scale.item())
    out = np.round(real / float(dst.scale.item())) + float(dst.zero_point.item())
    qmin, qmax = dtype_range(dst.dtype)
    return np.clip(out, qmin, qmax).astype(NP_DTYPES[dst.dtype])


def build_lut(
    fn,
    in_params: QuantParams,
    out_params: QuantParams,
) -> np.ndarray:
    """Build a 256-entry lookup table for a standalone int8/uint8 activation.

    This is how TFLite executes non-clamp activations (hard-swish, sigmoid,
    tanh, ...) on quantized tensors: enumerate every representable input,
    apply the float function, and quantize the result.
    """
    qmin, qmax = dtype_range(in_params.dtype)
    domain = np.arange(qmin, qmax + 1, dtype=np.int64)
    real = (domain - in_params.zero_point.item()) * in_params.scale.item()
    mapped = fn(real.astype(np.float64))
    out = np.round(mapped / out_params.scale.item()) + out_params.zero_point.item()
    lo, hi = dtype_range(out_params.dtype)
    return np.clip(out, lo, hi).astype(NP_DTYPES[out_params.dtype])


def apply_lut(q: np.ndarray, lut: np.ndarray, in_params: QuantParams) -> np.ndarray:
    """Apply a LUT built by :func:`build_lut` to a quantized tensor."""
    qmin, _ = dtype_range(in_params.dtype)
    return lut[q.astype(np.int64) - qmin]


def wrap_to_bits(acc: np.ndarray, bits: int) -> np.ndarray:
    """Emulate a narrow integer accumulator: wrap into [-2^(bits-1), 2^(bits-1)).

    Used only by the injected depthwise-conv overflow bug
    (:class:`~repro.kernels.quantized.bugs.KernelBugs`).
    """
    half = 2 ** (bits - 1)
    return ((acc.astype(np.int64) + half) % (2 * half) - half).astype(np.float64)
