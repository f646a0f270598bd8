"""Quantized integer kernels.

``optimized`` holds every int8 kernel: its conv, depthwise and dense
kernels mirror TFLite's builtin OpResolver (fast, shipped in production),
and its pool, add, mul and pad kernels serve both backends. ``reference``
holds the naive conv, depthwise and dense loops RefOpResolver would run
(for debugging). Both share the requantization math in
:mod:`repro.kernels.quantized.requant`; the injectable bug flags live in
:mod:`repro.kernels.quantized.bugs`.
"""

from repro.kernels.quantized import optimized, reference
from repro.kernels.quantized.bugs import (
    NO_BUGS,
    PAPER_OPTIMIZED_BUGS,
    PAPER_REFERENCE_BUGS,
    KernelBugs,
)
from repro.kernels.quantized.requant import (
    apply_lut,
    build_lut,
    fused_activation_bounds,
    output_multiplier,
    requantize,
    rescale_tensor,
    wrap_to_bits,
)

__all__ = [
    "KernelBugs",
    "NO_BUGS",
    "PAPER_OPTIMIZED_BUGS",
    "PAPER_REFERENCE_BUGS",
    "apply_lut",
    "build_lut",
    "fused_activation_bounds",
    "optimized",
    "output_multiplier",
    "reference",
    "requantize",
    "rescale_tensor",
    "wrap_to_bits",
]
