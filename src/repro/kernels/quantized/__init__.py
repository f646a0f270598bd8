"""Quantized integer kernels, in optimized and reference flavours.

``optimized`` mirrors TFLite's builtin OpResolver kernels (fast, shipped in
production); ``reference`` mirrors RefOpResolver (naive, for debugging).
Both share the requantization math in :mod:`repro.kernels.quantized.requant`
and the injectable bug flags in :mod:`repro.kernels.quantized.bugs`.
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
