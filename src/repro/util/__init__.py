"""Shared utilities: deterministic RNG, error types, formatting helpers.

These are deliberately dependency-free (numpy only) so every other
subpackage can import them without cycles.
"""

from repro.util.errors import (
    ReproError,
    GraphError,
    ShapeError,
    KernelError,
    QuantizationError,
    ValidationError,
    AssertionFailure,
)
from repro.util.retry import backoff_delays, with_retries
from repro.util.rng import derive_rng, stable_hash
from repro.util.sizes import array_nbytes
from repro.util.tabulate import format_table

__all__ = [
    "ReproError",
    "GraphError",
    "ShapeError",
    "KernelError",
    "QuantizationError",
    "ValidationError",
    "AssertionFailure",
    "backoff_delays",
    "with_retries",
    "derive_rng",
    "stable_hash",
    "array_nbytes",
    "format_table",
]
