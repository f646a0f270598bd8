"""Byte-size helpers used by memory/disk accounting in perf tables."""

from __future__ import annotations

import numpy as np


def array_nbytes(value: object) -> int:
    """Return the payload size in bytes of an array, scalar or container."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (list, tuple)):
        return sum(array_nbytes(item) for item in value)
    if isinstance(value, dict):
        return sum(array_nbytes(k) + array_nbytes(v) for k, v in value.items())
    if isinstance(value, (int, float, bool, np.generic)):
        return 8
    if value is None:
        return 0
    return len(repr(value).encode("utf-8"))
