"""Activation-range calibration over a representative dataset.

§2 "Scale calibration": quantization tools require example inputs; an outlier
in the representative set inflates the scale (losing resolution), while a too
small set under-covers the range (clipping normal activations). Both failure
modes are first-class here — the ablation bench exercises them directly.
"""

from __future__ import annotations

import numpy as np

from repro.quantize.params import QuantParams, choose_qparams
from repro.util.errors import QuantizationError


class RangeObserver:
    """Tracks the value range of one tensor across calibration batches.

    Parameters
    ----------
    mode:
        ``"minmax"`` — exact running min/max (TFLite default; sensitive to
        outliers). ``"percentile"`` — clip to the given percentiles of a
        reservoir of up to :attr:`reservoir` observed values, subsampled
        with a fixed seed (robust to outliers).
    percentile:
        Two-sided coverage for percentile mode; 99.9 means clip to
        [p0.1, p99.9].
    """

    reservoir = 200_000

    def __init__(self, mode: str = "minmax", percentile: float = 99.9):
        if mode not in ("minmax", "percentile"):
            raise QuantizationError(f"unknown calibration mode {mode!r}")
        self.mode = mode
        self.percentile = float(percentile)
        self.min_val = np.inf
        self.max_val = -np.inf
        self.count = 0
        self._samples: list[np.ndarray] = []
        self._rng = np.random.default_rng(0)

    def observe(self, tensor: np.ndarray) -> None:
        """Fold one batch of activations into the running statistics."""
        values = np.asarray(tensor, dtype=np.float64).ravel()
        if values.size == 0:
            return
        self.min_val = min(self.min_val, float(values.min()))
        self.max_val = max(self.max_val, float(values.max()))
        self.count += values.size
        if self.mode == "percentile":
            held = sum(s.size for s in self._samples)
            budget = self.reservoir - held
            if budget > 0:
                if values.size > budget:
                    values = self._rng.choice(values, size=budget, replace=False)
                self._samples.append(values)

    def range(self) -> tuple[float, float]:
        """Final calibrated (min, max) range."""
        if self.count == 0:
            raise QuantizationError("observer saw no data; run calibration first")
        if self.mode == "minmax":
            return self.min_val, self.max_val
        values = np.concatenate(self._samples)
        lo = (100.0 - self.percentile) / 2.0
        hi = 100.0 - lo
        return float(np.percentile(values, lo)), float(np.percentile(values, hi))

    def qparams(self, dtype: str = "int8", symmetric: bool = False) -> QuantParams:
        """Quantization parameters for the calibrated range."""
        lo, hi = self.range()
        return choose_qparams(lo, hi, dtype=dtype, symmetric=symmetric)
