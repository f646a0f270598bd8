"""Host benchmark of the edge loop (see bench/README.md).

Importing this package loads no numpy, so ``python -m bench`` can pin the
BLAS thread count before anything else starts.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
"""The checkout the benchmark runs in; it reads and writes only below it."""

SCRATCH = ROOT / ".bench_tmp"
"""Parent of every temporary directory a run makes; removed when empty."""

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
"""Pinned to 1 in every workload process, so a run uses one core whatever
the BLAS default is and whatever else runs on the other cores."""
