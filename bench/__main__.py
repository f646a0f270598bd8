"""Entry point of ``python -m bench``; see bench/README.md."""

import os
import sys

from bench import BLAS_ENV, ROOT

for _var in BLAS_ENV:          # before numpy loads BLAS
    os.environ[_var] = "1"
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from bench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
