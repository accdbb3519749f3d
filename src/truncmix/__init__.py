"""Semi-supervised Poisson mixture classification with truncated variational EM."""

import os as _os

# A BLAS GEMM rounds differently at each thread count, so pin one thread for
# repeatable seeded runs; OpenBLAS reads these at numpy's first import.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
_os.environ.setdefault("OMP_NUM_THREADS", "1")

__version__ = "0.1.0"
