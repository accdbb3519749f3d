"""Semi-supervised Poisson mixture classification with truncated variational EM."""

import os

# A BLAS GEMM rounds differently at each thread count, so pin one thread for
# repeatable seeded runs; OpenBLAS reads these at numpy's first import.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .core import (
    BottomWeights,
    ConfigError,
    DataError,
    ModelConfig,
    MonotonicityError,
    TopWeights,
    init_weights,
)
from .inference import (
    integrate,
    normalize_input,
    select_truncation,
    truncated_posterior,
)
from .classifier import bvsb, class_activation
from .data import (
    generate_mixture,
    load_csv,
    load_idx,
    preprocess,
    subsample_labels,
)
from .learning import (
    batch_e_step,
    batch_m_step,
    free_energy,
    online_epoch,
    run_tv_em,
    tv_em_iteration,
    update_bottom,
    update_top,
)
from .harness import (
    aggregate,
    compare_truncation,
    evaluate,
    export_weight_grid,
    predict_batch,
    train,
)

__version__ = "0.1.0"
