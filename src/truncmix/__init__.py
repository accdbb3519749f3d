"""Semi-supervised Poisson mixture classification with truncated variational EM."""

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
