"""Top-layer class inference and confidence gating.

The class posterior mixes column-normalized top weights by the (truncated)
cluster posterior:

    t_k = sum_c [ R_kc / sum_k' R_k'c ] * s_c        (unlabeled)
    t_k = 1[k == label]                              (labeled)

Only support columns of R are read, so the unlabeled branch costs O(K * C').
"""

import numpy as np

from .core import TopWeights


def normalized_columns(R: np.ndarray, support: np.ndarray | None = None) -> np.ndarray:
    """Columns of the K x C matrix R rescaled to sum to one over classes.

    A column summing to zero gets the uniform 1/K fallback.  Such columns
    occur at eps_R = 1, where a labeled update resets its class row to the
    posterior: once every row was reset, columns outside those supports are 0.
    """
    cols = R if support is None else R[:, support]
    sums = cols.sum(axis=0)
    if sums.all():
        return cols / sums
    zero = sums == 0.0
    cols = cols.copy()
    cols[:, zero] = 1.0 / R.shape[0]
    sums = np.where(zero, 1.0, sums)
    return cols / sums


def class_activation(support, probs, R: TopWeights, label: int | None = None) -> np.ndarray:
    """Class posterior t for one observation; sums to one in both branches.

    ``probs`` is the cluster posterior on ``support`` (distinct indices).
    """
    K = R.K
    if label is not None:
        if not 0 <= label < K:
            raise ValueError(f"label {label} out of range for K={K}")
        t = np.zeros(K)
        t[label] = 1.0
        return t
    return normalized_columns(R.R, support) @ probs


def bvsb(t: np.ndarray) -> float:
    """Best-versus-second-best margin: max(t) minus the runner-up entry."""
    if t.shape[-1] < 2:
        raise ValueError("BvSB undefined for single class")
    part = np.partition(t, t.shape[-1] - 2)
    return float(part[-1] - part[-2])
