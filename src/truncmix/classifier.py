"""Top-layer class inference and confidence gating.

The class posterior mixes column-normalized top weights by the (truncated)
cluster posterior:

    t_k = sum_c [ R_kc / sum_k' R_k'c ] * s_c        (unlabeled)
    t_k = 1[k == label]                              (labeled)

R's columns are normalized once per write of R, and only the support columns
of the result are read, so the unlabeled branch costs O(K * C').
"""

import numpy as np


def normalized_columns(cols: np.ndarray) -> np.ndarray:
    """Columns of the top layer R (all C, or a support's) rescaled to sum to
    one over the K classes, in the memory order of ``cols``.

    Each column is summed over a Fortran-ordered copy (numpy's pairwise sum
    over K), so it gets the same bits from all of R as from a support's.
    A column summing to zero gets the uniform 1/K fallback.  Such columns
    occur at eps_R = 1, where a labeled update resets its class row to the
    posterior: once every row was reset, columns outside those supports are 0.
    """
    sums = np.asfortranarray(cols).sum(axis=0)
    return np.divide(cols, sums, out=np.full_like(cols, 1.0 / cols.shape[0]), where=sums != 0.0)


def class_activation(support, probs, mix: np.ndarray, label: int | None = None) -> np.ndarray:
    """Class posterior t for one observation; sums to one in both branches.

    ``probs`` is the cluster posterior on ``support`` (distinct indices);
    ``mix`` is ``normalized_columns(R.R)``, of which a labeled point reads
    only K.  Gathered at every C', its columns sum and multiply as
    ``normalized_columns(R.R[:, support])`` does; evaluation reads them too.
    """
    K = len(mix)
    if label is not None:
        if not 0 <= label < K:
            raise ValueError(f"label {label} out of range for K={K}")
        t = np.zeros(K)
        t[label] = 1.0
        return t
    return mix[:, support] @ probs


def bvsb(t: np.ndarray) -> float:
    """Best-versus-second-best margin: max(t) minus the runner-up entry."""
    if t.shape[-1] < 2:
        raise ValueError("BvSB undefined for single class")
    part = np.partition(t, t.shape[-1] - 2)
    return float(part[-1] - part[-2])
