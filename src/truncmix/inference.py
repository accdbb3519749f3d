"""Bottom-layer inference for the normalized Poisson mixture.

Given a normalized observation y (sum_d y_d = A, y_d >= 1) and positive rate
rows W_c (sum_d W_cd = A), the cluster log joint is

    log p(c, y) = -log C + sum_d [ y_d log W_cd - W_cd - lgamma(y_d + 1) ]

Because the -sum_d W_cd and -sum_d lgamma(y_d + 1) terms are constant across
clusters, ranking clusters by log joint is the same as ranking them by the
linear activation I_c = sum_d log(W_cd) * y_d.  Truncated inference keeps the
C' largest activations and renormalizes the posterior on that support.

All functions here operate on the last axis, so a single call handles one
observation or a whole batch.  All but the two ``*_inplace`` functions are
pure.
"""

import numpy as np

from .core import BottomWeights, DataError


_ROW_BLOCK = 256  # row block of the batch passes over the data: bounds their scratch memory


def integrate(W: BottomWeights, y: np.ndarray) -> np.ndarray:
    """Log-domain input integration: I_c = sum_d log(W_cd) * y_d.

    ``y`` may be a single D-vector or an (N, D) batch; returns (C,) or (N, C).
    """
    with np.errstate(divide="ignore"):
        I = y @ np.log(W.W).T
    # Every entry is finite exactly when the max and the min are (a NaN
    # propagates to both), so no (N, C) boolean array is needed.
    if I.size and not (np.isfinite(I.max()) and np.isfinite(I.min())):
        raise DataError("non-finite log activation (W must be positive, y finite)")
    return I


def select_truncation(I: np.ndarray, c_prime: int) -> np.ndarray:
    """Indices of the ``c_prime`` largest entries along the last axis.

    Ties go to the smaller index and the indices are ascending, so the
    result is a deterministic function of I, of shape I.shape[:-1] +
    (c_prime,).  One ``argpartition`` gives each row's top set and its
    threshold (the c_prime-th largest value).  When no row has an entry
    outside its top set equal to the threshold, the sets are unique and are
    returned sorted; otherwise the first c_prime of a stable descending sort
    are.  A 2-D batch is selected in blocks of ``_ROW_BLOCK`` rows and
    returned as one compact array.  At c_prime == C the result is a
    read-only ``arange(C)``, broadcast to a batch's shape.
    """
    C = I.shape[-1]
    if not 1 <= c_prime <= C:
        raise ValueError(f"c_prime must lie in [1, {C}], got {c_prime}")
    if c_prime == C:
        full = np.arange(C)
        full.flags.writeable = False
        return full if I.ndim == 1 else np.broadcast_to(full, I.shape)
    if I.ndim == 2 and len(I) > _ROW_BLOCK:
        return np.concatenate([select_truncation(I[i:i + _ROW_BLOCK], c_prime)
                               for i in range(0, len(I), _ROW_BLOCK)])
    top = np.argpartition(I, C - c_prime, axis=-1)[..., C - c_prime:]
    if I.ndim == 1:
        thresh = I[top[0]]
        if np.count_nonzero(I >= thresh) == c_prime:
            top.sort()
            return top
    else:
        thresh = np.take_along_axis(I, top[..., :1], axis=-1)
        if np.all(np.count_nonzero(I >= thresh, axis=-1) == c_prime):
            return np.sort(top, axis=-1)
    # A stable sort of -I puts larger values first and equal ones in index order.
    return np.sort(np.argsort(-I, axis=-1, kind="stable")[..., :c_prime], axis=-1)


def truncated_posterior(I: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Softmax of ``I`` restricted to ``sets``, in the log domain.

    ``sets`` indexes the last axis of ``I``: a 1-D support for one
    observation or an (N, C') matrix for a batch.  Each support holds
    distinct indices, as ``select_truncation`` returns them.  The result is
    aligned with ``sets``; entries may underflow to 0.0 when activation gaps
    within a support exceed the float64 exponent range.
    """
    if sets.min() < 0 or sets.max() >= I.shape[-1]:
        raise ValueError("support indices out of range")
    if I.ndim == sets.ndim == 1:
        picked = I[sets]
    else:
        picked = np.take_along_axis(I, sets, axis=-1)
    return softmax_inplace(picked)


def softmax_inplace(x: np.ndarray) -> np.ndarray:
    """Overwrite a float64 array with its softmax along the last axis; returns it.

    The max is subtracted before exponentiating, so no finite row overflows;
    entries may underflow to 0.0 as in ``truncated_posterior``.
    """
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def logsumexp_inplace(x: np.ndarray) -> np.ndarray:
    """Log-sum-exp of a finite float64 array along the last axis; ``x`` is scratch.

    Runs scipy.special.logsumexp's real-input sequence (scipy 1.17), so the
    result equals it bit for bit: the m entries equal to the max are split
    off, the rest are shifted by the max and exponentiated in place, and
    with s their sum the result is log1p(s / m) + log(m) + max.  Returns
    shape x.shape[:-1].
    """
    mx = x.max(axis=-1, keepdims=True)
    top = x == mx
    m = np.count_nonzero(top, axis=-1).astype(np.float64)
    x[top] = -np.inf
    x -= mx
    np.exp(x, out=x)
    s = x.sum(axis=-1)
    s /= m
    return np.log1p(s) + np.log(m) + mx[..., 0]
