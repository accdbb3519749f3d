"""Bottom-layer inference for the normalized Poisson mixture.

Given a normalized observation y (sum_d y_d = A, y_d >= 1) and positive rate
rows W_c (sum_d W_cd = A), the cluster log joint is

    log p(c, y) = -log C + sum_d [ y_d log W_cd - W_cd - lgamma(y_d + 1) ]

Because the -sum_d W_cd and -sum_d lgamma(y_d + 1) terms are constant across
clusters, ranking clusters by log joint is the same as ranking them by the
linear activation I_c = sum_d log(W_cd) * y_d.  Truncated inference keeps the
C' largest activations and renormalizes the posterior on that support.

All functions here are pure and operate on the last axis, so a single call
handles one observation or a whole batch.
"""

import numpy as np
from scipy.special import gammaln

from .core import BottomWeights, DataError


_SELECT_BLOCK = 256  # rows per block of a batch select: bounds its scratch memory


def _weights_array(W) -> np.ndarray:
    return W.W if isinstance(W, BottomWeights) else np.asarray(W, dtype=np.float64)


def _reject_rows(bad: np.ndarray, what: str):
    """Raise DataError if any entry of ``bad`` is set, naming the first
    offending row of a batch."""
    if not np.any(bad):
        return
    if bad.ndim == 1:
        raise DataError(what)
    first = int(np.nonzero(bad.any(axis=-1).ravel())[0][0])
    raise DataError(f"{what} at index {first}")


def normalize_input(raw, A: float) -> np.ndarray:
    """Rescale nonnegative raw intensities to a fixed mass A.

    y_d = (A - D) * raw_d / sum(raw) + 1, applied along the last axis.  The
    output sums to A and every component is >= 1, which keeps Poisson rates
    learned from such data strictly positive.
    """
    raw = np.asarray(raw, dtype=np.float64)
    D = raw.shape[-1]
    if A <= D:
        raise DataError("A must exceed D")
    _reject_rows(~np.isfinite(raw), "raw input has non-finite components")
    _reject_rows(raw < 0.0, "raw input has negative components")
    total = raw.sum(axis=-1, keepdims=True)
    _reject_rows(total <= 0.0, "degenerate input: zero total mass")
    return (A - D) * raw / total + 1.0


def integrate(W, y) -> np.ndarray:
    """Log-domain input integration: I_c = sum_d log(W_cd) * y_d.

    ``y`` may be a single D-vector or an (N, D) batch; returns (C,) or (N, C).
    """
    Wm = _weights_array(W)
    with np.errstate(divide="ignore"):
        I = np.asarray(y, dtype=np.float64) @ np.log(Wm).T
    if not np.all(np.isfinite(I)):
        raise DataError("non-finite log activation (W must be positive, y finite)")
    return I


def select_truncation(I, c_prime: int) -> np.ndarray:
    """Indices of the ``c_prime`` largest entries along the last axis.

    Ties go to the smaller index and the indices are ascending, so the
    result is a deterministic function of I, of shape I.shape[:-1] +
    (c_prime,).  One ``argpartition`` gives each row's top set and its
    threshold (the c_prime-th largest value).  When no row has an entry
    outside its top set equal to the threshold, the sets are unique and are
    returned sorted; otherwise a tie rule fills the slots left above the
    threshold with its smallest-index equals.  A 2-D batch is selected in
    blocks of ``_SELECT_BLOCK`` rows and returned as one compact array.
    """
    I = np.asarray(I)
    C = I.shape[-1]
    if not 1 <= c_prime <= C:
        raise ValueError(f"c_prime must lie in [1, {C}], got {c_prime}")
    if c_prime == C:
        idx = np.arange(C)
        if I.ndim == 1:
            return idx
        return np.broadcast_to(idx, I.shape).copy()
    if I.ndim == 2 and len(I) > _SELECT_BLOCK:
        return np.concatenate([select_truncation(I[i:i + _SELECT_BLOCK], c_prime)
                               for i in range(0, len(I), _SELECT_BLOCK)])
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
    above = I > thresh
    at = I == thresh
    need = c_prime - above.sum(axis=-1, keepdims=True)
    keep = above | (at & (np.cumsum(at, axis=-1) <= need))
    # Flat positions mod C: a compact array, unlike np.nonzero's last row,
    # which is a view of its (ndim, n*c_prime) index buffer.
    idx = np.flatnonzero(keep) % C
    return idx.reshape(I.shape[:-1] + (c_prime,))


def truncated_posterior(I, sets) -> np.ndarray:
    """Softmax of ``I`` restricted to ``sets``, in the log domain.

    ``sets`` indexes the last axis of ``I``: a 1-D support for one
    observation or an (N, C') matrix for a batch.  Each support holds
    distinct indices, as ``select_truncation`` returns them.  The result is
    aligned with ``sets``; entries may underflow to 0.0 when activation gaps
    within a support exceed the float64 exponent range.
    """
    I = np.asarray(I, dtype=np.float64)
    sets = np.asarray(sets, dtype=np.intp)
    if sets.min() < 0 or sets.max() >= I.shape[-1]:
        raise ValueError("support indices out of range")
    if I.ndim == sets.ndim == 1:
        picked = I[sets]
    else:
        picked = np.take_along_axis(I, sets, axis=-1)
    p = np.exp(picked - picked.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    return p


def log_joint(W_row, y, C: int) -> float:
    """log p(c, y) for one cluster row under a uniform 1/C cluster prior.

    Normalized inputs are real-valued, so the Poisson mass function is
    evaluated through its continuous extension: log(y!) -> lgamma(y + 1).
    """
    W_row = np.asarray(W_row, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return float(
        -np.log(C)
        + np.dot(y, np.log(W_row))
        - W_row.sum()
        - gammaln(y + 1.0).sum()
    )

