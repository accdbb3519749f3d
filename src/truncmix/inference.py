"""Inference for the normalized Poisson mixture: cluster and class posteriors.

Given a normalized observation y (sum_d y_d = A, y_d >= 1) and positive rate
rows W_c (sum_d W_cd = A), the cluster log joint is

    log p(c, y) = -log C + sum_d [ y_d log W_cd - W_cd - lgamma(y_d + 1) ]

Because the -sum_d W_cd and -sum_d lgamma(y_d + 1) terms are constant across
clusters, ranking clusters by log joint is the same as ranking them by the
linear activation I_c = sum_d log(W_cd) * y_d.  Truncated inference keeps the
C' largest activations and renormalizes the posterior s on that support.
The class posterior mixes R's columns, normalized over the K classes, by s:

    t_k = sum_c [ R_kc / sum_k' R_k'c ] * s_c        (unlabeled)
    t_k = 1[k == label]                              (labeled)

``integrate`` takes an (N, D) batch and ``truncated_posterior`` one
observation; the others work along the last axis of either.  All but the
two ``*_inplace`` functions are pure.

A 2-D batch pass runs in fixed blocks of ``_ROW_BLOCK`` rows.  Where the
process may run on at least 2 CPUs, the calling thread takes the first half
of the blocks and one module-level worker thread the rest
(``_on_two_threads``); the blocks, not the CPU count, define the result.
"""

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

from .core import BottomWeights, DataError


# Row block of the batch passes: bounds their scratch memory.  252 = 21 tiles of 12 rows:
# OpenBLAS 0.3.31's SkylakeX DGEMM rounds every row alike at any C only at 8 or 12k rows
# (rotating the rows of a C=401 GEMM moved bits at every other count in 8-396, 256 too).
_ROW_BLOCK = 252
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _start_worker():
    """One worker thread for the second part of a split pass, where the
    process may run on at least 2 CPUs.  It runs numpy and scipy.sparse
    kernels, which release the GIL, and its BLAS calls run on one BLAS
    thread under the package's pin, so a split pass uses two CPUs.  Its
    thread starts at the first submit, not here.  A forked child inherits
    the pool but not its thread, so it gets a pool of its own."""
    global _WORKER
    _WORKER = ThreadPoolExecutor(max_workers=1) if _CPUS >= 2 else None


_start_worker()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_start_worker)


def _on_two_threads(fn, split: int, stop: int):
    """Run ``fn(0, split)`` on this thread and ``fn(split, stop)`` on the worker.

    Without a worker, or when either part is empty, this thread runs
    ``fn(0, stop)`` alone.  Both parts run under ``_one_blas_thread``.  The
    worker's part is waited for in a ``finally``, so no write outlives the
    call, even when either part raises.  ``fn`` must run only numpy, never a
    public truncmix name, so that a tracer wrapping those names sees every
    call on the calling thread.
    """
    with _one_blas_thread():
        if _WORKER is None or not 0 < split < stop:
            fn(0, stop)
            return
        other = _WORKER.submit(fn, split, stop)
        try:
            fn(0, split)
        finally:
            other.result()


def _row_blocks(kernel, n: int):
    """Call ``kernel(lo, hi)`` on each ``_ROW_BLOCK``-row block of ``n`` rows,
    the first half of the blocks on this thread and the rest on the worker."""
    def run(lo, hi):
        for b in range(lo, hi, _ROW_BLOCK):
            kernel(b, min(b + _ROW_BLOCK, hi))

    blocks = -(-n // _ROW_BLOCK)
    _on_two_threads(run, (blocks + 1) // 2 * _ROW_BLOCK, n)


def _block_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray):
    """``out[...] = a @ b`` for one block of at most ``_ROW_BLOCK`` rows of ``a``.

    A GEMM rounds a row alike only at equal row counts, so a short block is
    padded to a full one with copies of its first row, which raise no
    floating-point flag it does not (zero rows give 0 * -inf where ``log W``
    holds -inf), and a full block rounds all its rows alike: each row of
    ``out`` depends on its own row of ``a`` and on ``b`` alone.
    """
    m = len(a)
    if m == _ROW_BLOCK:
        np.matmul(a, b, out=out)
        return
    full = np.empty((_ROW_BLOCK, a.shape[1]))
    full[:m] = a
    full[m:] = a[0]
    out[...] = (full @ b)[:m]


@functools.cache
def _openblas():
    """numpy's OpenBLAS among the loaded libraries, if it exports
    ``scipy_openblas_set_num_threads64_``; otherwise None."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line and "/" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            lib.scipy_openblas_get_num_threads64_.argtypes = []
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            return lib
    return None


@contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS at one thread, whatever the
    environment held at numpy's first import, and restore the caller's count
    afterwards (where the setter is missing the count is left as it is).
    Only the two homes of truncmix's BLAS work take it: each split pass
    (``_on_two_threads``) and each ``learning.online_epoch``."""
    lib = _openblas()
    if lib is None:
        yield
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def _check_batch(W: BottomWeights, Y: np.ndarray):
    """ValueError unless ``Y`` is an (N, D) batch with the D of ``W``."""
    if Y.ndim != 2:
        raise ValueError(f"Y must be an (N, D) batch, got shape {Y.shape}")
    if Y.shape[1] != W.D:
        raise ValueError(f"Y has D={Y.shape[1]}, W has D={W.D}")


def _activation_blocks(W: BottomWeights, Y: np.ndarray, consume, out=None):
    """Hand each ``_ROW_BLOCK``-row block's activations to ``consume(lo, hi, I)``
    through ``_row_blocks``.  log W is taken once.  Each block's padded GEMM
    (``_block_matmul``) goes into a block of its own, which ``consume`` may
    overwrite, or into ``out[lo:hi]``, and is checked while in cache.  A
    ``Y`` that is not an (N, D) batch of W's D raises ValueError."""
    _check_batch(W, Y)
    with np.errstate(divide="ignore"):
        logw = np.log(W.W)

    def block(lo, hi):
        I = np.empty((hi - lo, W.C)) if out is None else out[lo:hi]
        _block_matmul(Y[lo:hi], logw.T, I)
        # Every entry is finite exactly when the max and the min are (a
        # NaN propagates to both), so no boolean array is needed.
        if I.size and not (np.isfinite(I.max()) and np.isfinite(I.min())):
            raise DataError("non-finite log activation (W must be positive, y finite)")
        consume(lo, hi, I)

    _row_blocks(block, len(Y))


def integrate(W: BottomWeights, Y: np.ndarray) -> np.ndarray:
    """Log-domain input integration: I_nc = sum_d log(W_cd) * Y_nd.

    ``Y`` is an (N, D) batch; returns (N, C), which ``_activation_blocks``
    writes block by block.  Its blocks are fixed and padded, so a point's
    activations depend on neither the CPU count nor its batch."""
    I = np.empty((len(Y), W.C))
    _activation_blocks(W, Y, lambda lo, hi, block: None, out=I)
    return I


def select_truncation(I: np.ndarray, c_prime: int) -> np.ndarray:
    """Indices of the ``c_prime`` largest entries of a C-vector, or of each
    row of an (N, C) batch; any other shape raises ValueError.

    Ties go to the smaller index and the indices are ascending, so the
    result is a deterministic function of I.  I must be NaN-free, as every
    caller checks (a NaN would rank below every number, as in a stable sort
    of -I).  One ``np.partition``, which moves values only, gives each row's
    threshold (its c_prime-th largest value), and the entries at or above it
    are taken in index order.  When every row has exactly c_prime of them,
    the sets are unique and are returned as they are; otherwise the first
    c_prime of a stable descending sort are.  A batch is selected per
    ``_ROW_BLOCK``-row block, on two threads where there is a worker, into
    one compact (N, c_prime) array; a block's sets depend only on its own
    rows.  At c_prime == C the result is a read-only ``arange(C)``,
    broadcast to a batch's shape, and I is not read.
    """
    if I.ndim not in (1, 2):
        raise ValueError(f"one point's (C,) activations or an (N, C) batch, got {I.shape}")
    C = I.shape[-1]
    if not 1 <= c_prime <= C:
        raise ValueError(f"c_prime must lie in [1, {C}], got {c_prime}")
    if c_prime == C:
        full = np.arange(C)
        full.flags.writeable = False
        return full if I.ndim == 1 else np.broadcast_to(full, I.shape)
    if I.ndim == 1:
        return _select(I, c_prime)
    sets = np.empty((len(I), c_prime), dtype=np.intp)

    def block(lo, hi):
        sets[lo:hi] = _select(I[lo:hi], c_prime)

    _row_blocks(block, len(I))
    return sets


def _select(I: np.ndarray, c_prime: int) -> np.ndarray:
    """``select_truncation`` of one vector or one block of rows, 1 <= c_prime < C."""
    C = I.shape[-1]
    thresh = np.partition(I, C - c_prime, axis=-1)[..., C - c_prime, None]
    hits = (I >= thresh).ravel().nonzero()[0]
    if I.ndim == 1:
        if hits.size == c_prime:
            return hits
    elif hits.size == len(I) * c_prime:
        # The hits ascend, so every row holds exactly c_prime of them when
        # each run of c_prime starts and ends in its own row (a row with a
        # NaN may hold fewer and leave the count right).
        sets = hits.reshape(-1, c_prime)
        sets -= np.arange(0, I.size, C)[:, None]
        if sets[:, 0].min() >= 0 and sets[:, -1].max() < C:
            return sets
    # A stable sort of -I puts larger values first and equal ones in index order.
    return np.sort(np.argsort(-I, axis=-1, kind="stable")[..., :c_prime], axis=-1)


def _full_support(s, C: int) -> bool:
    """Whether the support ``s`` holds every cluster in order: ``arange(C)``, or
    its rows repeated by a zero row stride, as ``select_truncation`` gives it at C'=C."""
    row = s[0] if s.ndim == 2 and len(s) and s.strides[0] == 0 else s
    return row.shape == (C,) and np.array_equal(row, np.arange(C))


def _check_support_range(s, C: int):
    """ValueError unless every index of the support ``s`` lies in [0, C); a zero
    leading stride repeats one entry or row, so only that one is read."""
    rows = s[:1] if s.strides[0] == 0 else s
    if rows.size and (rows.min() < 0 or rows.max() >= C):
        raise ValueError("support indices out of range")


def _gather_support(I: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Each row of an activation block ``I`` on its row of the support ``s``: ``I``
    itself at an untruncated support (``_full_support``), else a gathered copy."""
    if _full_support(s, I.shape[1]):
        return I
    # One flat take: row r's support s[r] sits at r * C + s[r] of the block.
    return np.take(I.ravel(), s + np.arange(0, I.size, I.shape[1])[:, None])


def truncated_posterior(I: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Softmax of one observation's activations ``I`` restricted to ``sets``,
    in the log domain.

    ``I`` is a C-vector and ``sets`` a 1-D support of distinct indices into
    it, as ``select_truncation`` returns them; an empty or 2-D ``sets`` or a
    2-D ``I`` raises ValueError (a batch would index into an (N, C', C)
    array).  The result is aligned with ``sets``; entries may underflow to
    0.0 when activation gaps within the support exceed the float64 exponent range.
    """
    if I.ndim != 1 or sets.ndim != 1:
        raise ValueError(f"one point's activations and support, got {I.shape} and {sets.shape}")
    if not sets.size:
        raise ValueError("empty support: a posterior needs at least one index")
    _check_support_range(sets, len(I))
    return softmax_inplace(I[sets])


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
