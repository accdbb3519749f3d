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


_ROW_BLOCK = 256  # row block of the batch passes over the data: bounds their scratch memory
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
    ``fn(0, stop)`` alone.  Both parts run with numpy's OpenBLAS at one
    thread (``_one_blas_thread``), so their GEMMs round alike whatever the
    environment numpy was imported under.  The worker's part is waited for
    in a ``finally``, so no write outlives the call, even when either part
    raises.  ``fn`` must run only numpy, never a public truncmix name, so
    that a tracer wrapping those names sees every call on the calling thread.
    """
    lib = _openblas()
    if lib is not None and lib.scipy_openblas_get_num_threads64_() != 1:
        with _one_blas_thread():
            _on_two_threads(fn, split, stop)
        return
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
    padded with zero rows to a full one: each row of ``out`` then depends on
    its own row of ``a`` and on ``b`` alone, not on the size of its batch.
    """
    m = len(a)
    if m == _ROW_BLOCK:
        np.matmul(a, b, out=out)
        return
    full = np.zeros((_ROW_BLOCK, a.shape[1]))
    full[:m] = a
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
    """Run the block with numpy's OpenBLAS at one thread and restore the
    caller's count afterwards, whatever the environment held when numpy was
    first imported.  Yields the thread count in force, or None where the
    setter is missing and the count is left as it is."""
    lib = _openblas()
    if lib is None:
        yield None
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield lib.scipy_openblas_get_num_threads64_()
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def _check_finite(I: np.ndarray):
    # Every entry is finite exactly when the max and the min are (a NaN
    # propagates to both), so no boolean array is needed.
    if I.size and not (np.isfinite(I.max()) and np.isfinite(I.min())):
        raise DataError("non-finite log activation (W must be positive, y finite)")


def integrate(W: BottomWeights, y: np.ndarray) -> np.ndarray:
    """Log-domain input integration: I_c = sum_d log(W_cd) * y_d.

    ``y`` may be a single D-vector or an (N, D) batch; returns (C,) or (N, C).
    log W is computed once.  A batch runs one GEMM per ``_ROW_BLOCK``-row
    block into one (N, C) output, split between two threads where there is
    a worker and serial otherwise; a row split of one GEMM need not round as
    the whole GEMM does, so the blocks are fixed and a short last block is
    padded to a full one (``_block_matmul``).  A point's activations then
    depend neither on the CPU count nor on the size of its batch.  Each
    block is checked for finiteness while it is in cache.
    """
    with np.errstate(divide="ignore"):
        logw = np.log(W.W)
    if y.ndim != 2:
        I = y @ logw.T
        _check_finite(I)
        return I
    I = np.empty((len(y), W.C))

    def block(lo, hi):
        _block_matmul(y[lo:hi], logw.T, I[lo:hi])
        _check_finite(I[lo:hi])

    _row_blocks(block, len(y))
    return I


def select_truncation(I: np.ndarray, c_prime: int) -> np.ndarray:
    """Indices of the ``c_prime`` largest entries along the last axis.

    Ties go to the smaller index and the indices are ascending, so the
    result is a deterministic function of I, of shape I.shape[:-1] +
    (c_prime,).  One ``argpartition`` gives each row's top set and its
    threshold (the c_prime-th largest value).  When no row has an entry
    outside its top set equal to the threshold, the sets are unique and are
    returned sorted; otherwise the first c_prime of a stable descending sort
    are.  A 2-D batch is selected per ``_ROW_BLOCK``-row block, on two
    threads where there is a worker, into one compact (N, c_prime) array;
    a block's sets depend only on its own rows.  At
    c_prime == C the result is a read-only ``arange(C)``, broadcast to a
    batch's shape.
    """
    C = I.shape[-1]
    if not 1 <= c_prime <= C:
        raise ValueError(f"c_prime must lie in [1, {C}], got {c_prime}")
    if c_prime == C:
        full = np.arange(C)
        full.flags.writeable = False
        return full if I.ndim == 1 else np.broadcast_to(full, I.shape)
    if I.ndim != 2:
        return _select(I, c_prime)
    sets = np.empty((len(I), c_prime), dtype=np.intp)

    def block(lo, hi):
        sets[lo:hi] = _select(I[lo:hi], c_prime)

    _row_blocks(block, len(I))
    return sets


def _select(I: np.ndarray, c_prime: int) -> np.ndarray:
    """``select_truncation`` of one vector or one block of rows, 1 <= c_prime < C."""
    C = I.shape[-1]
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
    within a support exceed the float64 exponent range.  A batch is
    gathered and normalized per ``_ROW_BLOCK``-row block, on two threads
    where there is a worker, into one (N, C') output.
    """
    if sets.min() < 0 or sets.max() >= I.shape[-1]:
        raise ValueError("support indices out of range")
    if I.ndim == sets.ndim == 1:
        return softmax_inplace(I[sets])
    if I.ndim != 2:
        return softmax_inplace(np.take_along_axis(I, sets, axis=-1))
    probs = np.empty(sets.shape)

    def block(lo, hi):
        out = probs[lo:hi]
        out[...] = np.take_along_axis(I[lo:hi], sets[lo:hi], axis=-1)
        softmax_inplace(out)

    _row_blocks(block, len(I))
    return probs


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
