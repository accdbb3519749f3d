"""Online Hebbian updates and batch truncated variational EM.

Two training regimes share the same inference path:

* ``online_epoch`` visits data points one at a time and nudges both weight
  layers with per-sample Hebbian steps.  Cheap, approximate, no monotonicity
  guarantee.
* ``run_tv_em`` alternates a truncation-set E-step with a closed-form M-step
  on the bottom layer.  Every E- and M-step provably increases the free
  energy

      F(sets, W) = sum_n log( sum_{c in set_n} p(c, y_n | W) ),

  which lower-bounds the data log-likelihood; the trace is machine-checked
  and a decrease beyond numerical slack raises MonotonicityError.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .core import BottomWeights, DataError, ModelConfig, MonotonicityError, TopWeights
from .data import Dataset, UNLABELED
from .inference import (
    _activation_blocks, _check_batch, _check_support_range, _full_support, _gather_support,
    _on_two_threads, _one_blas_thread, _select, bvsb, class_activation, integrate,
    logsumexp_inplace, normalized_columns, select_truncation, softmax_inplace, truncated_posterior,
)

MONOTONE_RSLACK = 1e-8
_REFRESH = 32  # chosen rows per bound refresh of init_from_data
_INTEGRATE_BLOCK = 16  # samples per integrate GEMM of online_epoch below C'=C


@dataclass
class FreeEnergyTrace:
    """Sequence of (iteration, free energy) pairs with increasing indices."""

    entries: list = field(default_factory=list)

    def append(self, iteration: int, value: float):
        if self.entries and iteration <= self.entries[-1][0]:
            raise ValueError("iteration indices must be strictly increasing")
        self.entries.append((int(iteration), float(value)))

    def assert_monotone(self):
        for (_, a), (it, b) in zip(self.entries, self.entries[1:]):
            if not b >= a - MONOTONE_RSLACK * abs(a):  # a NaN at either end fails too
                raise MonotonicityError(
                    f"free energy fell from {a!r} to {b!r} at trace index {it}"
                )


def _update_rows(
    w: np.ndarray, logw: np.ndarray, es: np.ndarray, y: np.ndarray, Y_later: np.ndarray,
    I_later: np.ndarray,
):
    """The bottom step on the rows ``w``, in place, their logs into ``logw``
    and the later points' activations of these rows into ``I_later``.

    Every element gets the same IEEE operations whatever the rows; the
    product reads only the rows this call has just written.
    """
    w *= (1.0 - es)[:, None]
    np.einsum("i,j->ij", es, y, out=logw)  # bit-identical to es[:, None] * y
    w += logw
    np.log(w, out=logw)
    np.matmul(Y_later, logw.T, out=I_later)


def update_bottom(
    W: BottomWeights, logw: np.ndarray, support: np.ndarray, probs: np.ndarray, y: np.ndarray,
    eps_W: float, Y_later: np.ndarray, I_later: np.ndarray,
) -> None:
    """One Hebbian step on the bottom layer, in place, with its ``log W`` refresh;
    returns nothing.

    W_cd <- (1 - eps*s_c) W_cd + eps*s_c * y_d for the support rows only,
    where ``probs`` holds s on ``support`` (distinct indices); rows outside
    the support are untouched.  Row sums are conserved because both y and
    every W row carry the same mass A.  ``logw`` holds log(W) and gets the
    logs of the written rows; the later points ``Y_later`` (m, D), m >= 0,
    get ``I_later[:, support] = Y_later @ log W[support].T`` in their
    activations ``I_later`` (m, C), and no other column.

    One kernel, ``_update_rows``, runs the step at every C': below full
    support on the gathered support rows, then scattered back with their
    logs and activations; at full support in place, split at h = C//2
    rounded down to a multiple of 16 by ``inference._on_two_threads``, the
    calling thread doing rows [0, h) while a worker does rows [h, C), each
    half with the refresh of its own columns while its rows are in cache.
    W and ``log W`` are bit-identical to the serial step, and for one later
    point the activations to the one-row GEMM under the one-thread BLAS pin:
    a matvec split at a multiple of 16 rounds each row as the whole matvec
    does, which a split at C//2 need not.  The caller waits for the worker's
    half in a ``finally``, so no write outlives the call, even when a half raises.
    """
    if eps_W * probs.max() > 1.0:
        raise ValueError("eps_W * max(s) must not exceed 1")
    w = W.W
    es = eps_W * probs
    C = w.shape[0]
    if _full_support(support, C):
        # Views, so each half writes W, log W and the activations in place.
        _on_two_threads(lambda lo, hi: _update_rows(
            w[lo:hi], logw[lo:hi], es[lo:hi], y, Y_later, I_later[:, lo:hi]), C // 2 // 16 * 16, C)
    else:
        rows = w.take(support, axis=0)
        log_rows, I_rows = np.empty_like(rows), np.empty((len(I_later), support.size))
        _update_rows(rows, log_rows, es, y, Y_later, I_rows)
        w[support], logw[support], I_later[:, support] = rows, log_rows, I_rows


def update_top(
    R: TopWeights, t: np.ndarray, support: np.ndarray, probs: np.ndarray, eps_R: float
) -> None:
    """One Hebbian step on the top layer, in place; returns nothing.

    R_kc <- R_kc + eps*t_k*(s_c - R_kc), where ``probs`` holds s on
    ``support`` (distinct indices).  The decay term is dense in c (zero s_c
    outside the support still shrinks R_kc); only the additive term is
    sparse.  Row sums are conserved since both s and R rows sum to 1.
    """
    if eps_R * t.max() > 1.0:
        raise ValueError("eps_R * max(t) must not exceed 1")
    r = R.R
    et = eps_R * t
    hit = np.flatnonzero(et)
    if hit.size == 1:
        # A one-hot t (every labeled sample) leaves the other rows exactly as
        # the dense step would: scaled by 1.0, plus 0.0.
        k = hit[0]
        r[k] *= 1.0 - et[k]
        r[k, support] += et[k] * probs
    else:
        r *= (1.0 - et)[:, None]
        r[:, support] += np.outer(et, probs)


def _support_lse(I, s, row_sums, lgamma_sums, probs=None) -> np.ndarray:
    """Per row of a block of activations ``I``, the log-sum-exp of the joints
    on its support ``s``; given ``probs``, its truncated posterior goes there.

    The joints are gathered by ``inference._gather_support``: at a full
    support they are ``I`` itself, which this overwrites."""
    joints = _gather_support(I, s)
    offsets = row_sums if joints is I else np.take(row_sums, s)
    if probs is not None:
        probs[...] = joints
        softmax_inplace(probs)
    # Joints differ from activations only by terms constant across clusters
    # (row sums all equal A, lgamma term depends on the point alone).
    joints -= offsets
    joints -= lgamma_sums[:, None]
    joints -= np.log(len(row_sums))
    return logsumexp_inplace(joints)


def free_energy(Y, W: BottomWeights, sets, lgamma_sums) -> float:
    """Truncated free energy: per point, log-sum-exp of the support joints.

    ``sets`` must be an (N, C') index matrix in [0, C) and ``lgamma_sums`` an
    (N,) vector of sum_d lgamma(y_d + 1) per row of ``Y``, as in
    ``Dataset.lgamma_sums``, or ValueError is raised.  No points give 0.0.
    Each row block of activations is reduced in cache
    (``inference._activation_blocks``), in place at C'=C's broadcast sets
    (``_support_lse``); the per-point vector is summed once, in order."""
    if sets.ndim != 2 or len(sets) != len(Y):
        raise ValueError(f"sets {sets.shape} must be an (N={len(Y)}, C') index matrix")
    _check_support_range(sets, W.C)
    if np.shape(lgamma_sums) != (len(Y),):
        raise ValueError(f"lgamma_sums {np.shape(lgamma_sums)} must be (N={len(Y)},)")
    row_sums = W.W.sum(axis=1)
    per_point = np.empty(len(sets))

    def block(lo, hi, I):
        per_point[lo:hi] = _support_lse(I, sets[lo:hi], row_sums, lgamma_sums[lo:hi])

    _activation_blocks(W, Y, block)
    return float(per_point.sum())


def _tv_em_pass(Y, W: BottomWeights, c_prime: int, lgamma_sums, prev_sets=None):
    """One TV-EM pass at ``W``, each row block reduced in cache: returns the
    E-step ``(sets, probs, F(sets, W))`` and F(prev_sets, W), or None without
    ``prev_sets``.  Bit for bit, these are ``select_truncation`` (at C'=C a
    broadcast ``arange(C)``), ``truncated_posterior`` per row and ``free_energy``.
    A full support's reduction overwrites the block (``_support_lse``), so it
    runs last; at C'=C with full ``prev_sets`` both F are one reduction."""
    N, C = len(Y), W.C
    if not 1 <= c_prime <= C:
        raise ValueError(f"c_prime must lie in [1, {C}], got {c_prime}")
    if np.shape(lgamma_sums) != (N,):
        raise ValueError(f"lgamma_sums {np.shape(lgamma_sums)} must be (N={N},)")
    row_sums = W.W.sum(axis=1)
    sets = (np.broadcast_to(np.arange(C), (N, C)) if c_prime == C
            else np.empty((N, c_prime), dtype=np.intp))
    probs, f, f_prev = np.empty((N, c_prime)), np.empty(N), np.empty(N)
    prev_full = prev_sets is not None and _full_support(prev_sets, C)

    def block(lo, hi, I):
        lg = lgamma_sums[lo:hi]
        if c_prime < C:
            sets[lo:hi] = _select(I, c_prime)
        if prev_sets is not None and not prev_full:
            f_prev[lo:hi] = _support_lse(I, prev_sets[lo:hi], row_sums, lg)
        f[lo:hi] = _support_lse(I, sets[lo:hi], row_sums, lg, probs[lo:hi])
        if prev_full:
            f_prev[lo:hi] = (f[lo:hi] if c_prime == C
                             else _support_lse(I, prev_sets[lo:hi], row_sums, lg))

    _activation_blocks(W, Y, block)
    f_prev = None if prev_sets is None else float(f_prev.sum())
    return (sets, probs, float(f.sum())), f_prev


def batch_e_step(Y, W: BottomWeights, c_prime: int) -> np.ndarray:
    """Per-point truncation sets holding the clusters of largest log joint.

    ``Y`` is an (N, D) batch; returns an (N, c_prime) index matrix.  Among
    all equal-size supports this choice maximizes the free energy at fixed
    weights, because the log joint ranking equals the activation ranking for
    mass-normalized rows.  At C'=C every set holds all C clusters, whatever
    the activations, so none are computed: ``select_truncation`` gets a
    zero-stride stand-in of their shape.
    """
    _check_batch(W, Y)
    I = integrate(W, Y) if c_prime != W.C else np.broadcast_to(0.0, (len(Y), W.C))
    return select_truncation(I, c_prime)


def batch_m_step(Y, posteriors, prev_W: BottomWeights) -> tuple[BottomWeights, int]:
    """Closed-form bottom-layer M-step from truncated posteriors.

    W_cd = sum_n s_c y_d / sum_n s_c, with the mass A of ``prev_W``.  Rows that received
    zero total responsibility keep their ``prev_W`` values; their count is returned as a
    diagnostic.  Unless ``Y`` is an (N, D) batch of prev_W's D and ``posteriors`` a (supports,
    probs) pair of (N, C') matrices with supports in [0, C), ValueError is raised.

    S.T @ Y runs over a point-major sparse S, so the M-step costs O(N*C'*D),
    not the O(N*C*D) of a dense S: 16.5 against 38 ms at C'=15, N=6000,
    C=400, D=784, one thread on a 2-core x86-64 VM with OpenBLAS 0.3.31.
    Above about C'=40 a dense GEMM is faster (38 against 52 ms at C'=50);
    at C'=C's broadcast supports (``_full_support``) S is ``probs`` itself.
    W's C rows are two fixed halves, one per thread where there is a
    worker, each the product of S's columns for its clusters with the whole
    Y, so W does not depend on the thread count, and no copy of Y is made.
    """
    _check_batch(prev_W, Y)
    supports, probs = posteriors
    N, C = len(Y), prev_W.C
    if supports.ndim != 2 or supports.shape != probs.shape or len(supports) != N:
        raise ValueError(
            f"supports {supports.shape} and probs {probs.shape} must both be (N={N}, C')")
    _check_support_range(supports, C)
    if not np.allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-9):
        raise ValueError("every posterior must sum to 1")
    # Truncated expectations: S holds s_c per point, zero off the support.
    if _full_support(supports, C):
        S, s_sum = probs, probs.sum(axis=0)
    else:
        from scipy.sparse import csr_array  # here, so only a TV-EM run loads scipy
        indptr = np.arange(N + 1) * supports.shape[1]
        S = csr_array((probs.ravel(), supports.ravel(), indptr), shape=(N, C))
        s_sum = np.bincount(supports.ravel(), weights=probs.ravel(), minlength=C)
    alive = s_sum > 0.0
    W_new = np.empty((C, Y.shape[1]))
    half = (C + 1) // 2

    def rows(lo, hi):
        # A dense GEMM may round a row differently in a product of another height.
        for b in range(lo, hi, half):
            W_new[b : b + half] = S[:, b : b + half].T @ Y

    _on_two_threads(rows, half, C)
    np.divide(W_new, s_sum[:, None], out=W_new, where=alive[:, None])
    dead = np.flatnonzero(~alive)
    W_new[dead] = prev_W.W[dead]
    return BottomWeights(W_new, prev_W.A), int(dead.size)


def init_weights(
    cfg: ModelConfig, Y: np.ndarray, rng: np.random.Generator
) -> tuple[BottomWeights, TopWeights]:
    """Starting weights for online training: C distinct rows of the
    normalized data ``Y`` as the bottom layer, a uniform 1/C top layer.

    Pure function of (cfg, Y, rng state).
    """
    # Seed each template with a distinct observation: normalized rows already
    # sum to A and are >= 1.  Starting all rows at the (noisy) data mean
    # instead leaves the templates nearly interchangeable, and under
    # truncated winner-take-most updates roughly half of them never enter a
    # support again -- measurably worse final error at equal budget.
    W = BottomWeights(Y[rng.choice(Y.shape[0], size=cfg.C, replace=False)], cfg.A)
    R = TopWeights(np.full((cfg.K, cfg.C), 1.0 / cfg.C))
    return W, R


def init_from_data(Y, n_clusters: int, A: float, rng: np.random.Generator) -> BottomWeights:
    """Greedy farthest-point initialization for batch EM.

    Picks one observation at random, then repeatedly adds the observation
    with the largest L1 distance to its nearest chosen row.  Rows are actual
    normalized observations, so they are positive and sum to A.  With
    well-separated data this covers every mixture component, which a
    uniform random choice of rows cannot guarantee.

    The distances are refreshed lazily.  ``bound[n]`` is point n's L1
    distance to the nearest of the first ``seen[n]`` chosen rows, so it never
    lies below the distance to all of them.  The point with the largest
    bound is refreshed against the next chosen rows until its bound is
    current; then it is the farthest point.  Bounds only fall and ``min`` is
    exact, so a tie goes to the smaller index, as ``np.argmax`` over the
    exact distances gives it: the rows are bit-identical to an eager loop.
    """
    N, D = Y.shape
    if not 0 < n_clusters <= N:
        raise ValueError(f"need 1 to N={N} clusters, one observation each, got {n_clusters}")
    W = np.empty((n_clusters, D))
    W[0] = Y[rng.integers(0, N)]
    bound = np.full(N, np.inf)
    seen = np.zeros(N, dtype=np.intp)
    buf = np.empty((_REFRESH, D))
    for k in range(1, n_clusters):
        while seen[n := int(np.argmax(bound))] < k:
            lo = seen[n]
            b = buf[: min(k - lo, _REFRESH)]
            np.abs(np.subtract(W[lo : lo + len(b)], Y[n], out=b), out=b)
            bound[n] = min(bound[n], b.sum(axis=1).min())
            seen[n] = lo + len(b)
        W[k] = Y[n]
    return BottomWeights(W, A)


def tv_em_iteration(
    Y, W: BottomWeights, E, c_prime: int, lgamma_sums
) -> tuple[BottomWeights, tuple, float, float, int]:
    """One batch EM iteration: refit the support rows, then re-select sets.

    ``E = (sets, probs, F(sets, W))`` is the E-step at ``W``; one pass at
    W_new (``_tv_em_pass``) gives F(sets, W_new) and the next E-step.
    Returns (W_new, E_new, F(sets, W), F(sets, W_new), dead clusters)."""
    sets, probs, f_e = E
    W_new, dead = batch_m_step(Y, (sets, probs), W)
    E_new, f_m = _tv_em_pass(Y, W_new, c_prime, lgamma_sums, sets)
    return W_new, E_new, f_e, f_m, dead


def run_tv_em(
    Y,
    W: BottomWeights,
    c_prime: int,
    n_iter: int,
    lgamma_sums,
    check_monotone: bool = True,
) -> tuple[BottomWeights, FreeEnergyTrace]:
    """Run batch EM for ``n_iter`` iterations with a machine-checked trace.

    The trace interleaves F(sets_t, W_{t-1}) and F(sets_t, W_t); both steps
    must increase F, so the whole sequence is checked for monotonicity and a
    violation raises MonotonicityError rather than passing silently.  Each
    weight state is integrated once, in row blocks reduced in cache, so the
    run holds O(N*C') state, no (N, C) activation matrix.  Every pass is a
    split pass under the one-thread BLAS pin, ``inference._one_blas_thread``.
    """
    if len(Y) == 0:
        raise DataError("training set is empty")
    trace = FreeEnergyTrace()
    E, _ = _tv_em_pass(Y, W, c_prime, lgamma_sums)
    for it in range(1, n_iter + 1):
        W, E, f_e, f_m, _ = tv_em_iteration(Y, W, E, c_prime, lgamma_sums)
        trace.append(2 * it - 1, f_e)
        trace.append(2 * it, f_m)
        if check_monotone:
            trace.assert_monotone()
    return W, trace


def online_epoch(
    ds: Dataset,
    W: BottomWeights,
    R: TopWeights,
    cfg: ModelConfig,
    rng: np.random.Generator,
) -> tuple[dict, dict]:
    """One pass of per-sample Hebbian learning over a seeded shuffle.

    Per point: integrate, select the truncation support, renormalize the
    posterior there, infer the class posterior, always update the bottom
    layer, and update the top layer only for labeled points or unlabeled
    points whose best-versus-second-best margin clears ``cfg.theta_bvsb``.
    Mutates W and R in place.  Returns the epoch's gate counts and its
    seconds per phase (integrate, select, posterior with class posterior,
    update_bottom with both refreshes, update_top with the gate), as
    ``report.json`` and ``timings.json`` record them.

    Integration runs in blocks of B = min(_INTEGRATE_BLOCK, C // C')
    consecutive points of the shuffle: at a block's first point one GEMM
    against the current log W gives every point of the block its
    activations.  Each ``update_bottom`` call then refreshes the columns it
    wrote for the later points whose activations are held, from the log
    rows it has just written: the rest of the block below C'=C; at C'=C,
    where B = 1, the next point, whose activations overwrite this point's,
    so only the epoch's first point is integrated.  Each activation is
    exact up to rounding, and at C'=C bit-identical to the one-row GEMM.
    Every point's activations are checked at the top of its sample, and a
    non-finite one raises FloatingPointError.

    R's normalized columns (``class_activation``) are rebuilt only before an
    unlabeled point that follows an ``update_top`` write.

    At C'=C the bottom step and the next point's activations split their
    rows between this thread and one worker thread (see ``update_bottom``),
    which this thread waits for in a ``finally``, so ``log W`` and the next
    activations are whole before the next point reads them and the result
    does not depend on the CPU count.  The sample loop holds the one-thread
    BLAS pin, ``inference._one_blas_thread``.
    """
    Y = ds.Y
    logw = np.log(W.W)
    c_prime = cfg.C_prime
    full = c_prime == W.C
    block = min(_INTEGRATE_BLOCK, W.C // c_prime)
    order = rng.permutation(ds.N)
    gates = dict.fromkeys(("labeled_updates", "unlabeled_passed", "unlabeled_skipped"), 0)
    phases = dict.fromkeys(
        ("integrate", "select", "posterior", "update_bottom", "update_top"), 0.0)
    mix, fresh = R.R, False  # the class-posterior cache; a labeled point reads only K
    perf = time.perf_counter
    with _one_blas_thread():
        for n, (i, label) in enumerate(zip(order.tolist(), ds.labels[order].tolist())):
            t0 = perf()
            y = Y[i]
            k = n % block
            if k == 0 and not (full and n):
                Y_block = Y[order[n : n + block]]
                I_block = Y_block @ logw.T
            I = I_block[k]
            if not np.isfinite(I).all():
                raise FloatingPointError(f"non-finite activation at epoch sample {n}")
            t1 = perf()
            support = select_truncation(I, c_prime)
            t2 = perf()
            probs = truncated_posterior(I, support)
            if label == UNLABELED and not fresh:
                mix, fresh = normalized_columns(R.R), True
            t = class_activation(support, probs, mix, None if label == UNLABELED else label)
            t3 = perf()
            if full:
                Y_later = Y[order[n + 1 : n + 2]]
                I_later = I_block[: len(Y_later)]
            else:
                Y_later, I_later = Y_block[k + 1 :], I_block[k + 1 :]
            update_bottom(W, logw, support, probs, y, cfg.eps_W, Y_later, I_later)
            t4 = perf()
            if label != UNLABELED:
                gate = "labeled_updates"
            else:
                gate = "unlabeled_passed" if bvsb(t) > cfg.theta_bvsb else "unlabeled_skipped"
            gates[gate] += 1
            if gate != "unlabeled_skipped":
                update_top(R, t, support, probs, cfg.eps_R)
                fresh = False
            t5 = perf()
            phases["integrate"] += t1 - t0
            phases["select"] += t2 - t1
            phases["posterior"] += t3 - t2
            phases["update_bottom"] += t4 - t3
            phases["update_top"] += t5 - t4
    gates["bottom_writes"] = ds.N * c_prime * W.D  # matrix entries the bottom updates wrote
    return gates, phases
