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
from scipy.sparse import csr_array

from .classifier import bvsb, class_activation
from .core import BottomWeights, ModelConfig, MonotonicityError, TopWeights
from .data import Dataset, UNLABELED
from .inference import (
    _ROW_BLOCK, _on_two_threads, _one_blas_thread, _row_blocks, integrate, logsumexp_inplace,
    select_truncation, truncated_posterior,
)

MONOTONE_RSLACK = 1e-8
_REFRESH = 16  # chosen rows per bound refresh of init_from_data
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
            if b < a - MONOTONE_RSLACK * abs(a):
                raise MonotonicityError(
                    f"free energy fell from {a!r} to {b!r} at trace index {it}"
                )


def _update_rows(
    w: np.ndarray, logw: np.ndarray, es: np.ndarray, y: np.ndarray, lo: int, hi: int,
    y_next: np.ndarray | None, I_next: np.ndarray | None,
):
    """Rows [lo, hi) of the full-support bottom step, their ``log W`` and,
    given ``y_next``, their activations for it in ``I_next``.

    The views are bound first, so each statement writes its rows in place
    (``w[lo:hi] *= ...`` would copy them back through ``__setitem__``).
    Every element gets the same IEEE operations whatever the range; the
    matvec reads only the rows this call has just written.
    """
    w, logw, es = w[lo:hi], logw[lo:hi], es[lo:hi]
    w *= (1.0 - es)[:, None]
    # es * y in place: a copy and an in-place product beat the broadcast
    # product into ``out``, with the same bits.
    np.copyto(logw, y)
    logw *= es[:, None]
    w += logw
    np.log(w, out=logw)
    if y_next is not None:
        np.matmul(logw, y_next, out=I_next[lo:hi])


def update_bottom(
    W: BottomWeights, logw: np.ndarray, support: np.ndarray, probs: np.ndarray, y: np.ndarray,
    eps_W: float, y_next: np.ndarray | None = None, I_next: np.ndarray | None = None,
) -> BottomWeights:
    """One Hebbian step on the bottom layer, in place, with its ``log W`` refresh.

    W_cd <- (1 - eps*s_c) W_cd + eps*s_c * y_d for the support rows only,
    where ``probs`` holds s on ``support`` (distinct indices); rows outside
    the support are untouched.  Row sums are conserved because both y and
    every W row carry the same mass A.  ``logw`` holds log(W) and gets the
    logs of the written rows; at full support it is the scratch for the
    additive term before the log overwrites it.

    Given the next point ``y_next``, the (C,) buffer ``I_next`` gets its
    activations ``log W @ y_next`` from the updated weights, bit-identical
    to the one-row GEMM ``y_next[None] @ logw.T``.

    At full support the rows are split at h = C//2 rounded down to a
    multiple of 16 by ``inference._on_two_threads``: where there is a worker
    thread, the calling thread does rows [0, h) while the worker does rows
    [h, C), each with the same statements, then the matvec of its own rows
    while they are still in cache.  W and ``log W`` are bit-identical to the
    serial step.  The split activations are bit-identical to the one-row
    GEMM under the one-thread BLAS pin: a matvec split at a multiple of 16
    rounds each row as the whole matvec does, which a split at C//2 need
    not (the tests pin the aligned split).  The caller waits for the
    worker's half in a ``finally``, so no write outlives the call, even when
    either half raises.  Below full support, without a worker, or where h
    is 0, the step is serial.
    """
    if eps_W * probs.max() > 1.0:
        raise ValueError("eps_W * max(s) must not exceed 1")
    w = W.W
    es = eps_W * probs
    C = w.shape[0]
    if support.size == C and np.array_equal(support, np.arange(C)):
        _on_two_threads(lambda lo, hi: _update_rows(w, logw, es, y, lo, hi, y_next, I_next),
                        C // 2 // 16 * 16, C)
    else:
        rows = w.take(support, axis=0)
        rows *= (1.0 - es)[:, None]
        rows += es[:, None] * y
        w[support] = rows
        logw[support] = np.log(rows, out=rows)
        if y_next is not None:
            np.matmul(logw, y_next, out=I_next)
    return W


def update_top(
    R: TopWeights, t: np.ndarray, support: np.ndarray, probs: np.ndarray, eps_R: float
) -> TopWeights:
    """One Hebbian step on the top layer, in place.

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
        return R
    r *= (1.0 - et)[:, None]
    r[:, support] += np.outer(et, probs)
    return R


def _free_energy_at(I, W: BottomWeights, sets, lgamma_sums) -> float:
    """Truncated free energy from the activations ``I = integrate(W, Y)``.

    The support joints are formed per ``_ROW_BLOCK``-row block, the blocks
    of the other batch passes, on two threads where there is a worker; only
    the per-point log-sum-exp vector spans all N, and it is summed once, in
    point order.  Each block's joints are taken from ``I`` into one buffer,
    which ``logsumexp_inplace`` reduces without a scipy call.  ``I`` must be
    finite, as ``integrate`` checks; neither it nor ``sets`` is written.
    """
    # Joints differ from activations only by terms constant across clusters
    # (row sums all equal A, lgamma term depends on the point alone).
    C = W.C
    row_sums = W.W.sum(axis=1)
    per_point = np.empty(len(sets))
    # One flat take: row r's support s[r] sits at r * C + s[r] of its block.
    offsets = np.arange(0, _ROW_BLOCK * C, C)[:, None]

    def block(lo, hi):
        s = sets[lo:hi]
        joints = np.take(I[lo:hi].ravel(), s + offsets[: hi - lo])
        joints -= np.take(row_sums, s)
        joints -= lgamma_sums[lo:hi, None]
        joints -= np.log(C)
        per_point[lo:hi] = logsumexp_inplace(joints)

    _row_blocks(block, len(sets))
    return float(per_point.sum())


def free_energy(Y, W: BottomWeights, sets, lgamma_sums) -> float:
    """Truncated free energy: per point, log-sum-exp of the support joints.

    ``sets`` is an (N, C') index matrix and ``lgamma_sums`` holds
    sum_d lgamma(y_d + 1) per row of ``Y``, as ``Dataset.lgamma_sums`` does.
    """
    if sets.shape[0] != Y.shape[0]:
        raise ValueError("need one truncation set per data point")
    return _free_energy_at(integrate(W, Y), W, sets, lgamma_sums)


def batch_e_step(Y, W: BottomWeights, c_prime: int) -> np.ndarray:
    """Per-point truncation sets holding the clusters of largest log joint.

    Returns an (N, c_prime) index matrix.  Among all equal-size supports this
    choice maximizes the free energy at fixed weights, because the log joint
    ranking equals the activation ranking for mass-normalized rows.
    """
    I = integrate(W, Y)
    return select_truncation(I, c_prime)


def batch_m_step(Y, posteriors, prev_W: BottomWeights) -> tuple[BottomWeights, int]:
    """Closed-form bottom-layer M-step from truncated posteriors.

    W_cd = sum_n s_c y_d / sum_n s_c, with the mass A of ``prev_W``.  Rows
    that received zero total responsibility keep their ``prev_W`` values;
    their count is returned as a diagnostic.  ``posteriors`` is a (supports, probs) pair of (N, C')
    matrices with support indices in [0, C).

    S.T @ Y runs over a point-major sparse S, so the M-step costs O(N*C'*D),
    not the O(N*C*D) of a dense S: 45 against 113 ms at C'=15, N=6000,
    C=400, D=784, one BLAS thread.  Above about C'=40 a dense GEMM is
    faster (113 against 128 ms at C'=50, 0.12 against 1.13 s at C'=C).
    W's C rows are split in two halves, one per thread where there is a
    worker, each the product of S's columns for its clusters with the whole
    Y; every W entry still sums over the points in order, so the split is
    bit-identical to the whole product, and no copy of Y is made.
    """
    supports, probs = posteriors
    N, C = len(Y), prev_W.C
    if supports.ndim != 2 or supports.shape != probs.shape or len(supports) != N:
        raise ValueError(
            f"supports {supports.shape} and probs {probs.shape} must both be (N={N}, C')")
    if supports.min() < 0 or supports.max() >= C:
        raise ValueError("support indices out of range")
    if not np.allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-9):
        raise ValueError("every posterior must sum to 1")
    # Truncated expectations: S holds s_c per point, zero off the support.
    indptr = np.arange(N + 1) * supports.shape[1]
    S = csr_array((probs.ravel(), supports.ravel(), indptr), shape=(N, C))
    s_sum = np.bincount(supports.ravel(), weights=probs.ravel(), minlength=C)
    alive = s_sum > 0.0
    W_new = np.empty((C, Y.shape[1]))

    def rows(lo, hi):
        W_new[lo:hi] = S[:, lo:hi].T @ Y

    _on_two_threads(rows, C // 2, C)
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
    Y, W: BottomWeights, I, c_prime: int, lgamma_sums
) -> tuple[BottomWeights, np.ndarray, float, float, int]:
    """One batch EM iteration: re-select sets, then refit the support rows.

    ``I`` is ``integrate(W, Y)``.  Returns (W_new, integrate(W_new, Y),
    F(new sets, old W), F(new sets, W_new), dead clusters); the returned
    activations are the next iteration's ``I``.
    """
    sets = select_truncation(I, c_prime)
    f_e = _free_energy_at(I, W, sets, lgamma_sums)
    W_new, dead = batch_m_step(Y, (sets, truncated_posterior(I, sets)), W)
    I_new = integrate(W_new, Y)
    f_m = _free_energy_at(I_new, W_new, sets, lgamma_sums)
    return W_new, I_new, f_e, f_m, dead


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
    weight state is integrated once.  The run holds numpy's OpenBLAS at one
    thread and restores the caller's count afterwards (see
    ``inference._one_blas_thread``), so its bits do not depend on the
    environment numpy was imported under.
    """
    trace = FreeEnergyTrace()
    with _one_blas_thread():
        I = integrate(W, Y)
        for it in range(1, n_iter + 1):
            W, I, f_e, f_m, _ = tv_em_iteration(Y, W, I, c_prime, lgamma_sums)
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
    update_bottom with the ``log W`` refresh, update_top with the gate), as
    ``report.json`` and ``timings.json`` record them.

    Below C'=C, integration runs in blocks of B = min(_INTEGRATE_BLOCK,
    C // C') consecutive points of the shuffle: at a block's first point one
    GEMM against the current log W gives every point of the block its
    activations, and each point recomputes by matvec only the rows that the
    block's earlier points wrote.  Each activation is exact up to rounding.
    At C'=C only the first point is integrated by a one-row GEMM; every
    ``update_bottom`` call gets the next point and writes its activations
    into the other of two (C,) buffers, bit-identical to that GEMM, so there
    is no per-point gather and no stale row.  Every point's activations are
    checked at the top of its sample, and a non-finite one raises
    FloatingPointError.

    At C'=C the bottom step and the next point's matvec split their rows
    between this thread and one worker thread (see ``update_bottom``), which
    this thread waits for in a ``finally``, so ``log W`` and the next
    activations are whole before the next point reads them and the result
    does not depend on the CPU count.
    """
    Y = ds.Y
    logw = np.log(W.W)
    c_prime = cfg.C_prime
    fused = c_prime == W.C  # update_bottom computes each next point's activations
    block = min(_INTEGRATE_BLOCK, W.C // c_prime)
    written = np.zeros(W.C, dtype=bool)  # rows written since the block's GEMM
    I_bufs = (np.empty(W.C), np.empty(W.C))  # the next point's activations at C'=C
    order = rng.permutation(ds.N)
    points = order.tolist()
    gates = dict.fromkeys(("labeled_updates", "unlabeled_passed", "unlabeled_skipped"), 0)
    phases = dict.fromkeys(
        ("integrate", "select", "posterior", "update_bottom", "update_top"), 0.0)
    perf = time.perf_counter
    for n, (i, label) in enumerate(zip(points, ds.labels[order].tolist())):
        t0 = perf()
        y = Y[i]
        if fused and n:
            I = I_next
        else:
            if n % block == 0:
                I_block = Y[order[n : n + block]] @ logw.T
                written.fill(False)
            I = I_block[n % block]
            stale = np.flatnonzero(written)
            I[stale] = logw[stale] @ y
        if not np.isfinite(I).all():
            raise FloatingPointError(f"non-finite activation at epoch sample {n}")
        t1 = perf()
        support = select_truncation(I, c_prime)
        t2 = perf()
        probs = truncated_posterior(I, support)
        t = class_activation(support, probs, R, None if label == UNLABELED else label)
        t3 = perf()
        if fused:
            I_next = I_bufs[n % 2]
            y_next = Y[points[n + 1]] if n + 1 < ds.N else None
            update_bottom(W, logw, support, probs, y, cfg.eps_W, y_next, I_next)
        else:
            update_bottom(W, logw, support, probs, y, cfg.eps_W)
            written[support] = True
        t4 = perf()
        if label != UNLABELED:
            update_top(R, t, support, probs, cfg.eps_R)
            gates["labeled_updates"] += 1
        elif bvsb(t) > cfg.theta_bvsb:
            update_top(R, t, support, probs, cfg.eps_R)
            gates["unlabeled_passed"] += 1
        else:
            gates["unlabeled_skipped"] += 1
        t5 = perf()
        phases["integrate"] += t1 - t0
        phases["select"] += t2 - t1
        phases["posterior"] += t3 - t2
        phases["update_bottom"] += t4 - t3
        phases["update_top"] += t5 - t4
    gates["bottom_writes"] = ds.N * c_prime * W.D  # matrix entries the bottom updates wrote
    return gates, phases
