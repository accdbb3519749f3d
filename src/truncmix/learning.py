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
from scipy.special import gammaln, logsumexp

from .classifier import bvsb, class_activation
from .core import BottomWeights, ModelConfig, MonotonicityError, TopWeights
from .data import Dataset, UNLABELED
from .inference import integrate, select_truncation, truncated_posterior

MONOTONE_RSLACK = 1e-8
_L1_BLOCK = 64  # rows per block of init_from_data's distance pass


@dataclass
class FreeEnergyTrace:
    """Sequence of (iteration, free energy) pairs with increasing indices."""

    entries: list = field(default_factory=list)

    def append(self, iteration: int, value: float):
        if self.entries and iteration <= self.entries[-1][0]:
            raise ValueError("iteration indices must be strictly increasing")
        self.entries.append((int(iteration), float(value)))

    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.entries], dtype=np.float64)

    def worst_relative_decrease(self) -> float:
        """Largest per-step drop, normalized by |previous value|; 0 if none."""
        v = self.values()
        if v.size < 2:
            return 0.0
        drops = (v[:-1] - v[1:]) / np.abs(v[:-1])
        return float(max(0.0, drops.max()))

    def assert_monotone(self):
        v = self.values()
        for a, b, (it, _) in zip(v[:-1], v[1:], self.entries[1:]):
            if b < a - MONOTONE_RSLACK * abs(a):
                raise MonotonicityError(
                    f"free energy fell from {a!r} to {b!r} at trace index {it}"
                )


def update_bottom(
    W: BottomWeights, support: np.ndarray, probs: np.ndarray, y: np.ndarray, eps_W: float
) -> BottomWeights:
    """One Hebbian step on the bottom layer, in place.

    W_cd <- (1 - eps*s_c) W_cd + eps*s_c * y_d for the support rows only,
    where ``probs`` holds s on ``support`` (distinct indices); rows outside
    the support are untouched.  Row sums are conserved because both y and
    every W row carry the same mass A.
    """
    if eps_W * probs.max() > 1.0:
        raise ValueError("eps_W * max(s) must not exceed 1")
    w = W.W
    es = eps_W * probs
    if support.size == w.shape[0] and np.array_equal(support, np.arange(support.size)):
        w *= (1.0 - es)[:, None]
        w += es[:, None] * y
    else:
        rows = w.take(support, axis=0)
        rows *= (1.0 - es)[:, None]
        rows += es[:, None] * y
        w[support] = rows
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
    t = np.asarray(t, dtype=np.float64)
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
    bump = np.outer(et, probs)
    if support.size == r.shape[1] and np.array_equal(support, np.arange(support.size)):
        r += bump
    else:
        r[:, support] += bump
    return R


def _free_energy_at(I, W: BottomWeights, sets, lgamma_sums) -> float:
    """Truncated free energy from the activations ``I = integrate(W, Y)``."""
    # Joints differ from activations only by terms constant across clusters
    # (row sums all equal A, lgamma term depends on the point alone).
    lj_picked = (
        np.take_along_axis(I, sets, axis=1)
        - W.W.sum(axis=1)[sets]
        - np.asarray(lgamma_sums)[:, None]
        - np.log(W.C)
    )
    return float(logsumexp(lj_picked, axis=1).sum())


def free_energy(Y, W: BottomWeights, sets, lgamma_sums=None) -> float:
    """Truncated free energy: per point, log-sum-exp of the support joints."""
    sets = np.asarray(sets, dtype=np.intp)
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    if sets.ndim == 1:
        sets = sets[None, :]
    if sets.shape[0] != Y.shape[0]:
        raise ValueError("need one truncation set per data point")
    if lgamma_sums is None:
        lgamma_sums = gammaln(Y + 1.0).sum(axis=1)
    return _free_energy_at(integrate(W, Y), W, sets, lgamma_sums)


def batch_e_step(Y, W: BottomWeights, c_prime: int) -> np.ndarray:
    """Per-point truncation sets holding the clusters of largest log joint.

    Returns an (N, c_prime) index matrix.  Among all equal-size supports this
    choice maximizes the free energy at fixed weights, because the log joint
    ranking equals the activation ranking for mass-normalized rows.
    """
    I = integrate(W, np.atleast_2d(np.asarray(Y, dtype=np.float64)))
    return select_truncation(I, c_prime)


def batch_m_step(
    Y, posteriors, A: float, prev_W: BottomWeights
) -> tuple[BottomWeights, int]:
    """Closed-form bottom-layer M-step from truncated posteriors.

    W_cd = sum_n s_c y_d / sum_n s_c.  Rows that received zero total
    responsibility keep their previous values; their count is returned as a
    diagnostic.  ``posteriors`` is a (supports, probs) pair of (N, C')
    matrices with support indices in [0, C).

    S.T @ Y runs over a point-major sparse S, so the M-step costs O(N*C'*D),
    not the O(N*C*D) of a dense S: 45 against 113 ms at C'=15, N=6000,
    C=400, D=784, one BLAS thread.  Above about C'=40 a dense GEMM is
    faster (113 against 128 ms at C'=50, 0.12 against 1.13 s at C'=C).
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    supports, probs = posteriors
    supports = np.asarray(supports, dtype=np.intp)
    probs = np.asarray(probs, dtype=np.float64)
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
    W_new = prev_W.W.copy()
    W_new[alive] = (S.T @ Y)[alive] / s_sum[alive, None]
    return BottomWeights(W_new, A), int(np.sum(~alive))


def init_from_data(Y, n_clusters: int, A: float, rng: np.random.Generator) -> BottomWeights:
    """Greedy farthest-point initialization for batch EM.

    Picks one observation at random, then repeatedly adds the observation
    with the largest L1 distance to its nearest chosen row.  Rows are actual
    normalized observations, so they are positive and sum to A.  With
    well-separated data this covers every mixture component, which a
    uniform random choice of rows cannot guarantee.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    if n_clusters > Y.shape[0]:
        raise ValueError("need at least one observation per cluster")
    N = Y.shape[0]
    chosen = [int(rng.integers(0, N))]
    dist = np.full(N, np.inf)  # L1 distance to the nearest chosen row
    buf = np.empty((min(N, _L1_BLOCK), Y.shape[1]))
    while len(chosen) < n_clusters:
        row = Y[chosen[-1]]
        for lo in range(0, N, _L1_BLOCK):
            b = buf[: min(N - lo, _L1_BLOCK)]
            np.subtract(Y[lo : lo + len(b)], row, out=b)
            np.abs(b, out=b)
            near = dist[lo : lo + len(b)]
            np.minimum(near, b.sum(axis=1), out=near)
        chosen.append(int(np.argmax(dist)))
    return BottomWeights(Y[chosen].copy(), A)


def tv_em_iteration(
    Y, W: BottomWeights, I, c_prime: int, lgamma_sums
) -> tuple[BottomWeights, np.ndarray, float, float, int]:
    """One batch EM iteration: re-select sets, then refit the support rows.

    ``I`` is ``integrate(W, Y)``.  Returns (W_new, integrate(W_new, Y),
    F(new sets, old W), F(new sets, W_new), dead clusters); the returned
    activations are the next iteration's ``I``.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    sets = select_truncation(I, c_prime)
    f_e = _free_energy_at(I, W, sets, lgamma_sums)
    W_new, dead = batch_m_step(Y, (sets, truncated_posterior(I, sets)), W.A, W)
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
    weight state is integrated once.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    trace = FreeEnergyTrace()
    I = integrate(W, Y)
    for it in range(1, n_iter + 1):
        W, I, f_e, f_m, _ = tv_em_iteration(Y, W, I, c_prime, lgamma_sums)
        trace.append(2 * it - 1, f_e)
        trace.append(2 * it, f_m)
        if check_monotone:
            trace.assert_monotone()
    return W, trace


@dataclass
class EpochStats:
    """Gate counts, write instrumentation, and phase timings for one epoch."""

    labeled_updates: int = 0
    unlabeled_passed: int = 0
    unlabeled_skipped: int = 0
    bottom_writes: int = 0      # matrix entries written by bottom updates
    t_integrate: float = 0.0    # seconds per phase over the whole epoch
    t_select: float = 0.0
    t_posterior: float = 0.0    # truncated posterior, class posterior
    t_update: float = 0.0

    def gate_counts(self) -> dict:
        return {
            "labeled_updates": self.labeled_updates,
            "unlabeled_passed": self.unlabeled_passed,
            "unlabeled_skipped": self.unlabeled_skipped,
            "bottom_writes": self.bottom_writes,
        }

    def timings(self) -> dict:
        return {
            "integrate": self.t_integrate,
            "select": self.t_select,
            "posterior": self.t_posterior,
            "update": self.t_update,
        }


def online_epoch(
    ds: Dataset,
    W: BottomWeights,
    R: TopWeights,
    cfg: ModelConfig,
    rng: np.random.Generator,
) -> EpochStats:
    """One pass of per-sample Hebbian learning over a seeded shuffle.

    Per point: integrate, select the truncation support, renormalize the
    posterior there, infer the class posterior, always update the bottom
    layer, and update the top layer only for labeled points or unlabeled
    points whose best-versus-second-best margin clears ``cfg.theta_bvsb``.
    Mutates W and R in place and reports gate statistics.
    """
    Y = ds.Y
    labels = ds.labels
    w = W.W
    logw = np.log(w)
    c_prime = cfg.C_prime
    stats = EpochStats()
    perf = time.perf_counter
    for i in rng.permutation(ds.N):
        y = Y[i]
        t0 = perf()
        I = logw @ y
        t1 = perf()
        support = select_truncation(I, c_prime)
        t2 = perf()
        probs = truncated_posterior(I, support)
        label = int(labels[i])
        t = class_activation(support, probs, R, None if label == UNLABELED else label)
        t3 = perf()
        update_bottom(W, support, probs, y, cfg.eps_W)
        if support.size == w.shape[0]:
            np.log(w, out=logw)
        else:
            logw[support] = np.log(w[support])
        stats.bottom_writes += support.size * w.shape[1]
        if label != UNLABELED:
            update_top(R, t, support, probs, cfg.eps_R)
            stats.labeled_updates += 1
        elif bvsb(t) > cfg.theta_bvsb:
            update_top(R, t, support, probs, cfg.eps_R)
            stats.unlabeled_passed += 1
        else:
            stats.unlabeled_skipped += 1
        t4 = perf()
        stats.t_integrate += t1 - t0
        stats.t_select += t2 - t1
        stats.t_posterior += t3 - t2
        stats.t_update += t4 - t3
    return stats
