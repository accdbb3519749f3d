import itertools
import math
import os
import re
import signal
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_array
from scipy.special import logsumexp

from truncmix import inference, learning
from truncmix.core import BottomWeights, DataError, ModelConfig, MonotonicityError, TopWeights
from truncmix.data import Dataset, generate_mixture, preprocess
from truncmix.inference import class_activation, integrate, normalized_columns, select_truncation
from truncmix.learning import (
    FreeEnergyTrace,
    batch_e_step,
    batch_m_step,
    free_energy,
    init_from_data,
    init_weights,
    online_epoch,
    run_tv_em,
    tv_em_iteration,
    update_bottom,
    update_top,
)

from conftest import (CountingExecutor, lgamma_sums, log_joint, posteriors_by_row,
                      random_observations, random_weights, worst_relative_decrease)

mp.mp.dps = 50


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def mp_log_joint(w_row, y, C):
    acc = -mp.log(C)
    for wd, yd in zip(w_row, y):
        acc += mp.mpf(yd) * mp.log(mp.mpf(wd)) - mp.mpf(wd) - mp.loggamma(mp.mpf(yd) + 1)
    return acc


def mp_free_energy(Y, W_arr, sets, C):
    """Brute-force truncated free energy in 50-digit arithmetic."""
    total = mp.mpf(0)
    for n in range(len(Y)):
        mass = mp.mpf(0)
        for c in sets[n]:
            mass += mp.e ** mp_log_joint(W_arr[c], Y[n], C)
        total += mp.log(mass)
    return float(total)


def unfused_e_step(Y, W, c_prime, lg):
    """The E-step ``tv_em_iteration`` takes, from the unfused public passes:
    (sets, truncated posteriors, F(sets, W))."""
    I = integrate(W, Y)
    sets = select_truncation(I, c_prime)
    return sets, posteriors_by_row(I, sets), free_energy(Y, W, sets, lg)


def mp_dense_posterior(W_arr, y, C):
    joints = [mp.e ** mp_log_joint(W_arr[c], y, C) for c in range(C)]
    z = mp.fsum(joints)
    return np.array([float(j / z) for j in joints])


def dense_em_iteration_oracle(Y, W_arr, C):
    """Textbook batch EM for the mass-normalized Poisson mixture."""
    post = np.stack([mp_dense_posterior(W_arr, y, C) for y in Y])
    W_new = (post.T @ Y) / post.sum(axis=0)[:, None]
    return post, W_new


def copy_weights(W, R):
    return BottomWeights(W.W.copy(), W.A), TopWeights(R.R.copy())


def weighted_mean_oracle(Y, dense_posteriors):
    return (dense_posteriors.T @ Y) / dense_posteriors.sum(axis=0)[:, None]


# ---------------------------------------------------------------------------
# Hebbian updates
# ---------------------------------------------------------------------------

class TestUpdateBottom:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.W = random_weights(rng, 6, 5, 15.0)
        self.y = random_observations(rng, 1, 5, 15.0)[0]
        self.no_later = np.empty((0, 5)), np.empty((0, 6))  # (0, D) points, (0, C) activations

    def test_rows_outside_support_untouched(self):
        before = self.W.W.copy()
        s = np.array([1, 3]), np.array([0.25, 0.75])
        update_bottom(self.W, np.log(self.W.W), *s, self.y, 0.5, *self.no_later)
        untouched = [0, 2, 4, 5]
        assert np.array_equal(self.W.W[untouched], before[untouched])
        assert not np.array_equal(self.W.W[[1, 3]], before[[1, 3]])

    def test_write_footprint_is_support_rows_exactly(self):
        # Independent instrumentation: the set of entries an update may write
        # is exactly support x D.
        support = np.array([0, 4])
        mask = np.zeros(self.W.W.shape, dtype=bool)
        mask[support] = True
        assert mask.sum() == support.size * self.W.D
        before = self.W.W.copy()
        update_bottom(self.W, np.log(self.W.W), support, np.array([0.5, 0.5]), self.y, 0.3,
                      *self.no_later)
        assert np.array_equal(self.W.W[~mask], before[~mask])

    def test_fixed_point_when_row_equals_input(self):
        self.W.W[2] = self.y
        before = self.W.W[2].copy()
        s = np.array([2]), np.array([1.0])
        update_bottom(self.W, np.log(self.W.W), *s, self.y, 0.7, *self.no_later)
        np.testing.assert_allclose(self.W.W[2], before, rtol=1e-14)

    def test_row_sums_conserved(self):
        s = np.array([0, 1, 2]), np.array([0.2, 0.3, 0.5])
        update_bottom(self.W, np.log(self.W.W), *s, self.y, 0.9, *self.no_later)
        np.testing.assert_allclose(self.W.W.sum(axis=1), 15.0, rtol=1e-12)

    def test_positivity_preserved_at_full_rate(self):
        s = np.array([1]), np.array([1.0])
        update_bottom(self.W, np.log(self.W.W), *s, self.y, 1.0, *self.no_later)
        assert np.all(self.W.W > 0.0)
        np.testing.assert_allclose(self.W.W[1], self.y, rtol=1e-14)

    def test_rate_precondition(self):
        s = np.array([1]), np.array([1.0])
        with pytest.raises(ValueError, match="eps_W"):
            update_bottom(self.W, np.log(self.W.W), *s, self.y, 1.0 + 1e-9, *self.no_later)

    @pytest.mark.parametrize("C, D, m", [(5, 4, 2), (40, 784, 1), (40, 784, 15), (400, 784, 1)])
    def test_full_support_fast_path_matches_fancy_path(self, C, D, m):
        # The sorted full support takes the split path; the same support in
        # another order takes the gathered one.  Both run the one kernel.
        rng = np.random.default_rng(1)
        Wa = random_weights(rng, C, D, 2.5 * D)
        Wb = BottomWeights(Wa.W.copy(), Wa.A)
        wc = Wa.W.copy()
        y, *later = random_observations(rng, m + 1, D, 2.5 * D)
        Y_later = np.array(later).reshape(m, D)
        probs = rng.dirichlet(np.ones(C))
        logw_a, I_a = np.log(Wa.W), np.full((m, C), np.nan)
        update_bottom(Wa, logw_a, np.arange(C), probs, y, 0.4, Y_later, I_a)
        rows = rng.permutation(C)
        assert not np.array_equal(rows, np.arange(C))
        logw_b, I_b = np.log(Wb.W), np.full((m, C), np.nan)
        update_bottom(Wb, logw_b, rows, probs[rows], y, 0.4, Y_later, I_b)
        assert Wa.W.tobytes() == Wb.W.tobytes()
        assert logw_a.tobytes() == logw_b.tobytes()
        assert I_a.tobytes() == I_b.tobytes()
        # Both equal the step written out on the permuted rows.
        es = 0.4 * probs
        wc[rows] *= (1.0 - es[rows])[:, None]
        wc[rows] += es[rows][:, None] * y
        np.testing.assert_array_equal(Wa.W, wc)

    @pytest.mark.parametrize("support", [[1, 3], [0, 1, 2, 3, 4, 5]])
    def test_refreshes_log_w_bit_for_bit(self, support):
        # The partial path logs the rows it wrote; the full path uses log W
        # as scratch for the additive term before logging every row.
        support = np.array(support)
        probs = np.random.default_rng(3).dirichlet(np.ones(support.size))
        logw = np.log(self.W.W)
        update_bottom(self.W, logw, support, probs, self.y, 0.6, *self.no_later)
        assert np.array_equal(logw, np.log(self.W.W))

    @pytest.mark.parametrize("c_prime", [15, 40])
    @pytest.mark.parametrize("m", [0, 1, 15])
    def test_refreshes_written_columns_of_later_points(self, m, c_prime):
        # The later points get the activations of the written rows from
        # their new logs; every other column is left alone.  At C'=C the
        # split step writes every column.
        rng = np.random.default_rng(m)
        W = random_weights(rng, 40, 784, 900.0)
        y, *later = random_observations(rng, m + 1, 784, 900.0)
        Y_later = np.array(later).reshape(m, 784)
        support = np.sort(rng.choice(40, size=c_prime, replace=False))
        I_later = rng.standard_normal((m, 40))
        before = I_later.copy()
        update_bottom(W, np.log(W.W), support, rng.dirichlet(np.ones(c_prime)), y, 0.5,
                      Y_later, I_later)
        assert I_later[:, support].tobytes() == (Y_later @ np.log(W.W[support]).T).tobytes()
        other = np.setdiff1d(np.arange(40), support)
        assert I_later[:, other].tobytes() == before[:, other].tobytes()


@pytest.fixture()
def fast_switch():
    """Hand the interpreter lock over every microsecond, so the caller's and
    the worker's halves interleave as finely as they can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture()
def row_worker(monkeypatch):
    """The full-support step's worker, present whatever the CPU count."""
    pool = CountingExecutor()
    monkeypatch.setattr(inference, "_WORKER", pool)
    yield pool
    pool.shutdown(wait=True)


def aligned_half(C: int) -> int:
    return C // 2 // 16 * 16


# Shapes over which a matvec split at a multiple of 16 rounds as one matvec.
SPLIT_ROWS = [*range(1, 71), 99, 100, 101, 127, 128, 129, 255, 256, 399, 400, 401, 1001]


@pytest.mark.parametrize("D", [1, 3, 7, 8, 64, 783, 784, 785, 2000])
def test_aligned_split_matvec_equals_one_row_gemm(D):
    # update_bottom splits its matvec at C//2 rounded down to a multiple of
    # 16, so both halves hold at least 16 rows when it splits.  A one-row
    # tail is left out: numpy takes a (1, D) @ (D,) product through its dot
    # kernel, which rounds differently from the matvec.
    rng = np.random.default_rng(D)
    bad = []
    for C in SPLIT_ROWS:
        logw = np.log(rng.uniform(0.2, 3.0, size=(C, D)))
        y = rng.uniform(0.0, 10.0, size=D)
        gemm = (y[None] @ logw.T)[0]
        for h in range(0, C + 1, 16):
            if C - h != 1:
                split = np.concatenate([logw[:h] @ y, logw[h:] @ y])
                if split.tobytes() != gemm.tobytes():
                    bad.append((C, D, h))
    assert not bad, f"split matvec differs from the one-row GEMM at (C, D, h) = {bad}"


class TestSplitBottomStep:
    """At full support the rows are split between the caller and one worker."""

    @staticmethod
    def serial_step(w, es, y):
        # The three statements and the log of the unsplit step.
        w *= (1.0 - es)[:, None]
        w += np.multiply(es[:, None], y)
        return np.log(w)

    @pytest.mark.parametrize("split", [True, False], ids=["worker", "no-worker"])
    @pytest.mark.parametrize(
        "C, D", [(1, 37), (2, 37), (3, 37), (5, 37), (37, 37), (400, 784), (401, 784)])
    def test_bit_identical_to_serial_step(self, row_worker, fast_switch, monkeypatch, C, D,
                                          split):
        if not split:
            monkeypatch.setattr(inference, "_WORKER", None)
        rng = np.random.default_rng(C)
        W = random_weights(rng, C, D, 3.0 * D)
        w_ref = W.W.copy()
        logw = np.log(W.W)
        ys = random_observations(rng, 5, D, 3.0 * D)
        for k in range(4):
            # The epoch's last step has no next point and writes no activations.
            Y_next = ys[k + 1 : k + 2] if k < 3 else np.empty((0, D))
            I_next = np.full((1, C), np.nan)
            probs = rng.dirichlet(np.ones(C))
            update_bottom(W, logw, np.arange(C), probs, ys[k], 0.9, Y_next,
                          I_next[: len(Y_next)])
            logw_ref = self.serial_step(w_ref, 0.9 * probs, ys[k])
            assert W.W.tobytes() == w_ref.tobytes()
            assert logw.tobytes() == logw_ref.tobytes()
            if not len(Y_next):
                assert np.isnan(I_next).all()
            else:
                assert I_next[0].tobytes() == (Y_next @ logw_ref.T)[0].tobytes()
        # Below 32 rows the aligned half is empty, so nothing is submitted.
        assert row_worker.submitted == (4 if split and aligned_half(C) > 0 else 0)

    def test_below_full_support_stays_on_the_caller(self, row_worker):
        rng = np.random.default_rng(0)
        W = random_weights(rng, 40, 5, 15.0)
        logw = np.log(W.W)
        y, *later = random_observations(rng, 3, 5, 15.0)
        I_later = np.empty((2, 40))
        update_bottom(W, logw, np.arange(39), rng.dirichlet(np.ones(39)), y, 0.5,
                      np.array(later), I_later)
        assert row_worker.submitted == 0
        assert I_later[:, :39].tobytes() == (np.array(later) @ logw[:39].T).tobytes()

    @pytest.mark.parametrize("faulty_lo", [0, 16], ids=["caller-half", "worker-half"])
    def test_fault_in_one_half_raises_after_the_other_half(
        self, row_worker, monkeypatch, faulty_lo
    ):
        class RowFault(Exception):
            pass

        rows = learning._update_rows
        finished = []

        def faulty_rows(w, *args):
            lo, hi = (0, 16) if len(w) == 16 else (16, 40)  # the caller's or the worker's rows
            if lo == faulty_lo:
                raise RowFault(f"rows {lo}:{hi}")
            time.sleep(0.2)  # the sound half is still writing when the fault is raised
            rows(w, *args)
            finished.append((lo, hi))

        monkeypatch.setattr(learning, "_update_rows", faulty_rows)
        rng = np.random.default_rng(0)
        W = random_weights(rng, 40, 5, 15.0)
        before = W.W.copy()
        with pytest.raises(RowFault, match=f"rows {faulty_lo}:"):
            update_bottom(W, np.log(W.W), np.arange(40), rng.dirichlet(np.ones(40)),
                          random_observations(rng, 1, 5, 15.0)[0], 0.5,
                          np.empty((0, 5)), np.empty((0, 40)))
        sound = (16, 40) if faulty_lo == 0 else (0, 16)
        assert finished == [sound]
        faulty = slice(0, 16) if faulty_lo == 0 else slice(16, 40)
        assert np.array_equal(W.W[faulty], before[faulty])
        assert not np.array_equal(W.W[slice(*sound)], before[slice(*sound)])

    @pytest.mark.skipif(not hasattr(os, "fork") or inference._WORKER is None,
                        reason="needs fork and a process that may use 2 CPUs")
    def test_forked_child_finishes_a_split_step(self):
        # The child inherits the pool but not its thread; without a pool of
        # its own its first split step would wait forever.
        rng = np.random.default_rng(0)
        W = random_weights(rng, 40, 5, 15.0)
        step = (np.log(W.W), np.arange(40), np.full(40, 1 / 40), np.full(5, 3.0), 0.5,
                np.empty((0, 5)), np.empty((0, 40)))
        update_bottom(W, *step)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(5)
                update_bottom(W, *step)
                code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


class TestUpdateTop:
    def setup_method(self):
        rng = np.random.default_rng(2)
        self.R = TopWeights(rng.dirichlet(np.ones(8), size=3))
        self.support, self.probs = np.array([1, 6]), np.array([0.4, 0.6])

    def test_zero_class_mass_leaves_row_unchanged(self):
        before = self.R.R.copy()
        update_top(self.R, np.array([0.0, 1.0, 0.0]), self.support, self.probs, eps_R=0.5)
        assert np.array_equal(self.R.R[0], before[0])
        assert np.array_equal(self.R.R[2], before[2])
        assert not np.array_equal(self.R.R[1], before[1])

    def test_decay_is_dense_over_clusters(self):
        # Columns outside the support must still shrink: the decay term of
        # the update does not vanish where s_c = 0.
        before = self.R.R.copy()
        t = np.array([0.5, 0.25, 0.25])
        update_top(self.R, t, self.support, self.probs, eps_R=0.8)
        outside = [c for c in range(8) if c not in (1, 6)]
        expected = before[:, outside] * (1.0 - 0.8 * t)[:, None]
        np.testing.assert_allclose(self.R.R[:, outside], expected, rtol=1e-15)

    def test_row_sums_conserved(self):
        t = np.array([0.7, 0.2, 0.1])
        update_top(self.R, t, self.support, self.probs, eps_R=1.0)
        np.testing.assert_allclose(self.R.R.sum(axis=1), 1.0, rtol=1e-13)

    def test_fixed_point_when_row_equals_dense_posterior(self):
        dense = np.zeros(8)
        dense[self.support] = self.probs
        R = TopWeights(np.vstack([dense, dense, dense]))
        before = R.R.copy()
        update_top(R, np.array([1.0, 0.3, 0.0]), self.support, self.probs, eps_R=0.9)
        np.testing.assert_allclose(R.R, before, rtol=0.0, atol=1e-16)

    def test_dense_step_at_full_support_equals_formula(self):
        t = np.array([0.5, 0.3, 0.2])
        probs = np.random.default_rng(3).dirichlet(np.ones(8))
        before = self.R.R.copy()
        update_top(self.R, t, np.arange(8), probs, eps_R=0.7)
        et = 0.7 * t
        assert np.array_equal(self.R.R, before * (1.0 - et)[:, None] + np.outer(et, probs))

    def test_rate_precondition(self):
        with pytest.raises(ValueError, match="eps_R"):
            update_top(
                self.R, np.array([1.0, 0.0, 0.0]), self.support, self.probs, eps_R=1.0 + 1e-9
            )


# ---------------------------------------------------------------------------
# Free energy and batch EM
# ---------------------------------------------------------------------------

class TestFreeEnergy:
    def test_full_sets_equal_exact_log_likelihood(self):
        rng = np.random.default_rng(3)
        W = random_weights(rng, 5, 4, 9.0)
        Y = random_observations(rng, 12, 4, 9.0)
        full = np.tile(np.arange(5), (12, 1))
        assert free_energy(Y, W, full, lgamma_sums(Y)) == pytest.approx(
            mp_free_energy(Y, W.W, full, 5), rel=1e-14
        )

    def test_single_point_single_cluster_is_log_joint(self):
        rng = np.random.default_rng(4)
        W = random_weights(rng, 4, 3, 7.0)
        y = random_observations(rng, 1, 3, 7.0)[0]
        got = free_energy(y[None, :], W, np.array([[2]]), lgamma_sums(y[None, :]))
        assert got == pytest.approx(log_joint(W.W[2], y, 4), rel=1e-12)

    def test_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(5)
        W = random_weights(rng, 4, 3, 8.0)
        Y = random_observations(rng, 5, 3, 8.0)
        sets = batch_e_step(Y, W, 2)
        got = free_energy(Y, W, sets, lgamma_sums(Y))
        assert got == pytest.approx(mp_free_energy(Y, W.W, sets, 4), abs=1e-10)

    def test_lower_bounds_likelihood(self):
        rng = np.random.default_rng(6)
        W = random_weights(rng, 8, 5, 11.0)
        Y = random_observations(rng, 30, 5, 11.0)
        lg = lgamma_sums(Y)
        ll = free_energy(Y, W, np.tile(np.arange(8), (30, 1)), lg)
        for cp in (1, 3, 8):
            f = free_energy(Y, W, batch_e_step(Y, W, cp), lg)
            assert f <= ll + 1e-9 * abs(ll)
        assert free_energy(Y, W, batch_e_step(Y, W, 8), lg) == pytest.approx(ll, rel=1e-14)

    @pytest.mark.parametrize("c_prime", [1, 3, 11, 12])
    def test_blocked_equals_unblocked_formula(self, c_prime):
        # The 513 points span row blocks of 252, 252 and 9 (padded) at every C'.
        rng = np.random.default_rng(18)
        W = random_weights(rng, 12, 9, 20.0)
        Y = random_observations(rng, 513, 9, 20.0)
        sets, lg = batch_e_step(Y, W, c_prime), lgamma_sums(Y)
        lj = (np.take_along_axis(integrate(W, Y), sets, axis=1) - W.W.sum(axis=1)[sets]
              - lg[:, None] - np.log(W.C))
        assert free_energy(Y, W, sets, lg) == float(logsumexp(lj, axis=1).sum())

    @pytest.mark.parametrize("c_prime", [1, 3, 12])
    def test_inputs_and_sets_left_untouched(self, c_prime):
        # free_energy and the fused TV-EM pass read the same sets, and
        # neither writes them or the observations.
        rng = np.random.default_rng(20)
        W = random_weights(rng, 12, 9, 20.0)
        Y = random_observations(rng, 513, 9, 20.0)
        sets, lg = batch_e_step(Y, W, c_prime), lgamma_sums(Y)
        Y_bytes, sets_bytes = Y.tobytes(), sets.tobytes()
        f = free_energy(Y, W, sets, lg)
        assert Y.tobytes() == Y_bytes and sets.tobytes() == sets_bytes
        (_, _, f_new), f_prev = learning._tv_em_pass(Y, W, c_prime, lg, sets)
        assert f_prev == f_new == f
        assert Y.tobytes() == Y_bytes and sets.tobytes() == sets_bytes

    def test_no_points_give_the_empty_sum(self):
        # The range check reduced an empty index matrix and raised numpy's
        # zero-size error.
        W = random_weights(np.random.default_rng(22), 12, 9, 20.0)
        Y = np.empty((0, 9))
        assert free_energy(Y, W, np.empty((0, 3), dtype=np.intp), np.empty(0)) == 0.0

    @pytest.mark.parametrize("bad, match", [
        ("negative", "out of range"),  # -1 took the last column of the row before
        ("equal-C", "out of range"),   # C ran past the end of the flat activations
        ("broadcast", "out of range"),  # a zero row stride is checked on its one row
        ("vector", "index matrix"),    # broadcast to an (n, n) set matrix per block
    ])
    def test_rejects_sets_that_are_not_an_index_matrix_in_range(self, bad, match):
        rng = np.random.default_rng(21)
        W = random_weights(rng, 12, 9, 20.0)
        Y = random_observations(rng, 300, 9, 20.0)
        sets, lg = batch_e_step(Y, W, 3).copy(), lgamma_sums(Y)
        if bad == "vector":
            sets = sets[:, 0]
        elif bad == "broadcast":
            sets = np.broadcast_to([0, 1, W.C], sets.shape)
        else:
            sets[-1, 0] = -1 if bad == "negative" else W.C
        with pytest.raises(ValueError, match=match):
            free_energy(Y, W, sets, lg)

    @pytest.mark.parametrize("extra", [1, -1])
    def test_rejects_lgamma_sums_of_another_length(self, extra):
        # A longer vector was read only up to N, so F came out wrong with no
        # error; a shorter one failed in numpy's broadcasting.
        rng = np.random.default_rng(26)
        W = random_weights(rng, 12, 9, 20.0)
        Y = random_observations(rng, 300, 9, 20.0)
        lg = lgamma_sums(random_observations(rng, 300 + extra, 9, 20.0))
        match = rf"^lgamma_sums \({300 + extra},\) must be \(N=300,\)$"
        with pytest.raises(ValueError, match=match):
            free_energy(Y, W, batch_e_step(Y, W, 3), lg)

    @pytest.mark.parametrize("sets_from", ["given", "e_step"])
    def test_full_sets_peak_is_one_activation_matrix_plus_blocks(self, sets_from):
        # The unblocked pass peaked at about seven (N, C) arrays, I included.
        # The E-step's sets at C'=C are a view of one arange(C) row; an
        # N-fold copy of it took the trace pass to 2.2 arrays.
        rng = np.random.default_rng(19)
        N, C, D = 8000, 100, 8
        W = random_weights(rng, C, D, 20.0)
        Y = random_observations(rng, N, D, 20.0)
        full, lg = np.tile(np.arange(C), (N, 1)), lgamma_sums(Y)
        tracemalloc.start()
        try:
            free_energy(Y, W, full if sets_from == "given" else batch_e_step(Y, W, C), lg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * N * C * 8

    def test_broadcast_full_sets_equal_tiled_sets(self):
        # The E-step's broadcast arange(C) is reduced in place, the tiled
        # copy through the gather; 513 points span three blocks.
        rng = np.random.default_rng(28)
        W = random_weights(rng, 12, 9, 20.0)
        Y = random_observations(rng, 513, 9, 20.0)
        lg = lgamma_sums(Y)
        full = batch_e_step(Y, W, 12)
        assert full.strides[0] == 0
        tiled = np.tile(np.arange(12), (513, 1))
        assert free_energy(Y, W, full, lg) == free_energy(Y, W, tiled, lg)

    @pytest.mark.parametrize("form, in_place", [
        ("broadcast", True),
        ("tiled", False),
        ("permuted", False),  # a broadcast row in another order
        ("short", False),     # a broadcast arange(C - 1)
    ])
    def test_only_a_broadcast_arange_is_its_own_joints(self, form, in_place):
        rng = np.random.default_rng(29)
        n, C = 7, 12
        I = rng.normal(scale=30.0, size=(n, C))
        row = {"broadcast": np.arange(C), "tiled": np.arange(C), "short": np.arange(C - 1),
               "permuted": rng.permutation(C)}[form]
        sets = np.tile(row, (n, 1)) if form == "tiled" else np.broadcast_to(row, (n, len(row)))
        before = I.copy()
        probs = np.empty(sets.shape)
        learning._support_lse(I, sets, np.zeros(C), np.zeros(n), probs)
        assert np.array_equal(I, before) != in_place
        for r in range(n):
            assert np.array_equal(probs[r], inference.truncated_posterior(before[r], sets[r]))


class TestBatchESet:
    def test_full_truncation_returns_everything(self):
        rng = np.random.default_rng(7)
        W = random_weights(rng, 5, 4, 9.0)
        Y = random_observations(rng, 6, 4, 9.0)
        np.testing.assert_array_equal(batch_e_step(Y, W, 5), np.tile(np.arange(5), (6, 1)))

    def test_full_truncation_builds_no_activations(self):
        # At C'=C every set is all clusters whatever the activations, so the
        # E-step computes none; integrate's (N, C) output alone would be one array.
        rng = np.random.default_rng(20)
        N, C, D = 8000, 100, 8
        W = random_weights(rng, C, D, 20.0)
        Y = random_observations(rng, N, D, 20.0)
        tracemalloc.start()
        try:
            sets = batch_e_step(Y, W, C)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * N * C * 8
        assert np.array_equal(sets, np.tile(np.arange(C), (N, 1)))

    @pytest.mark.parametrize("c_prime", [1, 2, 3, 5])
    def test_dimension_mismatch_raises(self, c_prime):
        # One check before any activation is computed: below C'=C too, the
        # message is the E-step's, not numpy's matmul error.
        rng = np.random.default_rng(21)
        W = random_weights(rng, 5, 4, 9.0)
        with pytest.raises(ValueError, match=r"^Y has D=3, W has D=4$"):
            batch_e_step(random_observations(rng, 6, 3, 9.0), W, c_prime)

    def test_matches_exhaustive_enumeration(self):
        # Independent oracle: try every (6 choose 2) support per point and
        # keep the one with the largest truncated mass.
        rng = np.random.default_rng(8)
        W = random_weights(rng, 6, 4, 9.0)
        Y = random_observations(rng, 4, 4, 9.0)
        got = batch_e_step(Y, W, 2)
        for n in range(4):
            best, best_f = None, -np.inf
            for subset in itertools.combinations(range(6), 2):
                f = mp_free_energy(Y[n : n + 1], W.W, [list(subset)], 6)
                if f > best_f:
                    best, best_f = subset, f
            assert tuple(got[n]) == best

    def test_maximizes_free_energy_over_random_sets(self):
        rng = np.random.default_rng(9)
        W = random_weights(rng, 10, 6, 13.0)
        Y = random_observations(rng, 15, 6, 13.0)
        chosen = batch_e_step(Y, W, 3)
        lg = lgamma_sums(Y)
        f_star = free_energy(Y, W, chosen, lg)
        for _ in range(20):
            alt = np.stack([
                np.sort(rng.choice(10, size=3, replace=False)) for _ in range(15)
            ])
            assert f_star >= free_energy(Y, W, alt, lg) - 1e-12 * abs(f_star)


class TestBatchMStep:
    def test_single_point_one_hot_copies_input(self):
        rng = np.random.default_rng(10)
        W = random_weights(rng, 4, 5, 12.0)
        y = random_observations(rng, 1, 5, 12.0)
        posteriors = (np.array([[2]]), np.array([[1.0]]))
        W_new, dead = batch_m_step(y, posteriors, W)
        np.testing.assert_array_equal(W_new.W[2], y[0])
        assert dead == 3
        np.testing.assert_array_equal(W_new.W[[0, 1, 3]], W.W[[0, 1, 3]])

    def test_uniform_posteriors_give_data_mean(self):
        rng = np.random.default_rng(11)
        W = random_weights(rng, 3, 4, 9.0)
        Y = random_observations(rng, 20, 4, 9.0)
        sup = np.tile(np.arange(3), (20, 1))
        probs = np.full((20, 3), 1.0 / 3)
        W_new, dead = batch_m_step(Y, (sup, probs), W)
        assert dead == 0
        for c in range(3):
            np.testing.assert_allclose(W_new.W[c], Y.mean(axis=0), rtol=1e-12)

    def test_matches_weighted_mean_oracle(self):
        C, D, N = 7, 5, 40
        for cp in (1, 3, C):
            rng = np.random.default_rng(12)
            W = random_weights(rng, C, D, 11.0)
            Y = random_observations(rng, N, D, 11.0)
            sup = np.stack([np.sort(rng.choice(C, size=cp, replace=False)) for _ in range(N)])
            probs = rng.dirichlet(np.ones(cp), size=N)
            W_new, _ = batch_m_step(Y, (sup, probs), W)
            dense = np.zeros((N, C))
            np.put_along_axis(dense, sup, probs, axis=1)
            alive = dense.sum(axis=0) > 0
            oracle = weighted_mean_oracle(Y, dense)
            np.testing.assert_allclose(W_new.W[alive], oracle[alive], rtol=1e-12)
            np.testing.assert_allclose(W_new.W.sum(axis=1), 11.0, rtol=1e-9)

    def test_rejects_unnormalized_posteriors(self):
        rng = np.random.default_rng(14)
        W = random_weights(rng, 3, 3, 8.0)
        Y = random_observations(rng, 2, 3, 8.0)
        bad = (np.array([[0, 1], [1, 2]]), np.array([[0.5, 0.4], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="sum to 1"):
            batch_m_step(Y, bad, W)

    @pytest.mark.parametrize("broadcast", [False, True])
    @pytest.mark.parametrize("index", [-1, 3])
    def test_rejects_support_index_out_of_range(self, index, broadcast):
        # A zero-row-stride support is checked on its one row.
        rng = np.random.default_rng(15)
        W = random_weights(rng, 3, 3, 8.0)
        Y = random_observations(rng, 2, 3, 8.0)
        sup = np.broadcast_to([1, index], (2, 2)) if broadcast else np.array([[0, 1], [1, index]])
        with pytest.raises(ValueError, match="support indices out of range"):
            batch_m_step(Y, (sup, np.full((2, 2), 0.5)), W)

    @pytest.mark.parametrize("sup_shape,probs_shape", [
        ((2, 2), (2, 1)),  # probs would broadcast across the support
        ((3, 2), (3, 2)),  # one row more than Y
        ((1, 2), (1, 2)),  # one row fewer than Y
    ])
    def test_rejects_mismatched_shapes(self, sup_shape, probs_shape):
        rng = np.random.default_rng(16)
        W = random_weights(rng, 3, 3, 8.0)
        Y = random_observations(rng, 2, 3, 8.0)
        sup = np.zeros(sup_shape, dtype=np.intp)
        sup[:, -1] = 1
        probs = np.full(probs_shape, 1.0 / probs_shape[1])
        message = re.escape(str(sup_shape)) + ".*" + re.escape(str(probs_shape))
        with pytest.raises(ValueError, match=message):
            batch_m_step(Y, (sup, probs), W)

    @pytest.mark.parametrize("full", [False, True], ids=["c'<C", "broadcast-full"])
    @pytest.mark.parametrize("Y,message", [
        (np.full(4, 8.0), r"^Y must be an \(N, D\) batch, got shape \(4,\)$"),
        (np.full((4, 2), 12.0), "^Y has D=2, W has D=3$"),
    ], ids=["1-D", "other-D"])
    def test_rejects_a_y_that_is_not_a_batch_of_w_d(self, Y, message, full):
        W = random_weights(np.random.default_rng(17), 3, 3, 8.0)
        if full:
            sup = select_truncation(np.zeros((4, 3)), 3)
        else:
            sup = np.tile([0, 2], (4, 1))
        probs = np.full(sup.shape, 1.0 / sup.shape[1])
        with pytest.raises(ValueError, match=message):
            batch_m_step(Y, (sup, probs), W)

    def test_equals_unblocked_formula_with_a_dead_cluster(self):
        # Cluster 5 is in no support; 513 points as in the free-energy test.
        rng = np.random.default_rng(20)
        N, C, cp, D = 513, 8, 3, 6
        W = random_weights(rng, C, D, 14.0)
        Y = random_observations(rng, N, D, 14.0)
        sup = np.sort(np.argsort(rng.random((N, C - 1)), axis=1)[:, :cp], axis=1)
        sup[sup >= 5] += 1
        probs = rng.dirichlet(np.ones(cp), size=N)
        before = W.W.copy()
        W_new, dead = batch_m_step(Y, (sup, probs), W)
        S = csr_array((probs.ravel(), sup.ravel(), np.arange(N + 1) * cp), shape=(N, C))
        s_sum = np.bincount(sup.ravel(), weights=probs.ravel(), minlength=C)
        alive = s_sum > 0.0
        want = before.copy()
        want[alive] = (S.T @ Y)[alive] / s_sum[alive, None]
        assert dead == 1 and not alive[5]
        assert np.array_equal(W_new.W, want)
        assert np.array_equal(W.W, before)

    def test_no_points_keep_every_row(self):
        # The shared range check skips an empty support matrix, as in
        # free_energy; numpy's zero-size error was raised here.
        W = random_weights(np.random.default_rng(31), 4, 3, 9.0)
        empty = np.empty((0, 2), dtype=np.intp)
        W_new, dead = batch_m_step(np.empty((0, 3)), (empty, np.empty((0, 2))), W)
        assert dead == 4 and np.array_equal(W_new.W, W.W)

    def test_full_support_is_one_dense_product_with_a_dead_cluster(self):
        # At C'=C's broadcast arange(C) no index array is built; S is probs.
        # Cluster 5 holds no mass anywhere.
        rng = np.random.default_rng(30)
        N, C, D = 513, 8, 6
        W = random_weights(rng, C, D, 14.0)
        Y = random_observations(rng, N, D, 14.0)
        probs = rng.dirichlet(np.ones(C), size=N)
        probs[:, 5] = 0.0
        probs /= probs.sum(axis=1, keepdims=True)
        full = np.broadcast_to(np.arange(C), (N, C))
        before = W.W.copy()
        W_new, dead = batch_m_step(Y, (full, probs), W)
        S = csr_array((probs.ravel(), full.ravel(), np.arange(N + 1) * C), shape=(N, C))
        s_sum = np.bincount(full.ravel(), weights=probs.ravel(), minlength=C)
        alive = s_sum > 0.0
        assert dead == 1 and not alive[5]
        np.testing.assert_allclose(W_new.W[alive], (S.T @ Y)[alive] / s_sum[alive, None],
                                   rtol=1e-12, atol=0.0)
        assert np.array_equal(W_new.W[5], before[5])
        assert np.array_equal(W.W, before)

    def test_memory_scales_with_support_not_clusters(self):
        # A dense N x C responsibility matrix alone would be N*C*8 bytes.
        rng = np.random.default_rng(17)
        N, C, cp, D = 4000, 200, 3, 16
        W = random_weights(rng, C, D, 40.0)
        Y = random_observations(rng, N, D, 40.0)
        sup = np.sort(np.argsort(rng.random((N, C)), axis=1)[:, :cp], axis=1)
        probs = rng.dirichlet(np.ones(cp), size=N)
        tracemalloc.start()
        try:
            batch_m_step(Y, (sup, probs), W)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < N * C * 8 / 4


class TestTvEm:
    def make_data(self, seed, n=300, clusters=6, dim=12):
        raw, true_W = generate_mixture(clusters, dim, n, seed=seed)
        ds = preprocess(raw, 4.0 * dim, K=clusters)
        return ds, true_W

    def test_trace_monotone_for_all_truncation_sizes(self):
        ds, _ = self.make_data(0)
        rng = np.random.default_rng(1)
        cfg = ModelConfig(K=2, C=6, C_prime=1, A=48.0, D=12, eps_W=0.1, eps_R=0.1,
                          theta_bvsb=0.5, epochs=1, seed=1)
        for cp in (1, 2, 6):
            W0, _ = init_weights(cfg, ds.Y, np.random.default_rng(2))
            _, trace = run_tv_em(ds.Y, W0, cp, 30, ds.lgamma_sums)
            assert worst_relative_decrease(trace) <= 1e-8
            assert len(trace.entries) == 60

    def test_interleaved_trace_semantics(self):
        ds, _ = self.make_data(3)
        rng = np.random.default_rng(4)
        W = random_weights(rng, 6, 12, 48.0)
        W_new, E_new, f_e, f_m, _ = tv_em_iteration(
            ds.Y, W, unfused_e_step(ds.Y, W, 2, ds.lgamma_sums), 2, ds.lgamma_sums
        )
        # E-step reading uses the new sets with the old weights; M-step
        # reading re-scores the same sets with the refit weights.
        sets = batch_e_step(ds.Y, W, 2)
        assert f_e == pytest.approx(
            free_energy(ds.Y, W, sets, ds.lgamma_sums), rel=1e-14
        )
        assert f_m == pytest.approx(
            free_energy(ds.Y, W_new, sets, ds.lgamma_sums), rel=1e-14
        )
        assert f_m >= f_e
        fresh = unfused_e_step(ds.Y, W_new, 2, ds.lgamma_sums)
        for got, want in zip(E_new, fresh):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("cp", [1, 2, 6])
    def test_carried_activations_are_never_stale(self, cp):
        # run_tv_em carries the E-step at W_t from one iteration to the next;
        # every trace entry must equal F rescored from scratch on the weights
        # it claims, so a stale or skipped activation update breaks equality.
        ds, _ = self.make_data(13, n=120)
        lg = ds.lgamma_sums
        W0 = random_weights(np.random.default_rng(14), 6, 12, 48.0)
        Ws = [W0] + [run_tv_em(ds.Y, W0, cp, t, lg)[0] for t in range(1, 6)]
        for n_iter in range(1, 6):
            _, trace = run_tv_em(ds.Y, W0, cp, n_iter, lg)
            assert [it for it, _ in trace.entries] == list(range(1, 2 * n_iter + 1))
            for t in range(1, n_iter + 1):
                sets = batch_e_step(ds.Y, Ws[t - 1], cp)
                assert trace.entries[2 * t - 2][1] == free_energy(ds.Y, Ws[t - 1], sets, lg)
                assert trace.entries[2 * t - 1][1] == free_energy(ds.Y, Ws[t], sets, lg)

    def test_no_truncation_matches_dense_em_oracle(self):
        ds, _ = self.make_data(5, n=60, clusters=4, dim=6)
        W = random_weights(np.random.default_rng(6), 4, 6, 24.0)
        for _ in range(5):
            post_oracle, W_oracle = dense_em_iteration_oracle(ds.Y, W.W, 4)
            W_new, *_ = tv_em_iteration(
                ds.Y, W, unfused_e_step(ds.Y, W, 4, ds.lgamma_sums), 4, ds.lgamma_sums)
            sets = batch_e_step(ds.Y, W, 4)
            vals = np.take_along_axis(
                np.asarray(ds.Y @ np.log(W.W).T), sets, axis=1
            )
            ours = np.exp(vals - vals.max(axis=1, keepdims=True))
            ours /= ours.sum(axis=1, keepdims=True)
            assert np.max(np.abs(ours - post_oracle)) <= 1e-12
            np.testing.assert_allclose(W_new.W, W_oracle, rtol=1e-10)
            W = W_new

    def test_dead_cluster_rows_keep_previous_values(self):
        rng = np.random.default_rng(7)
        ds, _ = self.make_data(8, n=20, clusters=4, dim=8)
        W = random_weights(rng, 12, 8, 32.0)
        W_new, _, _, _, dead_clusters = tv_em_iteration(
            ds.Y, W, unfused_e_step(ds.Y, W, 1, ds.lgamma_sums), 1, ds.lgamma_sums
        )
        assert dead_clusters >= 1
        sets = batch_e_step(ds.Y, W, 1)
        dead = np.setdiff1d(np.arange(12), np.unique(sets))
        assert dead_clusters == dead.size
        np.testing.assert_array_equal(W_new.W[dead], W.W[dead])

    def test_parameter_recovery_small(self):
        ds, true_W = self.make_data(9, n=800, clusters=4, dim=12)
        cfg = ModelConfig(K=2, C=4, C_prime=2, A=48.0, D=12, eps_W=0.1, eps_R=0.1,
                          theta_bvsb=0.5, epochs=1, seed=0)
        W0, _ = init_weights(cfg, ds.Y, np.random.default_rng(10))
        W_fit, _ = run_tv_em(ds.Y, W0, 2, 40, ds.lgamma_sums)
        # The pipeline fits normalized data, so map the generating rows
        # through the same normalization before comparing.
        mapped = (48.0 - 12.0) * true_W / true_W.sum(axis=1, keepdims=True) + 1.0
        cost = np.abs(W_fit.W[:, None, :] - mapped[None, :, :]).sum(axis=2)
        rows, cols = linear_sum_assignment(cost)
        rel_l1 = cost[rows, cols].sum() / np.abs(mapped).sum()
        assert rel_l1 <= 0.05

    def test_free_energy_below_likelihood_at_every_iteration(self):
        ds, _ = self.make_data(11, n=150, clusters=5, dim=10)
        W = random_weights(np.random.default_rng(12), 5, 10, 40.0)
        full = np.tile(np.arange(5), (ds.N, 1))
        for _ in range(10):
            W, _, _, f_m, _ = tv_em_iteration(
                ds.Y, W, unfused_e_step(ds.Y, W, 2, ds.lgamma_sums), 2, ds.lgamma_sums)
            ll = free_energy(ds.Y, W, full, ds.lgamma_sums)
            assert f_m <= ll + 1e-9 * abs(ll)
        # With full sets the bound is tight.
        W_full, _, _, f_full, _ = tv_em_iteration(
            ds.Y, W, unfused_e_step(ds.Y, W, 5, ds.lgamma_sums), 5, ds.lgamma_sums
        )
        ll = free_energy(ds.Y, W_full, full, ds.lgamma_sums)
        assert f_full == pytest.approx(ll, rel=1e-13)

    def test_run_peaks_below_one_activation_matrix(self):
        # The run held two (N, C) activation matrices at every M-step and
        # peaked at 2.1 of them here; its passes now reduce each row block in
        # cache and keep only the (N, C') sets and posteriors (0.39).
        rng = np.random.default_rng(23)
        N, C, D = 8000, 100, 8
        W = random_weights(rng, C, D, 20.0)
        Y = random_observations(rng, N, D, 20.0)
        lg = lgamma_sums(Y)
        tracemalloc.start()
        try:
            run_tv_em(Y, W, 5, 3, lg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < N * C * 8

    def test_full_support_run_peaks_below_two_and_a_half_activation_matrices(self):
        # At C'=C the old and new (N, C) posteriors must coexist, and the
        # rest is blocks; the M-step's index arrays and sparse S took the
        # run to 4.3 arrays here.
        rng = np.random.default_rng(28)
        N, C, D = 8000, 100, 8
        W = random_weights(rng, C, D, 20.0)
        Y = random_observations(rng, N, D, 20.0)
        lg = lgamma_sums(Y)
        tracemalloc.start()
        try:
            run_tv_em(Y, W, C, 2, lg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * N * C * 8

    @pytest.mark.parametrize("c_prime, prev", [(6, "broadcast"), (6, "tiled"), (6, "top-2"),
                                               (2, "broadcast")])
    def test_pass_with_full_sets_reduces_the_block_last(self, c_prime, prev):
        # A full support's reduction overwrites its block, so whatever else
        # the pass reads from the block comes first.  At C'=C with the
        # broadcast sets both F come from one reduction.
        ds, _ = self.make_data(29, n=513)
        W = random_weights(np.random.default_rng(29), 6, 12, 48.0)
        lg, full = ds.lgamma_sums, np.broadcast_to(np.arange(6), (513, 6))
        prev_sets = {"broadcast": full, "tiled": np.tile(np.arange(6), (513, 1)),
                     "top-2": batch_e_step(ds.Y, W, 2)}[prev]
        (sets, probs, f), f_prev = learning._tv_em_pass(ds.Y, W, c_prime, lg, prev_sets)
        assert f_prev == free_energy(ds.Y, W, prev_sets, lg)
        assert f == free_energy(ds.Y, W, sets, lg)
        if c_prime == 6 and prev != "top-2":
            assert f_prev == f
        (want_sets, want_probs, want_f), _ = learning._tv_em_pass(ds.Y, W, c_prime, lg)
        assert np.array_equal(sets, want_sets) and np.array_equal(probs, want_probs)
        I = integrate(W, ds.Y)
        for n in range(0, 513, 37):
            assert np.array_equal(probs[n], inference.truncated_posterior(I[n], sets[n]))

    def test_no_points_is_a_data_error(self):
        W = random_weights(np.random.default_rng(24), 6, 12, 48.0)
        with pytest.raises(DataError, match="training set is empty"):
            run_tv_em(np.empty((0, 12)), W, 2, 3, np.empty(0))

    @pytest.mark.parametrize("c_prime", [0, 7])
    def test_truncation_size_outside_range_is_value_error(self, c_prime):
        ds, _ = self.make_data(25, n=40)
        W = random_weights(np.random.default_rng(25), 6, 12, 48.0)
        with pytest.raises(ValueError, match=rf"^c_prime must lie in \[1, 6\], got {c_prime}$"):
            run_tv_em(ds.Y, W, c_prime, 1, ds.lgamma_sums)

    def test_monotonicity_violation_raises(self):
        trace = FreeEnergyTrace()
        trace.append(1, -100.0)
        trace.append(2, -100.0000001)  # within slack
        trace.assert_monotone()
        trace.append(3, -101.0)
        with pytest.raises(MonotonicityError, match="trace index 3"):
            trace.assert_monotone()

    def test_monotonicity_message_prints_plain_numbers(self):
        trace = FreeEnergyTrace()
        trace.append(1, -10.0)
        trace.append(2, -11.5)
        with pytest.raises(MonotonicityError) as e:
            trace.assert_monotone()
        assert str(e.value) == "free energy fell from -10.0 to -11.5 at trace index 2"

    @pytest.mark.parametrize("values", [
        [math.nan, -10.0],
        [-10.0, math.nan],
        [-10.0, math.nan, -50.0],  # holds a fall of 40
    ])
    def test_nan_in_the_trace_raises(self, values):
        trace = FreeEnergyTrace()
        for it, v in enumerate(values, start=1):
            trace.append(it, v)
        with pytest.raises(MonotonicityError, match="trace index 2"):
            trace.assert_monotone()

    @pytest.mark.parametrize("extra", [1, -1])
    def test_rejects_lgamma_sums_of_another_length(self, extra):
        ds, _ = self.make_data(27)
        W = random_weights(np.random.default_rng(27), 6, 12, 48.0)
        lg = np.append(ds.lgamma_sums, 0.0) if extra > 0 else ds.lgamma_sums[:-1]
        match = rf"^lgamma_sums \({300 + extra},\) must be \(N=300,\)$"
        with pytest.raises(ValueError, match=match):
            run_tv_em(ds.Y, W, 2, 1, lg)
        E = unfused_e_step(ds.Y, W, 2, ds.lgamma_sums)
        with pytest.raises(ValueError, match=match):
            tv_em_iteration(ds.Y, W, E, 2, lg)


def eager_farthest_point(Y, clusters, rng):
    """Reference farthest-point loop: all N distances updated at every step."""
    chosen = [int(rng.integers(0, len(Y)))]
    dist = np.abs(Y - Y[chosen[0]]).sum(axis=1)
    for _ in range(clusters - 1):
        chosen.append(int(np.argmax(dist)))
        dist = np.minimum(dist, np.abs(Y - Y[chosen[-1]]).sum(axis=1))
    return Y[chosen]


class TestInitFromData:
    @pytest.mark.parametrize("n,clusters", [(150, 7), (128, 128), (5, 1)])
    def test_matches_unblocked_farthest_point_loop(self, n, clusters):
        # 128 clusters refresh bounds across four 32-row chunks.
        Y = random_observations(np.random.default_rng(n), n, 9, 40.0)
        W = init_from_data(Y, clusters, 40.0, np.random.default_rng(3))
        assert np.array_equal(W.W, eager_farthest_point(Y, clusters, np.random.default_rng(3)))

    @settings(deadline=None)
    @given(st.data())
    def test_matches_eager_loop_with_duplicate_rows_and_tied_distances(self, data):
        # Rows of 1 + (counts of m units over D columns) are small integers
        # summing to A = D + m: duplicates and equal distances are common.
        # Past 33 clusters a refresh can span more than one 32-row chunk.
        N = data.draw(st.integers(1, 100), label="N")
        D = data.draw(st.integers(1, 5), label="D")
        m = data.draw(st.integers(0, 6), label="m")
        units = data.draw(arrays(np.int64, (N, m), elements=st.integers(0, D - 1)), label="units")
        Y = 1.0 + np.stack([np.bincount(row, minlength=D) for row in units]).astype(np.float64)
        clusters = data.draw(st.integers(1, N), label="clusters")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        W = init_from_data(Y, clusters, float(D + m), np.random.default_rng(seed))
        assert np.array_equal(W.W, eager_farthest_point(Y, clusters, np.random.default_rng(seed)))

    @pytest.mark.parametrize("clusters", [0, 6])
    def test_rejects_cluster_count_outside_one_to_n(self, clusters):
        Y = random_observations(np.random.default_rng(0), 5, 4, 20.0)
        message = f"need 1 to N=5 clusters, one observation each, got {clusters}"
        with pytest.raises(ValueError, match=message):
            init_from_data(Y, clusters, 20.0, np.random.default_rng(0))


class TestFreeEnergyTrace:
    def test_indices_strictly_increasing(self):
        trace = FreeEnergyTrace()
        trace.append(0, -5.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            trace.append(0, -4.0)

    def test_csv_round_trip_full_precision(self, tmp_path):
        # The trace reaches disk through save_run's free_energy.csv.
        from truncmix.harness import RunReport, save_run

        trace = FreeEnergyTrace()
        trace.append(0, -123.45678901234567)
        trace.append(1, -0.1)
        cfg = ModelConfig(K=2, C=2, C_prime=1, A=12.0, D=4, eps_W=0.01, eps_R=0.01,
                          theta_bvsb=0.6, epochs=1, seed=0)
        report = RunReport(config=cfg, n_labeled=0, init_hash="",
                           test_errors=[0.5, 0.25], trace=trace, gate_stats=[],
                           timings=[])
        W = BottomWeights(np.full((2, 4), 3.0), 12.0)
        R = TopWeights(np.full((2, 2), 0.5))
        save_run(tmp_path, report, W, R)
        lines = (tmp_path / "free_energy.csv").read_text().splitlines()
        assert lines[0] == "epoch,free_energy"
        assert len(lines) == 1 + len(trace.entries)
        for line, (it, v) in zip(lines[1:], trace.entries):
            i_str, v_str = line.split(",")
            assert int(i_str) == it and float(v_str) == v

    def test_worst_relative_decrease(self):
        trace = FreeEnergyTrace()
        for i, v in enumerate([-100.0, -90.0, -99.0]):
            trace.append(i, v)
        assert worst_relative_decrease(trace) == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# Online learning
# ---------------------------------------------------------------------------

def online_setup(seed=0, n=200, labeled="all"):
    raw, _ = generate_mixture(4, 8, n, seed=seed)
    ds = preprocess(raw, 32.0, K=4)
    if labeled == "none":
        ds = Dataset(ds.Y, np.full(ds.N, -1, dtype=np.int64), 4, 32.0)
    cfg = ModelConfig(K=4, C=6, C_prime=2, A=32.0, D=8,
                      eps_W=0.2 * 6 / n, eps_R=0.2 * 4 / n,
                      theta_bvsb=0.6, epochs=1, seed=seed)
    W, R = init_weights(cfg, ds.Y, np.random.default_rng(seed))
    return ds, cfg, W, R


class TestOnlineEpoch:
    def test_all_labeled_bypasses_gate(self):
        ds, cfg, W, R = online_setup()
        gates, _ = online_epoch(ds, W, R, cfg, np.random.default_rng(0))
        assert gates["labeled_updates"] == ds.N
        assert gates["unlabeled_passed"] == 0 and gates["unlabeled_skipped"] == 0

    def test_threshold_one_blocks_all_unlabeled(self):
        ds, cfg, W, R = online_setup(labeled="none")
        cfg = replace(cfg, theta_bvsb=1.0)
        gates, _ = online_epoch(ds, W, R, cfg, np.random.default_rng(0))
        assert gates["unlabeled_passed"] == 0
        assert gates["unlabeled_skipped"] == ds.N

    def test_gate_passes_confident_class_posterior(self):
        # One unlabeled point whose support column yields t = (0.9, 0.1):
        # margin 0.8 clears a 0.6 threshold but not 0.85.
        y = np.array([6.0, 2.0, 2.0, 2.0])
        W = BottomWeights(np.vstack([y, [2.0, 6.0, 2.0, 2.0]]), 12.0)
        R = TopWeights(np.array([[0.45, 0.55], [0.05, 0.95]]))
        ds = Dataset(y[None, :], np.array([-1]), 2, 12.0)
        cfg = ModelConfig(K=2, C=2, C_prime=1, A=12.0, D=4, eps_W=0.01, eps_R=0.01,
                          theta_bvsb=0.6, epochs=1, seed=0)
        gates, _ = online_epoch(ds, *copy_weights(W, R), cfg, np.random.default_rng(0))
        assert gates["unlabeled_passed"] == 1
        gates, _ = online_epoch(
            ds, *copy_weights(W, R), replace(cfg, theta_bvsb=0.85), np.random.default_rng(0)
        )
        assert gates["unlabeled_skipped"] == 1

    def test_bottom_write_count(self):
        ds, cfg, W, R = online_setup()
        gates, _ = online_epoch(ds, W, R, cfg, np.random.default_rng(0))
        assert gates["bottom_writes"] == ds.N * cfg.C_prime * cfg.D

    def test_deterministic_given_seed(self):
        ds, cfg, W1, R1 = online_setup(seed=3)
        _, _, W2, R2 = online_setup(seed=3)
        online_epoch(ds, W1, R1, cfg, np.random.default_rng(42))
        online_epoch(ds, W2, R2, cfg, np.random.default_rng(42))
        assert np.array_equal(W1.W, W2.W) and np.array_equal(R1.R, R2.R)

    def test_invariants_after_epochs(self):
        ds, cfg, W, R = online_setup(seed=4, labeled="all")
        rng = np.random.default_rng(5)
        for _ in range(3):
            online_epoch(ds, W, R, cfg, rng)
        np.testing.assert_allclose(W.W.sum(axis=1), 32.0, rtol=1e-6)
        np.testing.assert_allclose(R.R.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(W.W > 0.0)
        W.validate()
        R.validate()

    def test_non_finite_weight_names_the_sample(self):
        ds, cfg, W, R = online_setup()
        W.W[1, 2] = np.inf
        with pytest.raises(FloatingPointError, match="non-finite activation at epoch sample 0"):
            online_epoch(ds, W, R, cfg, np.random.default_rng(0))

    def test_non_finite_recomputed_row_names_the_sample(self, monkeypatch):
        # B = min(16, C // C') = 3: a weight poisoned before sample 0's step
        # enters the activations that the step refreshes for sample 1, inside
        # the same block.
        ds, cfg, W, R = online_setup()
        update_bottom = learning.update_bottom
        calls = []

        def poisoning_update(W, logw, support, *args):
            if not calls:
                W.W[support[0], 0] = np.inf
            update_bottom(W, logw, support, *args)
            calls.append(support)

        monkeypatch.setattr(learning, "update_bottom", poisoning_update)
        with pytest.raises(FloatingPointError, match="non-finite activation at epoch sample 1$"):
            online_epoch(ds, W, R, cfg, np.random.default_rng(0))
        assert len(calls) == 1

    def test_non_finite_fused_activation_names_the_sample(self, monkeypatch):
        # At C'=C each step computes the next point's activations: a weight
        # poisoned after sample 0's step enters the activations that sample
        # 1's step computes for sample 2.
        ds, cfg, W, R = online_setup()
        cfg = replace(cfg, C_prime=cfg.C)
        update_bottom = learning.update_bottom
        calls = []

        def poisoning_update(W, *args):
            update_bottom(W, *args)
            if not calls:
                W.W[3, 0] = np.inf
            calls.append(args)

        monkeypatch.setattr(learning, "update_bottom", poisoning_update)
        with pytest.raises(FloatingPointError, match="non-finite activation at epoch sample 2$"):
            online_epoch(ds, W, R, cfg, np.random.default_rng(0))
        assert len(calls) == 2


def reference_online_epoch(ds, W, R, cfg, rng, blocked=True):
    """``online_epoch`` written with the plain formulas: a stable-sort top-C'
    with ties to the smaller index, a ``take_along_axis`` softmax, normalized
    support columns of R, a double gather/scatter bottom step, and a dense
    ``np.outer`` top step.

    Integration is blocked as in ``online_epoch``: one GEMM per 16 (at most
    C // C') consecutive points against log W at the block's start, and
    after each bottom step the block's later points get the written columns
    again, ``Y_later @ logw[support].T``.  ``blocked=False`` integrates
    every point by its own ``logw @ y``.
    Returns the gate counts, the number of samples whose C'-th and
    (C'+1)-th largest activations tie, and every sample's support."""
    w, r = W.W, R.R
    logw = np.log(w)
    counts = {"labeled_updates": 0, "unlabeled_passed": 0, "unlabeled_skipped": 0}
    ties = 0
    supports = []
    block = min(16, cfg.C // cfg.C_prime)
    order = rng.permutation(ds.N)
    for n, i in enumerate(order):
        y = ds.Y[i]
        if not blocked:
            I = logw @ y
        else:
            if n % block == 0:
                snapshot = ds.Y[order[n : n + block]] @ logw.T
            I = snapshot[n % block].copy()
        ranked = np.argsort(-I, kind="stable")
        if cfg.C_prime < cfg.C and I[ranked[cfg.C_prime - 1]] == I[ranked[cfg.C_prime]]:
            ties += 1
        support = np.sort(ranked[: cfg.C_prime])
        supports.append(support)
        picked = np.take_along_axis(I, support, axis=-1)
        probs = np.exp(picked - picked.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        label = int(ds.labels[i])
        if label == -1:
            cols = r[:, support]
            sums = cols.sum(axis=0)
            cols = np.where(sums == 0.0, 1.0 / cfg.K, cols)
            t = (cols / np.where(sums == 0.0, 1.0, sums)) @ probs
        else:
            t = np.zeros(cfg.K)
            t[label] = 1.0
        es = cfg.eps_W * probs
        w[support] *= (1.0 - es)[:, None]
        w[support] += es[:, None] * y
        logw[support] = np.log(w[support])
        if blocked:
            k = n % block
            snapshot[k + 1 :, support] = ds.Y[order[n + 1 : n - k + block]] @ logw[support].T
        top2 = np.sort(t)[-2:]
        if label != -1 or top2[1] - top2[0] > cfg.theta_bvsb:
            et = cfg.eps_R * t
            r *= (1.0 - et)[:, None]
            r[:, support] += np.outer(et, probs)
            counts["labeled_updates" if label != -1 else "unlabeled_passed"] += 1
        else:
            counts["unlabeled_skipped"] += 1
    return counts, ties, supports


class TestOnlineEpochOracle:
    """``online_epoch`` must equal the plain formulas bit for bit."""

    @staticmethod
    def make_state(c_prime):
        raw, _ = generate_mixture(4, 8, 240, seed=11)
        ds = preprocess(raw, 32.0, K=4)
        # Every third point keeps its label; the rest go through the gate.
        labels = np.where(np.arange(ds.N) % 3 == 0, ds.labels, -1)
        ds = Dataset(ds.Y, labels, 4, 32.0)
        cfg = ModelConfig(K=4, C=12, C_prime=c_prime, A=32.0, D=8,
                          eps_W=0.05, eps_R=0.05, theta_bvsb=0.3, epochs=1, seed=0)
        # Each of six rows twice, so activations tie exactly until the copies
        # are updated apart.
        W = BottomWeights(np.tile(ds.Y[:6], (2, 1)), 32.0)
        # Zero columns send the class posterior through its uniform fallback;
        # ties go to these smaller indices.
        R0 = np.full((4, 12), 1.0)
        R0[:, :6] = 0.0
        R = TopWeights(R0 / R0.sum(axis=1, keepdims=True))
        return ds, cfg, W, R

    @pytest.mark.parametrize("c_prime", [1, 3, 12])
    def test_matches_reference_bit_for_bit(self, c_prime):
        ds, cfg, W, R = self.make_state(c_prime)
        W_ref, R_ref = copy_weights(W, R)
        for epoch in range(3):
            gates, _ = online_epoch(ds, W, R, cfg, np.random.default_rng(epoch))
            counts, ties, _ = reference_online_epoch(ds, W_ref, R_ref, cfg,
                                                     np.random.default_rng(epoch))
            assert gates == {**counts, "bottom_writes": ds.N * c_prime * 8}
            assert np.array_equal(W.W, W_ref.W) and np.array_equal(R.R, R_ref.R)
            if epoch == 0:
                assert counts["unlabeled_passed"] and counts["unlabeled_skipped"]
                assert ties > 0 or c_prime == cfg.C

    @pytest.mark.parametrize("c_prime", [1, 3, 12])
    def test_blocked_integrate_matches_per_point_matvec(self, c_prime, monkeypatch):
        # Blocking changes rounding only: on a draw without ties every support
        # and gate decision equals the per-point matvec's.  239 points leave a
        # partial last block at B=12 (C'=1) and B=4 (C'=3); at C'=C, B=1.
        # The blocked reference still matches bit for bit.
        raw, _ = generate_mixture(4, 8, 239, seed=5)
        ds = preprocess(raw, 32.0, K=4)
        labels = np.where(np.arange(ds.N) % 3 == 0, ds.labels, -1)
        ds = Dataset(ds.Y, labels, 4, 32.0)
        cfg = ModelConfig(K=4, C=12, C_prime=c_prime, A=32.0, D=8,
                          eps_W=0.05, eps_R=0.05, theta_bvsb=0.7, epochs=1, seed=0)
        W = BottomWeights(ds.Y[:12].copy(), 32.0)
        R0 = np.random.default_rng(5).random((4, 12)) ** 4
        R = TopWeights(R0 / R0.sum(axis=1, keepdims=True))
        W_ref, R_ref = copy_weights(W, R)
        W_blk, R_blk = copy_weights(W, R)
        seen = []

        def recording_select(I, cp):
            support = select_truncation(I, cp)
            seen.append(support.copy())
            return support

        monkeypatch.setattr(learning, "select_truncation", recording_select)
        for epoch in range(2):
            seen.clear()
            gates, _ = online_epoch(ds, W, R, cfg, np.random.default_rng(epoch))
            counts, ties, supports = reference_online_epoch(
                ds, W_ref, R_ref, cfg, np.random.default_rng(epoch), blocked=False)
            reference_online_epoch(ds, W_blk, R_blk, cfg, np.random.default_rng(epoch))
            assert np.array_equal(W.W, W_blk.W) and np.array_equal(R.R, R_blk.R)
            assert ties == 0
            assert gates == {**counts, "bottom_writes": ds.N * c_prime * 8}
            assert all(np.array_equal(a, b) for a, b in zip(seen, supports, strict=True))
            if c_prime == cfg.C:
                assert np.array_equal(W.W, W_ref.W) and np.array_equal(R.R, R_ref.R)
            else:
                np.testing.assert_allclose(W.W, W_ref.W, rtol=1e-12, atol=0.0)
                np.testing.assert_allclose(R.R, R_ref.R, rtol=1e-12, atol=0.0)
        assert counts["unlabeled_passed"] and counts["unlabeled_skipped"]

    @pytest.mark.parametrize("c_prime", [1, 3, 12])
    def test_class_posterior_cache_built_only_when_read_after_a_write(self, c_prime, monkeypatch):
        # R's normalized columns are rebuilt before an unlabeled point only
        # if update_top (labeled or passed) wrote R since the last build.
        calls = []

        def counting(cols):
            calls.append(1)
            return normalized_columns(cols)

        monkeypatch.setattr(learning, "normalized_columns", counting)
        ds, cfg, W, R = self.make_state(c_prime)
        labeled = Dataset(ds.Y, np.arange(ds.N) % 4, 4, 32.0)
        gates, _ = online_epoch(labeled, W, R, cfg, np.random.default_rng(0))
        assert gates["labeled_updates"] == ds.N and not calls
        ds, cfg, W, R = self.make_state(c_prime)
        gates, _ = online_epoch(ds, W, R, cfg, np.random.default_rng(0))
        assert gates["unlabeled_passed"]
        assert 1 <= len(calls) <= 1 + gates["labeled_updates"] + gates["unlabeled_passed"]

    @pytest.mark.parametrize("zero_cols", [0, 4])
    @pytest.mark.parametrize("K", [4, 10])
    @pytest.mark.parametrize("c_prime", [3, 12])
    def test_cached_class_posterior_rounds_as_per_support_normalization(
        self, K, c_prime, zero_cols, monkeypatch
    ):
        # The cache's column sums run over a Fortran-ordered copy of R
        # (pairwise over K >= 8), so they and the gathered (K, C') matvec
        # round as normalizing the support's own columns does, at C'=C too.
        # Column sums taken in R's C order fail here.  Zero-sum columns take
        # the 1/K fallback in the order of the input.
        raw, _ = generate_mixture(K, 16, 240, seed=3)
        ds = preprocess(raw, 32.0, K=K)
        ds = Dataset(ds.Y, np.where(np.arange(ds.N) % 4 == 0, ds.labels, -1), K, 32.0)
        cfg = ModelConfig(K=K, C=12, C_prime=c_prime, A=32.0, D=16,
                          eps_W=0.05, eps_R=0.05, theta_bvsb=0.02, epochs=1, seed=0)
        W = BottomWeights(ds.Y[:12].copy(), 32.0)
        R0 = np.random.default_rng(3).random((K, 12)) + 0.1
        R0[:, :zero_cols] = 0.0
        R = TopWeights(R0 / R0.sum(axis=1, keepdims=True))
        checked = []

        def checking(support, probs, mix, label=None):
            t = class_activation(support, probs, mix, label)
            if label is None:
                assert np.array_equal(t, normalized_columns(R.R[:, support]) @ probs)
                checked.append(1)
            return t

        monkeypatch.setattr(learning, "class_activation", checking)
        gates, _ = online_epoch(ds, W, R, cfg, np.random.default_rng(0))
        assert gates["unlabeled_passed"] and len(checked) == ds.N - gates["labeled_updates"]
