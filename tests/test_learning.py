import itertools
import math
import re
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from truncmix import (
    BottomWeights,
    ModelConfig,
    MonotonicityError,
    TopWeights,
    batch_e_step,
    batch_m_step,
    free_energy,
    generate_mixture,
    init_weights,
    integrate,
    online_epoch,
    preprocess,
    run_tv_em,
    tv_em_iteration,
    update_bottom,
    update_top,
)
from truncmix.data import Dataset
from truncmix.inference import log_joint
from truncmix.learning import FreeEnergyTrace, init_from_data

from conftest import random_observations, random_weights

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


def mp_dense_posterior(W_arr, y, C):
    joints = [mp.e ** mp_log_joint(W_arr[c], y, C) for c in range(C)]
    z = mp.fsum(joints)
    return np.array([float(j / z) for j in joints])


def dense_em_iteration_oracle(Y, W_arr, C):
    """Textbook batch EM for the mass-normalized Poisson mixture."""
    post = np.stack([mp_dense_posterior(W_arr, y, C) for y in Y])
    W_new = (post.T @ Y) / post.sum(axis=0)[:, None]
    return post, W_new


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

    def test_rows_outside_support_untouched(self):
        before = self.W.W.copy()
        s = np.array([1, 3]), np.array([0.25, 0.75])
        update_bottom(self.W, *s, self.y, eps_W=0.5)
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
        update_bottom(self.W, support, np.array([0.5, 0.5]), self.y, eps_W=0.3)
        assert np.array_equal(self.W.W[~mask], before[~mask])

    def test_fixed_point_when_row_equals_input(self):
        self.W.W[2] = self.y
        before = self.W.W[2].copy()
        s = np.array([2]), np.array([1.0])
        update_bottom(self.W, *s, self.y, eps_W=0.7)
        np.testing.assert_allclose(self.W.W[2], before, rtol=1e-14)

    def test_row_sums_conserved(self):
        s = np.array([0, 1, 2]), np.array([0.2, 0.3, 0.5])
        update_bottom(self.W, *s, self.y, eps_W=0.9)
        np.testing.assert_allclose(self.W.W.sum(axis=1), 15.0, rtol=1e-12)

    def test_positivity_preserved_at_full_rate(self):
        s = np.array([1]), np.array([1.0])
        update_bottom(self.W, *s, self.y, eps_W=1.0)
        assert np.all(self.W.W > 0.0)
        np.testing.assert_allclose(self.W.W[1], self.y, rtol=1e-14)

    def test_rate_precondition(self):
        s = np.array([1]), np.array([1.0])
        with pytest.raises(ValueError, match="eps_W"):
            update_bottom(self.W, *s, self.y, eps_W=1.0 + 1e-9)

    def test_full_support_fast_path_matches_fancy_path(self):
        rng = np.random.default_rng(1)
        Wa = random_weights(rng, 5, 4, 10.0)
        Wb = Wa.copy()
        y = random_observations(rng, 1, 4, 10.0)[0]
        probs = rng.dirichlet(np.ones(5))
        update_bottom(Wa, np.arange(5), probs, y, 0.4)
        # Same support presented in an order that defeats the fast path.
        wb = Wb.W
        es = 0.4 * probs
        rows = np.array([4, 2, 0, 1, 3])
        wb[rows] *= (1.0 - es[rows])[:, None]
        wb[rows] += es[rows][:, None] * y
        np.testing.assert_array_equal(Wa.W, wb)


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
        assert free_energy(Y, W, full) == pytest.approx(
            mp_free_energy(Y, W.W, full, 5), rel=1e-14
        )

    def test_single_point_single_cluster_is_log_joint(self):
        rng = np.random.default_rng(4)
        W = random_weights(rng, 4, 3, 7.0)
        y = random_observations(rng, 1, 3, 7.0)[0]
        got = free_energy(y[None, :], W, np.array([[2]]))
        assert got == pytest.approx(log_joint(W.W[2], y, 4), rel=1e-12)

    def test_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(5)
        W = random_weights(rng, 4, 3, 8.0)
        Y = random_observations(rng, 5, 3, 8.0)
        sets = batch_e_step(Y, W, 2)
        got = free_energy(Y, W, sets)
        assert got == pytest.approx(mp_free_energy(Y, W.W, sets, 4), abs=1e-10)

    def test_lower_bounds_likelihood(self):
        rng = np.random.default_rng(6)
        W = random_weights(rng, 8, 5, 11.0)
        Y = random_observations(rng, 30, 5, 11.0)
        ll = free_energy(Y, W, np.tile(np.arange(8), (30, 1)))
        for cp in (1, 3, 8):
            f = free_energy(Y, W, batch_e_step(Y, W, cp))
            assert f <= ll + 1e-9 * abs(ll)
        assert free_energy(Y, W, batch_e_step(Y, W, 8)) == pytest.approx(ll, rel=1e-14)


class TestBatchESet:
    def test_full_truncation_returns_everything(self):
        rng = np.random.default_rng(7)
        W = random_weights(rng, 5, 4, 9.0)
        Y = random_observations(rng, 6, 4, 9.0)
        np.testing.assert_array_equal(batch_e_step(Y, W, 5), np.tile(np.arange(5), (6, 1)))

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
        f_star = free_energy(Y, W, chosen)
        for _ in range(20):
            alt = np.stack([
                np.sort(rng.choice(10, size=3, replace=False)) for _ in range(15)
            ])
            assert f_star >= free_energy(Y, W, alt) - 1e-12 * abs(f_star)


class TestBatchMStep:
    def test_single_point_one_hot_copies_input(self):
        rng = np.random.default_rng(10)
        W = random_weights(rng, 4, 5, 12.0)
        y = random_observations(rng, 1, 5, 12.0)
        posteriors = (np.array([[2]]), np.array([[1.0]]))
        W_new, dead = batch_m_step(y, posteriors, 12.0, W)
        np.testing.assert_array_equal(W_new.W[2], y[0])
        assert dead == 3
        np.testing.assert_array_equal(W_new.W[[0, 1, 3]], W.W[[0, 1, 3]])

    def test_uniform_posteriors_give_data_mean(self):
        rng = np.random.default_rng(11)
        W = random_weights(rng, 3, 4, 9.0)
        Y = random_observations(rng, 20, 4, 9.0)
        sup = np.tile(np.arange(3), (20, 1))
        probs = np.full((20, 3), 1.0 / 3)
        W_new, dead = batch_m_step(Y, (sup, probs), 9.0, W)
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
            W_new, _ = batch_m_step(Y, (sup, probs), 11.0, W)
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
            batch_m_step(Y, bad, 8.0, W)

    @pytest.mark.parametrize("index", [-1, 3])
    def test_rejects_support_index_out_of_range(self, index):
        rng = np.random.default_rng(15)
        W = random_weights(rng, 3, 3, 8.0)
        Y = random_observations(rng, 2, 3, 8.0)
        bad = (np.array([[0, 1], [1, index]]), np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="support indices out of range"):
            batch_m_step(Y, bad, 8.0, W)

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
            batch_m_step(Y, (sup, probs), 8.0, W)

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
            batch_m_step(Y, (sup, probs), 40.0, W)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < N * C * 8 / 4


class TestTvEm:
    def make_data(self, seed, n=300, clusters=6, dim=12):
        raw, true_W = generate_mixture(clusters, dim, n, seed=seed)
        ds = preprocess(raw, 4.0 * dim)
        return ds, true_W

    def test_trace_monotone_for_all_truncation_sizes(self):
        ds, _ = self.make_data(0)
        rng = np.random.default_rng(1)
        cfg = ModelConfig(K=2, C=6, C_prime=1, A=48.0, D=12, eps_W=0.1, eps_R=0.1,
                          theta_bvsb=0.5, epochs=1, seed=1)
        for cp in (1, 2, 6):
            W0, _ = init_weights(cfg, ds.Y, np.random.default_rng(2))
            _, trace = run_tv_em(ds.Y, W0, cp, 30, ds.lgamma_sums)
            assert trace.worst_relative_decrease() <= 1e-8
            assert len(trace.entries) == 60

    def test_interleaved_trace_semantics(self):
        ds, _ = self.make_data(3)
        rng = np.random.default_rng(4)
        W = random_weights(rng, 6, 12, 48.0)
        W_new, I_new, f_e, f_m, _ = tv_em_iteration(
            ds.Y, W, integrate(W, ds.Y), 2, ds.lgamma_sums
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
        np.testing.assert_array_equal(I_new, integrate(W_new, ds.Y))

    @pytest.mark.parametrize("cp", [1, 2, 6])
    def test_carried_activations_are_never_stale(self, cp):
        # run_tv_em carries integrate(W_t, Y) from one iteration to the next;
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
            W_new, *_ = tv_em_iteration(ds.Y, W, integrate(W, ds.Y), 4, ds.lgamma_sums)
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
            ds.Y, W, integrate(W, ds.Y), 1, ds.lgamma_sums
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
            W, _, _, f_m, _ = tv_em_iteration(ds.Y, W, integrate(W, ds.Y), 2, ds.lgamma_sums)
            ll = free_energy(ds.Y, W, full, ds.lgamma_sums)
            assert f_m <= ll + 1e-9 * abs(ll)
        # With full sets the bound is tight.
        W_full, _, _, f_full, _ = tv_em_iteration(
            ds.Y, W, integrate(W, ds.Y), 5, ds.lgamma_sums
        )
        ll = free_energy(ds.Y, W_full, full, ds.lgamma_sums)
        assert f_full == pytest.approx(ll, rel=1e-13)

    def test_monotonicity_violation_raises(self):
        trace = FreeEnergyTrace()
        trace.append(1, -100.0)
        trace.append(2, -100.0000001)  # within slack
        trace.assert_monotone()
        trace.append(3, -101.0)
        with pytest.raises(MonotonicityError, match="trace index 3"):
            trace.assert_monotone()


class TestInitFromData:
    @pytest.mark.parametrize("n,clusters", [(150, 7), (64, 64), (5, 1)])
    def test_matches_unblocked_farthest_point_loop(self, n, clusters):
        # 150 rows cover two full 64-row blocks and a partial one.
        Y = random_observations(np.random.default_rng(n), n, 9, 40.0)
        rng = np.random.default_rng(3)
        chosen = [int(rng.integers(0, n))]
        dist = np.abs(Y - Y[chosen[0]]).sum(axis=1)
        for _ in range(clusters - 1):
            chosen.append(int(np.argmax(dist)))
            dist = np.minimum(dist, np.abs(Y - Y[chosen[-1]]).sum(axis=1))
        W = init_from_data(Y, clusters, 40.0, np.random.default_rng(3))
        assert np.array_equal(W.W, Y[chosen])


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
        report = RunReport(config=cfg, seed=0, n_labeled=0, init_hash="",
                           test_errors=[0.5, 0.25], trace=trace, gate_stats=[],
                           timings=[], final_error=0.25)
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
        assert trace.worst_relative_decrease() == pytest.approx(0.1)


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
        stats = online_epoch(ds, W, R, cfg, np.random.default_rng(0))
        assert stats.labeled_updates == ds.N
        assert stats.unlabeled_passed == 0 and stats.unlabeled_skipped == 0

    def test_threshold_one_blocks_all_unlabeled(self):
        ds, cfg, W, R = online_setup(labeled="none")
        cfg = cfg.replace(theta_bvsb=1.0)
        stats = online_epoch(ds, W, R, cfg, np.random.default_rng(0))
        assert stats.unlabeled_passed == 0
        assert stats.unlabeled_skipped == ds.N

    def test_gate_passes_confident_class_posterior(self):
        # One unlabeled point whose support column yields t = (0.9, 0.1):
        # margin 0.8 clears a 0.6 threshold but not 0.85.
        y = np.array([6.0, 2.0, 2.0, 2.0])
        W = BottomWeights(np.vstack([y, [2.0, 6.0, 2.0, 2.0]]), 12.0)
        R = TopWeights(np.array([[0.45, 0.55], [0.05, 0.95]]))
        ds = Dataset(y[None, :], np.array([-1]), 2, 12.0)
        cfg = ModelConfig(K=2, C=2, C_prime=1, A=12.0, D=4, eps_W=0.01, eps_R=0.01,
                          theta_bvsb=0.6, epochs=1, seed=0)
        stats = online_epoch(ds, W.copy(), R.copy(), cfg, np.random.default_rng(0))
        assert stats.unlabeled_passed == 1
        stats = online_epoch(
            ds, W.copy(), R.copy(), cfg.replace(theta_bvsb=0.85), np.random.default_rng(0)
        )
        assert stats.unlabeled_skipped == 1

    def test_bottom_write_count(self):
        ds, cfg, W, R = online_setup()
        stats = online_epoch(ds, W, R, cfg, np.random.default_rng(0))
        assert stats.bottom_writes == ds.N * cfg.C_prime * cfg.D

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


def reference_online_epoch(ds, W, R, cfg, rng):
    """``online_epoch`` written with the plain formulas: a stable-sort top-C'
    with ties to the smaller index, a ``take_along_axis`` softmax, normalized
    support columns of R, a double gather/scatter bottom step, and a dense
    ``np.outer`` top step.  Returns the gate counts and the number of samples
    whose C'-th and (C'+1)-th largest activations tie."""
    w, r = W.W, R.R
    logw = np.log(w)
    counts = {"labeled_updates": 0, "unlabeled_passed": 0, "unlabeled_skipped": 0}
    ties = 0
    for i in rng.permutation(ds.N):
        y = ds.Y[i]
        I = logw @ y
        order = np.argsort(-I, kind="stable")
        if cfg.C_prime < cfg.C and I[order[cfg.C_prime - 1]] == I[order[cfg.C_prime]]:
            ties += 1
        support = np.sort(order[: cfg.C_prime])
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
        top2 = np.sort(t)[-2:]
        if label != -1 or top2[1] - top2[0] > cfg.theta_bvsb:
            et = cfg.eps_R * t
            r *= (1.0 - et)[:, None]
            r[:, support] += np.outer(et, probs)
            counts["labeled_updates" if label != -1 else "unlabeled_passed"] += 1
        else:
            counts["unlabeled_skipped"] += 1
    return counts, ties


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
        W_ref, R_ref = W.copy(), R.copy()
        for epoch in range(3):
            stats = online_epoch(ds, W, R, cfg, np.random.default_rng(epoch))
            counts, ties = reference_online_epoch(ds, W_ref, R_ref, cfg,
                                                  np.random.default_rng(epoch))
            assert stats.gate_counts() == {**counts, "bottom_writes": ds.N * c_prime * 8}
            assert np.array_equal(W.W, W_ref.W) and np.array_equal(R.R, R_ref.R)
            if epoch == 0:
                assert counts["unlabeled_passed"] and counts["unlabeled_skipped"]
                assert ties > 0 or c_prime == cfg.C
