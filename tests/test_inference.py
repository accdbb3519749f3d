import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import gammaln, logsumexp

from truncmix.core import BottomWeights, DataError, TopWeights
from truncmix.data import normalize_input
from truncmix.inference import (
    _check_support_range, _full_support, _gather_support, _select, bvsb, class_activation,
    integrate, logsumexp_inplace, normalized_columns, select_truncation, softmax_inplace,
    truncated_posterior,
)
from truncmix.learning import _support_lse, free_energy, update_top

from conftest import (
    lgamma_sums, log_joint, posteriors_by_row, random_observations, random_weights,
)


def sort_oracle_top_k(I, k):
    """Full stable sort oracle: top-k by value, ties to the smaller index."""
    order = np.argsort(-np.asarray(I), kind="stable")
    return np.sort(order[:k])


def naive_posterior(values):
    """Direct exp-then-normalize, valid only at small magnitudes."""
    e = np.exp(np.asarray(values, dtype=np.float64))
    return e / e.sum()


class TestIntegrate:
    def test_uniform_rows_give_constant_activation(self):
        A, D = 900.0, 784
        W = BottomWeights(np.full((5, D), A / D), A)
        y = normalize_input(np.full((1, D), 3.0), A)
        I = integrate(W, y)
        np.testing.assert_allclose(I, A * math.log(A / D), rtol=1e-12)

    def test_unit_weights_give_zero(self):
        W = BottomWeights(np.ones((1, 2)), 2.0)
        assert integrate(W, np.array([[1.0, 1.0]]))[0, 0] == 0.0

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(3)
        W = random_weights(rng, 3, 4, 9.0)
        y = random_observations(rng, 1, 4, 9.0)[0]
        I = integrate(W, y[None])[0]
        oracle = np.zeros(3)
        for c in range(3):
            for d in range(4):
                oracle[c] += math.log(W.W[c, d]) * y[d]
        np.testing.assert_allclose(I, oracle, rtol=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(4)
        W = random_weights(rng, 6, 5, 12.0)
        Y = random_observations(rng, 7, 5, 12.0)
        I = integrate(W, Y)
        for n in range(7):
            np.testing.assert_allclose(I[n], integrate(W, Y[n : n + 1])[0], rtol=1e-14)

    @pytest.mark.parametrize("shape", [(1, 2), (3, 2)], ids=["point", "batch"])
    def test_nonfinite_activation_rejected(self, shape):
        # A short block's pad rows must not turn the -inf of log 0 into a
        # NaN warning (0 * -inf) before the finiteness check names it.
        W = BottomWeights(np.ones((1, 2)), 2.0)
        W.W[0, 0] = 0.0  # mutated in place past its positivity invariant
        with pytest.raises(DataError, match="non-finite"):
            integrate(W, np.ones(shape))

    @pytest.mark.parametrize("bad,I_bad", [
        ([np.nan, 1.0], np.nan),
        ([np.inf, 1.0], np.inf),     # log W_c0 = log 2 > 0 in every row
        ([1.0, np.inf], -np.inf),    # log W_c1 = log 0.5 < 0 in every row
    ])
    def test_one_non_finite_activation_in_a_batch_rejected(self, bad, I_bad):
        W = BottomWeights(np.array([[2.0, 0.5], [2.0, 0.5]]), 2.5)
        Y = np.array([[1.5, 1.0], bad, [1.0, 1.5]])
        with np.errstate(invalid="ignore"):
            assert np.array_equal((Y @ np.log(W.W).T)[1], [I_bad, I_bad], equal_nan=True)
        with pytest.raises(DataError, match="non-finite"):
            integrate(W, Y)
        assert np.all(np.isfinite(integrate(W, Y[[0, 2]])))


class TestSelectTruncation:
    def test_no_truncation_returns_all(self):
        I = np.array([5.0, 1.0, 3.0])
        np.testing.assert_array_equal(select_truncation(I, 3), [0, 1, 2])

    def test_order_statistics_example(self):
        np.testing.assert_array_equal(select_truncation(np.array([3.0, 1.0, 2.0]), 2), [0, 2])

    def test_ties_go_to_smaller_index(self):
        np.testing.assert_array_equal(select_truncation(np.array([1.0, 1.0, 1.0, 1.0]), 2), [0, 1])
        np.testing.assert_array_equal(select_truncation(np.array([2.0, 1.0, 2.0, 2.0]), 2), [0, 2])

    def test_against_sort_oracle_random(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            I = rng.standard_normal(64)
            k = int(rng.integers(1, 65))
            np.testing.assert_array_equal(select_truncation(I, k), sort_oracle_top_k(I, k))

    def test_against_sort_oracle_with_duplicates(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            # Heavy quantization forces many exact ties.
            I = np.round(rng.standard_normal(48) * 2.0) / 2.0
            k = int(rng.integers(1, 49))
            np.testing.assert_array_equal(select_truncation(I, k), sort_oracle_top_k(I, k))
        # The same on a tie-heavy batch; ascending rows hold distinct indices.
        I = np.round(rng.standard_normal((200, 48)) * 2.0) / 2.0
        for k in range(1, 49):
            sets = select_truncation(I, k)
            assert np.all(np.diff(sets, axis=1) > 0)
            for n in range(I.shape[0]):
                np.testing.assert_array_equal(sets[n], sort_oracle_top_k(I[n], k))
        # Signed zeros tie: -0.0 == 0.0, so the smaller index wins either way.
        I = np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0])
        np.testing.assert_array_equal(select_truncation(I, 2), [0, 2])
        np.testing.assert_array_equal(select_truncation(I, 3), [0, 1, 2])
        for k in range(1, 7):
            np.testing.assert_array_equal(select_truncation(I, k), sort_oracle_top_k(I, k))
            np.testing.assert_array_equal(select_truncation(np.stack([I, -I]), k),
                                          [sort_oracle_top_k(I, k), sort_oracle_top_k(-I, k)])

    def test_always_contains_argmax(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            I = rng.standard_normal(40)
            assert int(np.argmax(I)) in select_truncation(I, int(rng.integers(1, 41)))

    def test_batch_matches_per_row(self):
        rng = np.random.default_rng(8)
        I = rng.standard_normal((25, 30))
        got = select_truncation(I, 4)
        assert got.shape == (25, 4)
        for n in range(25):
            np.testing.assert_array_equal(got[n], select_truncation(I[n], 4))

    @settings(deadline=None)
    @given(arrays(np.int64, st.tuples(st.integers(1, 4), st.integers(1, 40)),
                  elements=st.integers(-3, 3)))
    def test_single_row_equals_batch_row_with_ties(self, I):
        # The 1-D call has its own path; a few distinct values force ties at
        # the threshold, which it must break exactly as the batch call does.
        for c_prime in range(1, I.shape[1] + 1):
            batch = select_truncation(I, c_prime)
            for n in range(I.shape[0]):
                assert np.array_equal(select_truncation(I[n], c_prime), batch[n]), (c_prime, n)

    @pytest.mark.parametrize("N", [30, 513])
    @pytest.mark.parametrize("c_prime", [1, 3, 15, 40])
    def test_one_tied_row_sends_its_batch_to_tie_rule(self, c_prime, N):
        # Every row but one has a unique threshold.  Row 29 gets copies of its
        # threshold value at the 20 smallest indices below it, so its top set
        # is decided by the tie rule; the rows selected with it must fall back
        # too.  N=513 ends a batch select with a block of one row.
        rng = np.random.default_rng(14)
        I = rng.normal(scale=50.0, size=(N, 64))
        row = I[29]
        thresh = np.sort(row)[-c_prime]
        row[np.flatnonzero(row < thresh)[:20]] = thresh
        sets = select_truncation(I, c_prime)
        assert sets.shape == (N, c_prime)
        for n in range(N):
            np.testing.assert_array_equal(sets[n], sort_oracle_top_k(I[n], c_prime))

    @settings(deadline=None)
    @given(st.data())
    def test_batch_equals_single_rows_with_sparse_threshold_ties(self, data):
        N = data.draw(st.integers(1, 6), label="N")
        C = data.draw(st.integers(2, 40), label="C")
        I = data.draw(arrays(np.float64, (N, C), elements=st.floats(
            -1e3, 1e3, allow_nan=False, allow_infinity=False)), label="I")
        c_prime = data.draw(st.integers(1, C - 1), label="c_prime")
        # Copy a row's threshold value to a few other entries of that row.
        ties = data.draw(st.lists(st.tuples(st.integers(0, N - 1), st.integers(0, C - 1)),
                                  max_size=3), label="ties")
        for n, j in ties:
            I[n, j] = np.sort(I[n])[-c_prime]
        batch = select_truncation(I, c_prime)
        for n in range(N):
            assert np.array_equal(select_truncation(I[n], c_prime), batch[n]), n

    @pytest.mark.parametrize("N", [40, 513])
    @pytest.mark.parametrize("c_prime", [1, 15, 48])
    def test_batch_result_is_compact(self, c_prime, N):
        # A view into the argpartition or np.nonzero buffer would keep a
        # larger array alive.  A tied row sends its block to the tie rule.
        I = np.random.default_rng(15).normal(size=(N, 48))
        tied = I.copy()
        tied[3] = 0.0
        for batch in (I, tied):
            sets = select_truncation(batch, c_prime)
            assert sets.shape == (N, c_prime)
            if c_prime == 48:
                # C'=C: one read-only arange(C) row, viewed N times.
                assert not sets.flags.writeable
                assert sets.strides[0] == 0
                assert sets.base.size == 48
                assert np.array_equal(sets, np.tile(np.arange(48), (N, 1)))
                # One point: the read-only arange(C) itself, not a view.
                row = select_truncation(batch[3], c_prime)
                assert not row.flags.writeable
                assert row.base is None
                assert np.array_equal(row, np.arange(48))
            else:
                assert sets.base is None or sets.base.size == sets.size

    def test_select_kernel_equals_stable_sort_reference(self, monkeypatch):
        # Integer-valued rows, on a narrow range (ties straddle the threshold,
        # so the stable-sort fallback runs) or a wide one (unique sets, so
        # the partition branch does), among +-inf entries, at c' = 1, C - 1
        # or between; 1-D and 2-D with 1-300 rows.
        argsort = np.argsort
        fallbacks = []

        def counting_argsort(*args, **kwargs):
            fallbacks.append(1)
            return argsort(*args, **kwargs)

        def reference(I, c_prime):
            return np.sort(argsort(-I, axis=-1, kind="stable")[..., :c_prime], axis=-1)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        rng = np.random.default_rng(31)
        took = set()
        for case in range(600):
            C = int(rng.integers(2, 41))
            shape = (C,) if case % 2 else (int(rng.integers(1, 301)), C)
            span = 3 if case % 4 < 2 else 10**6
            I = rng.integers(-span, span + 1, size=shape).astype(np.float64)
            u = rng.random(shape)
            I[u < 0.03] = np.inf
            I[u > 0.97] = -np.inf
            c_prime = (1, C - 1, int(rng.integers(1, C)))[case % 3]
            want = reference(I, c_prime)
            before = len(fallbacks)
            got = _select(I, c_prime)
            assert np.array_equal(got, want), (case, c_prime)
            took.add((I.ndim, len(fallbacks) > before))
        assert took == {(1, False), (1, True), (2, False), (2, True)}
        # Out of contract, a NaN ranks below every number, as in the sort.
        # Here row 0 has no entry at or above its threshold (NaN) and row 1
        # four, so the block's hit count is right but its rows are not.
        I = np.array([[np.nan, np.nan, 1.0, 2.0], [5.0, 5.0, 5.0, 5.0]])
        assert np.array_equal(_select(I, 2), [[2, 3], [0, 1]])
        assert np.array_equal(_select(I[0], 2), [2, 3])

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            select_truncation(np.zeros(4), 0)
        with pytest.raises(ValueError):
            select_truncation(np.zeros(4), 5)

    @pytest.mark.parametrize("shape, c_prime", [((), 1), ((3, 1, 5), 2), ((3, 1, 5), 5),
                                                ((2, 2, 2, 3), 1)],
                             ids=["0-D", "3-D", "3-D-full", "4-D"])
    def test_only_a_vector_or_a_batch(self, shape, c_prime):
        # The batch hit test counts len(I) rows, not the product of the
        # leading axes, so a (3, 1, 5) input would give (3, 2) sets.
        with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
            select_truncation(np.zeros(shape), c_prime)


class TestPosteriors:
    def test_single_support_is_certain(self):
        p = truncated_posterior(np.array([4.0, 2.0, 1.0]), np.array([1]))
        np.testing.assert_array_equal(p, [1.0])

    def test_equal_activations_give_uniform(self):
        p = truncated_posterior(np.full(6, -3.25), np.array([0, 2, 5]))
        np.testing.assert_allclose(p, 1.0 / 3, rtol=1e-15)

    def test_hand_evaluated_softmax(self):
        I = np.array([0.0, math.log(3.0), 99.0])
        p = truncated_posterior(I, np.array([0, 1]))
        np.testing.assert_allclose(p, [0.25, 0.75], rtol=1e-14)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            I = rng.uniform(-3.0, 3.0, size=20)
            sup = np.sort(rng.choice(20, size=6, replace=False))
            np.testing.assert_allclose(
                truncated_posterior(I, sup), naive_posterior(I[sup]), rtol=1e-12
            )

    def test_overflow_safe(self):
        I = np.array([1e4, 1e4 - 5.0, -1e4])
        p = truncated_posterior(I, np.array([0, 1, 2]))
        assert np.isfinite(p).all() and p.sum() == pytest.approx(1.0)

    def test_renormalization_consistency(self):
        rng = np.random.default_rng(10)
        I = rng.uniform(-50.0, 50.0, size=32)
        sup = select_truncation(I, 7)
        dense = truncated_posterior(I, np.arange(32))
        np.testing.assert_allclose(
            truncated_posterior(I, sup), dense[sup] / dense[sup].sum(), rtol=1e-12
        )

    def test_full_support_symmetry_and_identity(self):
        np.testing.assert_array_equal(truncated_posterior(np.zeros(2), np.arange(2)), [0.5, 0.5])
        full = np.arange(64)
        rng = np.random.default_rng(11)
        I = rng.uniform(-20.0, 20.0, size=64)
        np.testing.assert_allclose(
            truncated_posterior(I, full),
            naive_posterior(I),
            rtol=0.0, atol=1e-14,
        )
        small = rng.uniform(-2.0, 2.0, size=64)
        np.testing.assert_allclose(
            truncated_posterior(small, full), naive_posterior(small), rtol=1e-12
        )

    def test_shift_invariance(self):
        rng = np.random.default_rng(12)
        I = rng.uniform(-5.0, 5.0, size=24)
        shifted = I + 123.456
        np.testing.assert_array_equal(select_truncation(I, 5), select_truncation(shifted, 5))
        full = np.arange(24)
        np.testing.assert_allclose(
            truncated_posterior(I, full), truncated_posterior(shifted, full), rtol=0, atol=1e-12
        )
        sup = select_truncation(I, 5)
        np.testing.assert_allclose(
            truncated_posterior(I, sup),
            truncated_posterior(shifted, sup),
            rtol=0.0, atol=1e-12,
        )

    @pytest.mark.parametrize("index", [-1, 3, 7])
    def test_invalid_construction_rejected(self, index):
        with pytest.raises(ValueError, match="^support indices out of range$"):
            truncated_posterior(np.zeros(3), np.array([0, index]))

    def test_empty_support_rejected(self):
        # An empty batch's (0, C') supports still pass the range check.
        with pytest.raises(ValueError, match="^empty support: a posterior needs at least one"):
            truncated_posterior(np.zeros(3), np.array([], dtype=np.intp))
        _check_support_range(np.empty((0, 2), dtype=np.intp), 3)

    @pytest.mark.parametrize("I_shape, sets_shape", [((2, 3), (2, 2)), ((2, 3), (2,)),
                                                     ((3,), (1, 2))])
    def test_only_one_point_is_taken(self, I_shape, sets_shape):
        # A batch would index into an (N, C', C) array, not give (N, C') posteriors.
        I = np.zeros(I_shape)
        sets = np.zeros(sets_shape, dtype=np.intp)
        with pytest.raises(ValueError, match="one point"):
            truncated_posterior(I, sets)

    @pytest.mark.parametrize("shape", [(40,), (5, 40)])
    def test_input_left_untouched(self, shape):
        I = np.random.default_rng(17).normal(scale=30.0, size=shape)
        before = I.copy()
        for c_prime in (1, 7, 40):
            # One call per point; a 1-D I is the one row of its 2-D view.
            posteriors_by_row(np.atleast_2d(I), np.atleast_2d(select_truncation(I, c_prime)))
            assert np.array_equal(I, before), c_prime

    @pytest.mark.parametrize("shape", [(40,), (5, 40)])
    def test_in_place_softmax_equals_out_of_place_formula(self, shape):
        x = np.random.default_rng(18).normal(scale=30.0, size=shape)
        want = np.exp(x - x.max(axis=-1, keepdims=True))
        want /= want.sum(axis=-1, keepdims=True)
        buf = x.copy()
        assert softmax_inplace(buf) is buf
        assert np.array_equal(buf, want)


def read_only(a):
    a.flags.writeable = False
    return a


class TestSupports:
    C = 6

    @pytest.mark.parametrize("s,full", [
        (np.arange(C), True),
        (read_only(np.arange(C)), True),
        (select_truncation(np.zeros(C), C), True),
        (np.broadcast_to(np.arange(C), (4, C)), True),
        (select_truncation(np.zeros((4, C)), C), True),
        (np.tile(np.arange(C), (4, 1)), False),
        (np.arange(C)[::-1].copy(), False),
        (np.broadcast_to(np.arange(C)[::-1], (4, C)), False),
        (np.arange(C + 1), False),
        (np.arange(C - 1), False),
        (np.broadcast_to(np.arange(C - 1), (4, C - 1)), False),
        (np.broadcast_to(np.arange(C), (0, C)), False),
        (np.empty((0, C), dtype=np.intp), False),
    ], ids=["arange", "read-only-arange", "select-1-D", "broadcast", "select-2-D", "tiled-copy",
            "permutation", "broadcast-permutation", "arange-C+1", "arange-C-1",
            "broadcast-arange-C-1", "empty-broadcast", "empty-batch"])
    def test_full_support_truth_table(self, s, full):
        assert _full_support(s, self.C) is full

    @pytest.mark.parametrize("c_prime", [1, 4, C])
    def test_gather_is_the_block_at_full_support_and_a_row_take_below(self, c_prime):
        I = np.random.default_rng(19).normal(size=(5, self.C))
        sets = select_truncation(I, c_prime)
        got = _gather_support(I, sets)
        assert (got is I) == (c_prime == self.C)
        np.testing.assert_array_equal(got, np.take_along_axis(I, sets, axis=1))


class TestLogSumExpInplace:
    """``logsumexp_inplace`` against ``scipy.special.logsumexp``, bit for bit."""

    @staticmethod
    def assert_equals_scipy(x):
        got = logsumexp_inplace(x.copy())
        assert np.shape(got) == x.shape[:-1]
        assert np.array_equal(got, logsumexp(x, axis=-1))

    def test_random_blocks_over_magnitudes(self):
        rng = np.random.default_rng(40)
        for scale in (1e-3, 1e-1, 1.0, 30.0, 1e3):
            for shape in ((1, 5), (7, 15), (256, 40)):
                x = rng.normal(scale=scale, size=shape) + rng.normal(scale=1e3)
                self.assert_equals_scipy(x)

    def test_rounded_values_with_ties(self):
        rng = np.random.default_rng(41)
        for decimals in (-1, 0, 1):
            x = np.round(rng.normal(scale=5.0, size=(64, 20)), decimals)
            assert any(np.count_nonzero(row == row.max()) > 1 for row in x)
            self.assert_equals_scipy(x)

    def test_all_equal_rows(self):
        x = np.repeat(np.array([[-3.5], [0.0], [812.25]]), 9, axis=1)
        self.assert_equals_scipy(x)

    def test_one_column(self):
        self.assert_equals_scipy(np.random.default_rng(42).normal(scale=100.0, size=(30, 1)))

    def test_one_vector(self):
        self.assert_equals_scipy(np.random.default_rng(43).normal(scale=100.0, size=400))


def _assert_batch_equals_rows(I):
    """The block posterior of ``learning._support_lse`` must equal the 1-D
    per-sample ``truncated_posterior`` bit for bit, at every truncation size.
    At C'=C it overwrites its block, so it gets a copy."""
    N, C = I.shape
    for c_prime in range(1, C + 1):
        sets = select_truncation(I, c_prime)
        batch = np.empty(sets.shape)
        _support_lse(I.copy(), sets, np.zeros(C), np.zeros(N), batch)
        assert batch.shape == sets.shape
        for n in range(N):
            row = truncated_posterior(I[n], sets[n])
            assert np.array_equal(batch[n], row), (c_prime, n)


class TestTruncatedSoftmax:
    @settings(deadline=None)
    @given(st.data())
    def test_batch_equals_per_sample_posterior(self, data):
        N = data.draw(st.integers(1, 6), label="N")
        C = data.draw(st.integers(1, 40), label="C")
        # A small pool of values forces ties inside and across supports.
        pool = data.draw(st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
            min_size=1, max_size=max(1, C // 2),
        ), label="pool")
        elements = st.sampled_from(pool) | st.floats(-1e3, 1e3, allow_nan=False,
                                                     allow_infinity=False)
        _assert_batch_equals_rows(data.draw(arrays(np.float64, (N, C), elements=elements)))

    def test_batch_equals_per_sample_posterior_at_bench_size(self):
        # C=400 exercises the blocked summation path of long supports.
        I = np.random.default_rng(13).normal(scale=40.0, size=(3, 400))
        I[:, ::7] = I[:, :1]  # ties with each row's first entry
        _assert_batch_equals_rows(I)


class TestLogJoint:
    def test_hand_evaluated_value(self):
        # C=1, W row (1, 2), y (1, 2):
        #   0 + [1*log1 - 1 - lgamma(2)] + [2*log2 - 2 - lgamma(3)] = log(2) - 3
        got = log_joint(np.array([1.0, 2.0]), np.array([1.0, 2.0]), C=1)
        assert got == pytest.approx(math.log(2.0) - 3.0, rel=1e-14)

    def test_identical_rows_identical_values(self):
        rng = np.random.default_rng(13)
        W = random_weights(rng, 1, 6, 12.0)
        y = random_observations(rng, 1, 6, 12.0)[0]
        a = log_joint(W.W[0], y, C=7)
        b = log_joint(W.W[0].copy(), y, C=7)
        assert a == b

    def test_ranking_matches_activation_ranking(self):
        # The joint and the activation differ by terms constant across
        # clusters, so their descending orders must agree.
        rng = np.random.default_rng(14)
        for _ in range(50):
            C, D = int(rng.integers(2, 33)), int(rng.integers(2, 9))
            A = 2.0 * D
            W = random_weights(rng, C, D, A)
            y = random_observations(rng, 1, D, A)[0]
            I = integrate(W, y[None])[0]
            lj = np.array([log_joint(W.W[c], y, C) for c in range(C)])
            np.testing.assert_array_equal(
                np.argsort(-I, kind="stable"), np.argsort(-lj, kind="stable")
            )

    def test_matrix_form_matches_scalar(self):
        rng = np.random.default_rng(15)
        W = random_weights(rng, 5, 6, 12.0)
        Y = random_observations(rng, 4, 6, 12.0)
        for n in range(4):
            for c in range(5):
                lj = free_energy(Y[n : n + 1], W, np.array([[c]]), lgamma_sums(Y[n : n + 1]))
                assert lj == pytest.approx(log_joint(W.W[c], Y[n], 5), rel=1e-12)

    def test_matrix_form_accepts_precomputed_lgamma(self):
        rng = np.random.default_rng(16)
        W = random_weights(rng, 3, 5, 10.0)
        Y = random_observations(rng, 6, 5, 10.0)
        lg = gammaln(Y + 1.0).sum(axis=1)
        for n in range(6):
            for c in range(3):
                y, sets = Y[n : n + 1], np.array([[c]])
                assert free_energy(y, W, sets, lg[n : n + 1]) == pytest.approx(
                    free_energy(y, W, sets, lgamma_sums(y)), rel=1e-15
                )


def mixture(R):
    """R's normalized columns as ``online_epoch`` caches them."""
    return normalized_columns(R.R)


def posterior(support, probs):
    """A (support, probs) pair as the online path passes it."""
    return np.asarray(support, dtype=np.intp), np.asarray(probs, dtype=np.float64)


class TestClassActivation:
    def test_labeled_branch_is_one_hot(self):
        R = TopWeights(np.full((10, 6), 1.0 / 6))
        s = posterior([0, 1], [0.5, 0.5])
        t = class_activation(*s, mixture(R), label=3)
        expected = np.zeros(10)
        expected[3] = 1.0
        np.testing.assert_array_equal(t, expected)

    def test_uniform_top_weights_give_uniform_classes(self):
        R = TopWeights(np.full((4, 8), 1.0 / 8))
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = rng.dirichlet(np.ones(3))
            sup = np.sort(rng.choice(8, size=3, replace=False))
            t = class_activation(*posterior(sup, p), mixture(R))
            np.testing.assert_allclose(t, 0.25, rtol=1e-12)

    def test_hand_evaluated_two_class_mix(self):
        # Columns 0 and 1 point deterministically at classes 0 and 1.
        R = TopWeights(np.eye(2))
        t = class_activation(*posterior([0, 1], [0.5, 0.5]), mixture(R))
        np.testing.assert_allclose(t, [0.5, 0.5], rtol=1e-15)

    def test_sums_to_one_in_both_branches(self):
        rng = np.random.default_rng(1)
        R = TopWeights(rng.dirichlet(np.ones(12), size=5))
        for _ in range(25):
            p = rng.dirichlet(np.ones(4))
            sup = np.sort(rng.choice(12, size=4, replace=False))
            s = posterior(sup, p)
            assert class_activation(*s, mixture(R)).sum() == pytest.approx(1.0, abs=1e-12)
            assert class_activation(*s, mixture(R), label=2).sum() == 1.0

    def test_column_scale_invariance(self):
        rng = np.random.default_rng(2)
        R = TopWeights(rng.dirichlet(np.ones(9), size=6))
        scaled = R.R.copy()
        scaled[:, 4] *= 1234.5
        p = rng.dirichlet(np.ones(5))
        sup = np.array([1, 3, 4, 6, 8])
        s = posterior(sup, p)
        # A scaled column breaks R's row sums, so it goes through the
        # column normalization of the cached mixture.
        t_scaled = normalized_columns(scaled[:, sup]) @ p
        np.testing.assert_allclose(class_activation(*s, mixture(R)), t_scaled, rtol=0.0, atol=1e-12)
        assert np.argmax(class_activation(*s, mixture(R))) == np.argmax(t_scaled)

    def test_zero_column_falls_back_to_uniform(self):
        R = TopWeights(np.array([[1.0, 0.0], [1.0, 0.0]]))
        t = class_activation(*posterior([0, 1], [0.4, 0.6]), mixture(R))
        np.testing.assert_allclose(t, [0.5, 0.5], rtol=1e-15)
        cols = normalized_columns(R.R)
        np.testing.assert_allclose(cols[:, 1], 0.5)

    def test_zero_columns_from_labeled_updates_at_full_rate(self):
        # At eps_R = 1 a labeled step sets its class row to the posterior, so
        # once both classes were labeled the never-supported columns are zero.
        R = TopWeights(np.full((2, 6), 1.0 / 6))
        update_top(R, np.array([1.0, 0.0]), np.array([0, 1]), np.array([0.7, 0.3]), eps_R=1.0)
        update_top(R, np.array([0.0, 1.0]), np.array([1, 2]), np.array([0.4, 0.6]), eps_R=1.0)
        assert not R.R[:, 3:].any()
        for c in range(3, 6):
            t = class_activation(*posterior([c], [1.0]), mixture(R))
            np.testing.assert_array_equal(t, [0.5, 0.5])

    def test_bad_label_rejected(self):
        R = TopWeights(np.full((3, 4), 0.25))
        with pytest.raises(ValueError, match="label"):
            class_activation(*posterior([0], [1.0]), mixture(R), label=3)


class TestBvsb:
    def test_one_hot_is_one(self):
        t = np.zeros(10)
        t[4] = 1.0
        assert bvsb(t) == 1.0

    def test_uniform_is_zero(self):
        assert bvsb(np.full(5, 0.2)) == 0.0

    def test_hand_evaluated_margin(self):
        assert bvsb(np.array([0.6, 0.3, 0.1])) == pytest.approx(0.3, rel=1e-15)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="single class"):
            bvsb(np.array([1.0]))

    def test_range_and_one_hot_characterization(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            t = rng.dirichlet(np.ones(7))
            m = bvsb(t)
            assert 0.0 <= m <= 1.0
            if m == 1.0:
                assert np.sum(t == 1.0) == 1
        near = np.array([1.0 - 1e-9, 1e-9, 0.0])
        assert bvsb(near) < 1.0


class TestPredict:
    """The per-point prediction is argmax_k of the unlabeled class posterior;
    ties go to the smaller k."""

    def test_uniform_ties_break_to_class_zero(self):
        R = TopWeights(np.full((10, 6), 1.0 / 6))
        assert np.argmax(class_activation(*posterior([0, 5], [0.7, 0.3]), mixture(R))) == 0

    def test_hand_evaluated_prediction(self):
        R = TopWeights(np.eye(2))
        assert np.argmax(class_activation(*posterior([0, 1], [0.9, 0.1]), mixture(R))) == 0
        assert np.argmax(class_activation(*posterior([0, 1], [0.1, 0.9]), mixture(R))) == 1
