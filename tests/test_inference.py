import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import gammaln

from truncmix import (
    BottomWeights,
    DataError,
    integrate,
    normalize_input,
    select_truncation,
    truncated_posterior,
)
from truncmix.inference import softmax_inplace
from truncmix.learning import free_energy

from conftest import log_joint, random_observations, random_weights


def sort_oracle_top_k(I, k):
    """Full stable sort oracle: top-k by value, ties to the smaller index."""
    order = np.argsort(-np.asarray(I), kind="stable")
    return np.sort(order[:k])


def naive_posterior(values):
    """Direct exp-then-normalize, valid only at small magnitudes."""
    e = np.exp(np.asarray(values, dtype=np.float64))
    return e / e.sum()


class TestNormalizeInput:
    def test_uniform_raw_gives_constant_output(self):
        y = normalize_input(np.full(784, 37.0), 900.0)
        np.testing.assert_allclose(y, 900.0 / 784, rtol=1e-14)
        np.testing.assert_allclose(y.sum(), 900.0, rtol=1e-12)

    def test_one_hot_raw(self):
        raw = np.zeros(784)
        raw[0] = 5.0
        y = normalize_input(raw, 900.0)
        assert y[0] == pytest.approx(900.0 - 784.0 + 1.0, rel=1e-15)
        assert np.all(y[1:] == 1.0)

    def test_hand_evaluated_example(self):
        np.testing.assert_allclose(normalize_input([2.0, 6.0], 10.0), [3.0, 7.0], rtol=1e-15)

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_bit_identical_to_formula_and_input_untouched(self, dtype):
        raw = np.random.default_rng(16).integers(0, 256, size=(50, 784)).astype(dtype)
        before = raw.copy()
        y = normalize_input(raw, 900.0)
        x = raw.astype(np.float64)
        expected = (900.0 - 784) * x / x.sum(axis=-1, keepdims=True) + 1.0
        assert y.dtype == np.float64
        np.testing.assert_array_equal(y, expected)
        np.testing.assert_array_equal(raw, before)

    def test_zero_mass_rejected(self):
        with pytest.raises(DataError, match="zero total mass"):
            normalize_input(np.zeros(5), 10.0)

    def test_batch_zero_row_names_index(self):
        raw = np.ones((4, 5))
        raw[2] = 0.0
        with pytest.raises(DataError, match="index 2"):
            normalize_input(raw, 10.0)

    def test_negative_rejected(self):
        with pytest.raises(DataError, match="negative"):
            normalize_input([1.0, -0.5], 10.0)

    @pytest.mark.parametrize("bad,message", [
        (np.nan, "non-finite components at index 1"),
        (-0.5, "negative components at index 1"),
    ])
    def test_batch_bad_row_names_first_index(self, bad, message):
        raw = np.ones((4, 5))
        raw[1, 4] = raw[3, 0] = bad
        with pytest.raises(DataError, match=message):
            normalize_input(raw, 10.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DataError, match="non-finite"):
            normalize_input([[1.0, bad, 2.0]], 10.0)

    def test_mass_not_above_dimension_rejected(self):
        with pytest.raises(DataError, match="A must exceed D"):
            normalize_input(np.ones(5), 5.0)

    def test_output_invariants_random(self):
        rng = np.random.default_rng(11)
        raw = rng.uniform(0.0, 50.0, size=(200, 17))
        raw[:, 0] += 1e-9  # keep total mass positive
        y = normalize_input(raw, 40.0)
        np.testing.assert_allclose(y.sum(axis=1), 40.0, rtol=1e-9)
        assert np.all(y >= 1.0)

    def test_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(12)
        raw = rng.uniform(0.1, 9.0, size=(20, 8))
        np.testing.assert_allclose(
            normalize_input(raw, 20.0), normalize_input(635.2 * raw, 20.0), rtol=1e-12
        )


class TestIntegrate:
    def test_uniform_rows_give_constant_activation(self):
        A, D = 900.0, 784
        W = BottomWeights(np.full((5, D), A / D), A)
        y = normalize_input(np.full(D, 3.0), A)
        I = integrate(W, y)
        np.testing.assert_allclose(I, A * math.log(A / D), rtol=1e-12)

    def test_unit_weights_give_zero(self):
        W = BottomWeights(np.ones((1, 2)), 2.0)
        assert integrate(W, np.array([1.0, 1.0]))[0] == 0.0

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(3)
        W = random_weights(rng, 3, 4, 9.0)
        y = random_observations(rng, 1, 4, 9.0)[0]
        I = integrate(W, y)
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
            np.testing.assert_allclose(I[n], integrate(W, Y[n]), rtol=1e-14)

    def test_nonfinite_activation_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            integrate(np.array([[0.0, 1.0]]), np.array([1.0, 1.0]))


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
            assert sets.base is None or sets.base.size == sets.size

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            select_truncation(np.zeros(4), 0)
        with pytest.raises(ValueError):
            select_truncation(np.zeros(4), 5)


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

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            truncated_posterior(np.zeros(3), np.array([0, 3]))

    @pytest.mark.parametrize("shape", [(40,), (5, 40)])
    def test_input_left_untouched(self, shape):
        I = np.random.default_rng(17).normal(scale=30.0, size=shape)
        before = I.copy()
        for c_prime in (1, 7, 40):
            truncated_posterior(I, select_truncation(I, c_prime))
            assert np.array_equal(I, before), c_prime

    @pytest.mark.parametrize("shape", [(40,), (5, 40)])
    def test_in_place_softmax_equals_out_of_place_formula(self, shape):
        x = np.random.default_rng(18).normal(scale=30.0, size=shape)
        want = np.exp(x - x.max(axis=-1, keepdims=True))
        want /= want.sum(axis=-1, keepdims=True)
        buf = x.copy()
        assert softmax_inplace(buf) is buf
        assert np.array_equal(buf, want)


def _assert_batch_equals_rows(I):
    """truncated_posterior on the (N, C') batch must equal its 1-D
    per-sample call bit for bit, at every truncation size."""
    for c_prime in range(1, I.shape[1] + 1):
        sets = select_truncation(I, c_prime)
        batch = truncated_posterior(I, sets)
        assert batch.shape == sets.shape
        for n in range(I.shape[0]):
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
            I = integrate(W, y)
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
                lj = free_energy(Y[n], W, [c])
                assert lj == pytest.approx(log_joint(W.W[c], Y[n], 5), rel=1e-12)

    def test_matrix_form_accepts_precomputed_lgamma(self):
        rng = np.random.default_rng(16)
        W = random_weights(rng, 3, 5, 10.0)
        Y = random_observations(rng, 6, 5, 10.0)
        lg = gammaln(Y + 1.0).sum(axis=1)
        for n in range(6):
            for c in range(3):
                assert free_energy(Y[n], W, [c], lg[n : n + 1]) == pytest.approx(
                    free_energy(Y[n], W, [c]), rel=1e-15
                )
