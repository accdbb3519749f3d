import numpy as np
import pytest

from truncmix.core import TopWeights
from truncmix.inference import bvsb, class_activation, normalized_columns
from truncmix.learning import update_top


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
