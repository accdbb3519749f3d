import numpy as np
import pytest

from truncmix import (
    BottomWeights,
    ConfigError,
    ModelConfig,
    TopWeights,
    init_weights,
    validate_config,
)


def make_config(**overrides) -> ModelConfig:
    base = dict(
        K=10, C=400, C_prime=15, A=900.0, D=784,
        eps_W=0.2 * 400 / 60000, eps_R=0.2 * 10 / 60000,
        theta_bvsb=0.6, epochs=50, seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestValidateConfig:
    def test_reference_parameters_valid(self):
        # The documented full-scale setting: C=10000, C'=15, A=900, N=60000.
        cfg = make_config(C=10000, eps_W=0.2 * 10000 / 60000)
        assert validate_config(cfg) is cfg

    def test_truncation_disabled_boundary(self):
        validate_config(make_config(C_prime=400))

    def test_mass_must_exceed_dimension(self):
        with pytest.raises(ConfigError, match="A must exceed D"):
            validate_config(make_config(A=100.0))

    def test_truncation_size_bounds(self):
        with pytest.raises(ConfigError, match="C_prime"):
            validate_config(make_config(C_prime=401))
        with pytest.raises(ConfigError, match="C_prime"):
            validate_config(make_config(C_prime=0))

    @pytest.mark.parametrize("field,value", [
        ("eps_W", 0.0), ("eps_W", 1.5), ("eps_R", -0.1), ("eps_R", 2.0),
    ])
    def test_learning_rate_range(self, field, value):
        with pytest.raises(ConfigError, match=field):
            validate_config(make_config(**{field: value}))

    @pytest.mark.parametrize("value", [-0.01, 1.01])
    def test_threshold_range(self, value):
        with pytest.raises(ConfigError, match="theta_bvsb"):
            validate_config(make_config(theta_bvsb=value))

    def test_counts_must_be_integers(self):
        with pytest.raises(ConfigError, match="K must be an integer"):
            validate_config(make_config(K=10.0))
        with pytest.raises(ConfigError, match="epochs"):
            validate_config(make_config(epochs=-1))


class TestConfigJson:
    def test_round_trip(self):
        cfg = make_config()
        assert ModelConfig.from_json(cfg.to_json()) == cfg

    def test_unknown_key_rejected(self):
        text = make_config().to_json().replace('"seed"', '"sead"')
        with pytest.raises(ConfigError, match="unknown config keys: sead"):
            ModelConfig.from_json(text)

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigError, match="missing config keys"):
            ModelConfig.from_json('{"K": 10}')

    def test_not_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            ModelConfig.from_json("{nope")


class TestWeightContainers:
    def test_bottom_rejects_nonpositive(self):
        W = np.full((3, 4), 2.5)
        BottomWeights(W, 10.0)
        W_bad = W.copy()
        W_bad[1, 2] = 0.0
        with pytest.raises(ConfigError, match="positive"):
            BottomWeights(W_bad, 10.0)

    def test_bottom_rejects_bad_row_sum(self):
        W = np.full((3, 4), 2.5)
        W[2] *= 1.01
        with pytest.raises(ConfigError, match="row 2"):
            BottomWeights(W, 10.0)

    def test_top_rejects_negative_and_bad_sum(self):
        TopWeights(np.full((2, 5), 0.2))
        with pytest.raises(ConfigError, match="nonnegative"):
            TopWeights(np.array([[0.5, 0.6, -0.1]]))
        with pytest.raises(ConfigError, match="row 0"):
            TopWeights(np.array([[0.5, 0.6]]))


class TestInitWeights:
    def setup_method(self):
        self.cfg = make_config(C=20, D=16, A=32.0)
        rng = np.random.default_rng(7)
        raw = rng.uniform(0.0, 4.0, size=(100, 16))
        from truncmix import normalize_input
        self.Y = normalize_input(raw, 32.0)

    def test_rows_sum_to_mass(self):
        W, R = init_weights(self.cfg, self.Y, np.random.default_rng(0))
        np.testing.assert_allclose(W.W.sum(axis=1), 32.0, rtol=1e-12)

    def test_top_layer_exactly_uniform(self):
        _, R = init_weights(self.cfg, self.Y, np.random.default_rng(0))
        assert np.all(R.R == 1.0 / 20)

    def test_deterministic_given_seed(self):
        a = init_weights(self.cfg, self.Y, np.random.default_rng(3))
        b = init_weights(self.cfg, self.Y, np.random.default_rng(3))
        assert np.array_equal(a[0].W, b[0].W) and np.array_equal(a[1].R, b[1].R)
        c = init_weights(self.cfg, self.Y, np.random.default_rng(4))
        assert not np.array_equal(a[0].W, c[0].W)

    def test_rows_are_distinct_observations(self):
        # The draw is rng.choice(N, C, replace=False), so run reports and
        # their init hashes depend on exactly this sequence of RNG calls.
        W, _ = init_weights(self.cfg, self.Y, np.random.default_rng(1))
        picked = np.random.default_rng(1).choice(100, size=20, replace=False)
        np.testing.assert_array_equal(W.W, self.Y[picked])
        assert len(np.unique(W.W, axis=0)) == 20
