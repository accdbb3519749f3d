"""Configuration and weight containers for the hierarchical Poisson mixture classifier.

The model has two weight matrices: a C x D bottom layer of positive Poisson
rates whose rows all sum to the input mass A, and a K x C top layer of
nonnegative class-mixture weights whose rows sum to one.  Everything here is
plain numpy plus validation; the math lives in `inference`, `learning` and
`classifier`.
"""

import json
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

# Row-sum tolerances.  Probability vectors are produced by a single
# normalization, so they get tight bounds; W rows absorb rounding drift from
# long online-update sequences and get a looser one.
W_ROW_RTOL = 1e-6
R_ROW_TOL = 1e-9
OBS_SUM_RTOL = 1e-9


class ConfigError(ValueError):
    """A model configuration violates one of its invariants."""


class DataError(ValueError):
    """Input data is malformed, degenerate, or inconsistent."""


class MonotonicityError(ArithmeticError):
    """A batch EM free-energy trace decreased beyond numerical slack."""


@dataclass(frozen=True)
class ModelConfig:
    """All free parameters of a run.

    ``C_prime`` is the per-data-point truncation size: only the C_prime
    clusters with the largest log activations keep nonzero posterior mass.
    ``C_prime == C`` disables truncation entirely.
    """

    K: int            # class count
    C: int            # cluster count
    C_prime: int      # truncation size, 1 <= C_prime <= C
    A: float          # input normalization mass, must exceed D
    D: int            # input dimensionality
    eps_W: float      # bottom-layer learning rate, in (0, 1]
    eps_R: float      # top-layer learning rate, in (0, 1]
    theta_bvsb: float  # self-labeling confidence threshold, in [0, 1]
    epochs: int       # online passes over the training set
    seed: int         # RNG seed

    def replace(self, **kw) -> "ModelConfig":
        return validate_config(replace(self, **kw))

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
        if not isinstance(doc, dict):
            raise ConfigError("config JSON must be an object")
        names = [f.name for f in fields(cls)]
        unknown = sorted(set(doc) - set(names))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        missing = sorted(set(names) - set(doc))
        if missing:
            raise ConfigError(f"missing config keys: {', '.join(missing)}")
        return validate_config(cls(**doc))


def validate_config(cfg: ModelConfig) -> ModelConfig:
    """Return ``cfg`` unchanged, or raise ConfigError naming the first
    violated invariant."""
    def _int(name, value, minimum):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ConfigError(f"{name} must be an integer")
        if value < minimum:
            raise ConfigError(f"{name} must be >= {minimum}")

    _int("K", cfg.K, 1)
    _int("C", cfg.C, 1)
    _int("C_prime", cfg.C_prime, 1)
    if cfg.C_prime > cfg.C:
        raise ConfigError("C_prime must not exceed C")
    _int("D", cfg.D, 1)
    if not np.isfinite(cfg.A) or cfg.A <= cfg.D:
        raise ConfigError("A must exceed D")
    for name, eps in (("eps_W", cfg.eps_W), ("eps_R", cfg.eps_R)):
        if not (0.0 < eps <= 1.0):
            raise ConfigError(f"{name} must lie in (0, 1]")
    if not (0.0 <= cfg.theta_bvsb <= 1.0):
        raise ConfigError("theta_bvsb must lie in [0, 1]")
    _int("epochs", cfg.epochs, 0)
    _int("seed", cfg.seed, -(2**63))
    return cfg


@dataclass
class BottomWeights:
    """C x D matrix of positive Poisson rates; every row sums to A.

    The matrix is mutated in place by online updates; callers must serialize
    writers.  Positivity keeps every log(W) finite.
    """

    W: np.ndarray
    A: float

    def __post_init__(self):
        self.W = np.ascontiguousarray(self.W, dtype=np.float64)
        if self.W.ndim != 2:
            raise ConfigError("W must be a C x D matrix")
        self.validate()

    def validate(self):
        if not np.all(self.W > 0.0):
            raise ConfigError("W entries must be strictly positive")
        sums = self.W.sum(axis=1)
        if not np.allclose(sums, self.A, rtol=W_ROW_RTOL, atol=0.0):
            worst = int(np.argmax(np.abs(sums - self.A)))
            raise ConfigError(
                f"W row {worst} sums to {sums[worst]!r}, expected {self.A!r}"
            )

    @property
    def C(self) -> int:
        return self.W.shape[0]

    @property
    def D(self) -> int:
        return self.W.shape[1]

    def copy(self) -> "BottomWeights":
        return BottomWeights(self.W.copy(), self.A)


@dataclass
class TopWeights:
    """K x C matrix of nonnegative class-mixture weights; rows sum to 1."""

    R: np.ndarray

    def __post_init__(self):
        self.R = np.ascontiguousarray(self.R, dtype=np.float64)
        if self.R.ndim != 2:
            raise ConfigError("R must be a K x C matrix")
        self.validate()

    def validate(self):
        if np.any(self.R < 0.0):
            raise ConfigError("R entries must be nonnegative")
        sums = self.R.sum(axis=1)
        if not np.all(np.abs(sums - 1.0) <= R_ROW_TOL):
            worst = int(np.argmax(np.abs(sums - 1.0)))
            raise ConfigError(f"R row {worst} sums to {sums[worst]!r}, expected 1")

    @property
    def K(self) -> int:
        return self.R.shape[0]

    @property
    def C(self) -> int:
        return self.R.shape[1]

    def copy(self) -> "TopWeights":
        return TopWeights(self.R.copy())


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
