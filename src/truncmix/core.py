"""Configuration and weight containers for the hierarchical Poisson mixture classifier.

The model has two weight matrices: a C x D bottom layer of positive Poisson
rates whose rows all sum to the input mass A, and a K x C top layer of
nonnegative class-mixture weights whose rows sum to one.  Everything here is
plain numpy plus validation; the math lives in `inference` and `learning`.
"""

import json
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

# Row-sum tolerances.  Probability vectors are produced by a single
# normalization, so they get tight bounds; W rows absorb rounding drift from
# long online-update sequences and get a looser one.
W_ROW_RTOL = 1e-6
R_ROW_TOL = 1e-9


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
    seed: int         # RNG seed, >= 0

    def __post_init__(self):
        """Raise ConfigError naming the first violated invariant, so every
        instance, however it was built, is a valid configuration that
        ``to_json`` can write.  Integer fields take an ``int``, real fields an
        ``int`` or a ``float``; a ``bool`` is neither."""
        for f in fields(self):
            value = getattr(self, f.name)
            kinds = (int,) if f.type is int else (int, float)
            if isinstance(value, bool) or not isinstance(value, kinds):
                what = "an integer" if f.type is int else "a real number"
                raise ConfigError(f"{f.name} must be {what}")
        for name, minimum in (("K", 2), ("C", 1), ("C_prime", 1), ("D", 1), ("epochs", 0),
                              ("seed", 0)):
            if getattr(self, name) < minimum:
                raise ConfigError(f"{name} must be >= {minimum}")
        if self.C_prime > self.C:
            raise ConfigError("C_prime must not exceed C")
        if not self.D < self.A <= sys.float_info.max:
            raise ConfigError("A must exceed D and be finite")
        for name, eps in (("eps_W", self.eps_W), ("eps_R", self.eps_R)):
            if not (0.0 < eps <= 1.0):
                raise ConfigError(f"{name} must lie in (0, 1]")
        if not (0.0 <= self.theta_bvsb <= 1.0):
            raise ConfigError("theta_bvsb must lie in [0, 1]")

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
        return cls(**doc)


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
                f"W row {worst} sums to {float(sums[worst])!r}, expected {float(self.A)!r}"
            )

    @property
    def C(self) -> int:
        return self.W.shape[0]

    @property
    def D(self) -> int:
        return self.W.shape[1]


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
            raise ConfigError(f"R row {worst} sums to {float(sums[worst])!r}, expected 1")

    @property
    def K(self) -> int:
        return self.R.shape[0]
