import os
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln

import truncmix as tm

MNIST_FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)


def mnist_dir() -> Path | None:
    """Locate the raw MNIST IDX files, or None if they are not available."""
    for candidate in (os.environ.get("TRUNCMIX_MNIST"), "/root/data/mnist"):
        if not candidate:
            continue
        d = Path(candidate)
        if all((d / f).exists() for f in MNIST_FILES):
            return d
    return None


@pytest.fixture(scope="session")
def mnist_path() -> Path:
    d = mnist_dir()
    if d is None:
        pytest.skip("MNIST IDX files not found (set TRUNCMIX_MNIST)")
    return d


def random_weights(rng, C, D, A) -> tm.BottomWeights:
    W = rng.uniform(0.2, 3.0, size=(C, D))
    W *= A / W.sum(axis=1, keepdims=True)
    return tm.BottomWeights(W, A)


def random_observations(rng, N, D, A) -> np.ndarray:
    return tm.normalize_input(rng.uniform(0.0, 10.0, size=(N, D)), A)


def log_joint(W_row, y, C: int) -> float:
    """log p(c, y) for one cluster row under a uniform 1/C cluster prior.

    Normalized inputs are real-valued, so the Poisson mass function is
    evaluated through its continuous extension: log(y!) -> lgamma(y + 1).
    """
    W_row = np.asarray(W_row, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return float(
        -np.log(C)
        + np.dot(y, np.log(W_row))
        - W_row.sum()
        - gammaln(y + 1.0).sum()
    )
