import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import truncmix  # noqa: F401  (first: its one-thread BLAS pin must precede numpy's import)
import numpy as np
import pytest
from scipy.special import gammaln

from truncmix.core import BottomWeights
from truncmix.data import normalize_input
from truncmix.inference import truncated_posterior

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


class CountingExecutor(ThreadPoolExecutor):
    """A one-thread pool that counts its submits, to stand in for ``inference._WORKER``."""

    def __init__(self):
        super().__init__(max_workers=1)
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


def random_weights(rng, C, D, A) -> BottomWeights:
    W = rng.uniform(0.2, 3.0, size=(C, D))
    W *= A / W.sum(axis=1, keepdims=True)
    return BottomWeights(W, A)


def random_observations(rng, N, D, A) -> np.ndarray:
    return normalize_input(rng.uniform(0.0, 10.0, size=(N, D)), A)


def lgamma_sums(Y) -> np.ndarray:
    """sum_d lgamma(y_d + 1) per row of Y, the argument ``free_energy`` takes."""
    return gammaln(Y + 1.0).sum(axis=1)


def posteriors_by_row(I, sets) -> np.ndarray:
    """The (N, C') truncated posteriors of a batch, one ``truncated_posterior``
    call per row."""
    probs = np.empty(sets.shape)
    for n in range(len(sets)):
        probs[n] = truncated_posterior(I[n], sets[n])
    return probs


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


def write_csv(path, X, labels):
    """Write ``label,p0,...`` rows, the format ``load_csv`` reads."""
    X = np.asarray(X)
    header = "label," + ",".join(f"p{d}" for d in range(X.shape[1]))
    out = np.column_stack([np.asarray(labels, dtype=np.float64), X])
    np.savetxt(path, out, delimiter=",", header=header, comments="", fmt="%.17g")


def worst_relative_decrease(trace) -> float:
    """Largest per-step drop of a FreeEnergyTrace, normalized by |previous
    value|; 0 if none."""
    v = np.array([v for _, v in trace.entries], dtype=np.float64)
    if v.size < 2:
        return 0.0
    drops = (v[:-1] - v[1:]) / np.abs(v[:-1])
    return float(max(0.0, drops.max()))
