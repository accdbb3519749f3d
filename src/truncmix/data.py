"""Dataset ingestion, normalization, and semi-supervised label subsampling.

Canonical input is the IDX binary pair (big-endian magic, counts, raw bytes)
used by the common handwritten-digit corpora; a CSV path with header
``label,p0,...,p{D-1}`` is supported for synthetic data, with label -1
meaning unlabeled.  Raw intensities are normalized to mass A at preprocess
time; any positive rescaling of the raw data is absorbed by that step.
"""

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammaln

from .core import ConfigError, DataError, OBS_SUM_RTOL
from .inference import normalize_input

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

UNLABELED = -1


@dataclass
class RawDataset:
    """Pre-normalization intensities plus labels (-1 where unlabeled)."""

    X: np.ndarray       # (N, D) nonnegative raw intensities
    labels: np.ndarray  # (N,) int64

    def __post_init__(self):
        self.X = np.asarray(self.X)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.X.ndim != 2 or self.labels.shape != (self.X.shape[0],):
            raise DataError("raw data must be (N, D) with N labels")

    @property
    def N(self) -> int:
        return self.X.shape[0]

    @property
    def D(self) -> int:
        return self.X.shape[1]


@dataclass
class Dataset:
    """Normalized observations, labels, and class count.

    ``labels`` uses -1 for unlabeled examples.  ``Y`` rows each sum to A and
    are componentwise >= 1.
    """

    Y: np.ndarray        # (N, D) float64
    labels: np.ndarray   # (N,) int64, -1 = unlabeled
    K: int
    A: float

    def __post_init__(self):
        self.Y = np.asarray(self.Y, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.Y.ndim != 2:
            raise DataError("Y must be an (N, D) matrix")
        if self.labels.shape != (self.Y.shape[0],):
            raise DataError("labels must align with Y rows")
        if self.K < 1:
            raise DataError("K must be positive")
        if np.any(self.labels >= self.K) or np.any(self.labels < UNLABELED):
            raise DataError(f"labels must lie in [0, {self.K}) or be -1")
        if np.any(self.Y < 1.0):
            raise DataError("normalized observations must be >= 1 componentwise")
        sums = self.Y.sum(axis=1)
        if not np.allclose(sums, self.A, rtol=OBS_SUM_RTOL, atol=0.0):
            raise DataError("normalized observations must sum to A")

    @property
    def N(self) -> int:
        return self.Y.shape[0]

    @property
    def D(self) -> int:
        return self.Y.shape[1]

    def __len__(self) -> int:
        return self.N

    @cached_property
    def lgamma_sums(self) -> np.ndarray:
        """sum_d lgamma(y_d + 1) per observation; constant across training."""
        return gammaln(self.Y + 1.0).sum(axis=1)

    @property
    def n_labeled(self) -> int:
        return int(np.sum(self.labels != UNLABELED))


def _read_be_u32(buf: bytes, offset: int, path: str) -> int:
    if offset + 4 > len(buf):
        raise DataError(f"truncated IDX file: {path}")
    return struct.unpack_from(">I", buf, offset)[0]


def load_idx_images(path) -> np.ndarray:
    """Parse an IDX image file into an (N, rows*cols) uint8 matrix."""
    with open(path, "rb") as f:
        buf = f.read()
    magic = _read_be_u32(buf, 0, path)
    if magic != IMAGE_MAGIC:
        raise DataError(f"bad magic {magic:#010x} in {path}, expected {IMAGE_MAGIC:#010x}")
    n = _read_be_u32(buf, 4, path)
    rows = _read_be_u32(buf, 8, path)
    cols = _read_be_u32(buf, 12, path)
    if len(buf) != 16 + n * rows * cols:
        raise DataError(f"truncated IDX file: {path}")
    return np.frombuffer(buf, dtype=np.uint8, offset=16).reshape(n, rows * cols)


def load_idx_labels(path) -> np.ndarray:
    """Parse an IDX label file into an (N,) int64 vector."""
    with open(path, "rb") as f:
        buf = f.read()
    magic = _read_be_u32(buf, 0, path)
    if magic != LABEL_MAGIC:
        raise DataError(f"bad magic {magic:#010x} in {path}, expected {LABEL_MAGIC:#010x}")
    n = _read_be_u32(buf, 4, path)
    if len(buf) != 8 + n:
        raise DataError(f"truncated IDX file: {path}")
    return np.frombuffer(buf, dtype=np.uint8, offset=8).astype(np.int64)


def load_idx(images_path, labels_path) -> RawDataset:
    """Load an IDX image/label pair; counts must agree across the files."""
    X = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if X.shape[0] != labels.shape[0]:
        raise DataError(
            f"image/label count mismatch: {X.shape[0]} images vs {labels.shape[0]} labels"
        )
    return RawDataset(X, labels)


def write_idx_images(path, X, rows: int, cols: int):
    """Write an (N, rows*cols) array of values in [0, 255] as an IDX image file."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[1] != rows * cols:
        raise DataError("images must be (N, rows*cols)")
    if np.any(X < 0) or np.any(X > 255):
        raise DataError("IDX image values must lie in [0, 255]")
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGE_MAGIC, X.shape[0], rows, cols))
        f.write(np.ascontiguousarray(X, dtype=np.uint8).tobytes())


def write_idx_labels(path, labels):
    labels = np.asarray(labels)
    if np.any(labels < 0) or np.any(labels > 255):
        raise DataError("IDX label values must lie in [0, 255]")
    with open(path, "wb") as f:
        f.write(struct.pack(">II", LABEL_MAGIC, labels.shape[0]))
        f.write(np.ascontiguousarray(labels, dtype=np.uint8).tobytes())


def load_csv(path) -> RawDataset:
    """Load ``label,p0,...,p{D-1}`` rows; label -1 marks unlabeled examples.

    Labels must be integers; the first offending data row (counted from 0
    after the header) is named in the DataError.
    """
    with open(path, "r") as f:
        header = f.readline().strip()
        body = np.loadtxt(f, delimiter=",", ndmin=2)
    names = header.split(",")
    if body.size == 0:
        raise DataError(f"empty CSV: {path}")
    D = body.shape[1] - 1
    expected = ["label"] + [f"p{d}" for d in range(D)]
    if names != expected:
        raise DataError(f"bad CSV header in {path}: expected label,p0,...,p{D-1}")
    labels = body[:, 0]
    bad = np.nonzero(~np.isfinite(labels) | (labels != np.rint(labels)))[0]
    if bad.size:
        i = int(bad[0])
        raise DataError(f"non-integer label {float(labels[i])!r} at data row {i} of {path}")
    return RawDataset(body[:, 1:], labels.astype(np.int64))


def write_csv(path, X, labels):
    X = np.asarray(X)
    labels = np.asarray(labels, dtype=np.int64)
    header = "label," + ",".join(f"p{d}" for d in range(X.shape[1]))
    out = np.column_stack([labels.astype(np.float64), X])
    np.savetxt(path, out, delimiter=",", header=header, comments="", fmt="%.17g")


def preprocess(raw: RawDataset, A: float, K: int | None = None) -> Dataset:
    """Normalize every example to mass A and wrap it into a Dataset.

    All-zero rows are rejected with the offending index; K defaults to one
    past the largest label present.
    """
    Y = normalize_input(raw.X, A)
    if K is None:
        K = int(raw.labels.max()) + 1 if np.any(raw.labels >= 0) else 1
    return Dataset(Y, raw.labels, K, float(A))


def subsample_labels(ds: Dataset, labels_per_class: int, seed: int) -> Dataset:
    """Keep labels on exactly ``labels_per_class`` examples per class.

    Chosen uniformly without replacement within each class; every other
    example becomes unlabeled.  Example order and contents are untouched.
    """
    if labels_per_class < 0:
        raise ConfigError(f"labels per class must be >= 0, got {labels_per_class}")
    rng = np.random.default_rng(seed)
    keep = np.full(ds.N, UNLABELED, dtype=np.int64)
    for k in range(ds.K):
        candidates = np.nonzero(ds.labels == k)[0]
        if candidates.size < labels_per_class:
            raise DataError(
                f"class {k} has only {candidates.size} labeled examples, "
                f"need {labels_per_class}"
            )
        chosen = rng.choice(candidates, size=labels_per_class, replace=False)
        keep[chosen] = k
    return Dataset(ds.Y, keep, ds.K, ds.A)


def generate_mixture(
    n_clusters: int,
    dim: int,
    n: int,
    seed: int,
    separation: float = 9.0,
) -> tuple[RawDataset, np.ndarray]:
    """Sample count data from a known Poisson mixture with uniform weights.

    Each cluster's rate row puts ``separation``-fold extra mass on its own
    block of dimensions, then is scaled to sum to 8*dim,
    so rows are well separated.  Cluster assignments are returned as labels.
    Returns (raw dataset, true rate matrix).
    """
    if n_clusters < 1 or dim < n_clusters:
        raise DataError("need dim >= n_clusters >= 1")
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.8, 1.2, size=(n_clusters, dim))
    blocks = np.array_split(np.arange(dim), n_clusters)
    for c, block in enumerate(blocks):
        base[c, block] *= 1.0 + separation
    true_W = base * (8.0 * dim / base.sum(axis=1, keepdims=True))
    labels = rng.integers(0, n_clusters, size=n)
    X = rng.poisson(true_W[labels]).astype(np.int64)
    # An all-zero draw would be rejected at preprocess; resample those rows.
    while True:
        dead = np.nonzero(X.sum(axis=1) == 0)[0]
        if dead.size == 0:
            break
        X[dead] = rng.poisson(true_W[labels[dead]])
    return RawDataset(X, labels), true_W
