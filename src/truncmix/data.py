"""Dataset ingestion, normalization, and semi-supervised label subsampling.

Canonical input is the IDX binary pair (big-endian magic, counts, raw bytes)
used by the common handwritten-digit corpora; a CSV path with header
``label,p0,...,p{D-1}`` is supported for synthetic data, with label -1
meaning unlabeled.  Raw intensities are normalized to mass A at preprocess
time; any positive rescaling of the raw data is absorbed by that step.
"""

import copy
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ConfigError, DataError
from .inference import _ROW_BLOCK, _row_blocks

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

UNLABELED = -1
OBS_SUM_RTOL = 1e-9  # row-sum tolerance of normalized observations
_LGAMMA_ROWS = 48  # lgamma_sums' four chunks fit a 2 MB L2 at D=784; two threads' sets < one block
_STIRLING = (-691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)  # Horner order


def _lgamma1p(y, buf=None):
    """lgamma(y + 1) per entry of y >= 1, into one of the four y-shaped
    float64 buffers of ``buf`` (new ones if None), which it returns.

    At x = y + 1, lgamma(x) = lgamma(x + 8) - log P, P = x(x+1)...(x+7) =
    u(u+6)(u+10)(u+12), u = x(x+7), taken at min(x, 1e30) to stay finite
    (beyond, x + 8 rounds to x and log P is below lgamma's last bit); then
    six Stirling terms at z = x + 8 >= 10, the seventh below 7e-16.  Within
    1e-14 * max(1, |lgamma|) of scipy's ``gammaln``, and inf where it is.
    """
    x, s, t, v = np.empty((4,) + y.shape) if buf is None else buf
    np.add(y, 1.0, out=x)
    np.minimum(x, 1e30, out=t)
    t *= np.add(t, 7.0, out=v)
    np.multiply(t, np.add(t, 6.0, out=v), out=v)
    for c in (10.0, 2.0):
        t += c
        v *= t
    z = np.add(x, 8.0, out=x)
    np.subtract(z, 0.5, out=t)
    with np.errstate(over="ignore"):  # (z - 1/2)(log z - 1) is inf where lgamma(z) is
        t *= np.subtract(np.log(z, out=s), 1.0, out=s)
    t -= np.log(v, out=v)
    r = np.reciprocal(z, out=s)
    r2 = np.multiply(r, r, out=v)
    np.multiply(r2, _STIRLING[0], out=x)
    for c, factor in zip(_STIRLING[1:], (r2, r2, r2, r2, r)):
        x += c
        x *= factor
    t += x
    t += 0.5 * math.log(2.0 * math.pi) - 0.5
    return t


def _checked_labels(labels, N: int, K: int) -> np.ndarray:
    """``labels`` as int64 once they are integers, align with N rows and lie in
    [0, K) or are -1.  Integer-valued floats and bools pass; any other float, or
    one beyond int64, is a DataError that names the first one's index."""
    x = np.asarray(labels)
    if x.dtype.kind == "f":
        bad = np.flatnonzero((x != np.rint(x)) | ~(np.abs(x) < 2.0**63))
        if bad.size:
            i = int(bad[0])
            raise DataError(f"label {float(x.flat[i])!r} at index {i} is not an int64 integer")
    x = x.astype(np.int64, copy=False)
    if x.shape != (N,):
        raise DataError(f"labels must align with Y rows: {N} rows, labels of shape {x.shape}")
    if K < 1:
        raise DataError("K must be positive")
    if np.any(x >= K) or np.any(x < UNLABELED):
        raise DataError(f"labels must lie in [0, {K}) or be -1")
    return x


@dataclass
class RawDataset:
    """Raw intensities and labels (-1 = unlabeled) as read; ``preprocess`` checks them."""

    X: np.ndarray       # (N, D) nonnegative raw intensities
    labels: np.ndarray  # (N,) integer labels


@dataclass
class Dataset:
    """Normalized observations, labels, and class count.

    ``labels`` uses -1 for unlabeled examples.  ``Y`` rows each sum to A and
    are componentwise >= 1, which the constructor checks per block of
    ``inference._row_blocks``, on both threads where there is a worker.
    """

    Y: np.ndarray        # (N, D) float64
    labels: np.ndarray   # (N,) int64, -1 = unlabeled
    K: int
    A: float

    def __post_init__(self):
        self.Y = np.asarray(self.Y, dtype=np.float64)
        if self.Y.ndim != 2:
            raise DataError("Y must be an (N, D) matrix")
        self.labels = _checked_labels(self.labels, self.N, self.K)
        # A block's min is NaN where it holds a NaN, and so is the min of
        # them all, as over the whole of Y.
        mins, sums = np.empty(-(-self.N // _ROW_BLOCK)), np.empty(self.N)

        def block(lo, hi):
            mins[lo // _ROW_BLOCK] = self.Y[lo:hi].min(initial=1.0)
            np.sum(self.Y[lo:hi], axis=1, out=sums[lo:hi])

        _row_blocks(block, self.N)
        if mins.min(initial=1.0) < 1.0:
            raise DataError("normalized observations must be >= 1 componentwise")
        if not np.allclose(sums, self.A, rtol=OBS_SUM_RTOL, atol=0.0):
            raise DataError("normalized observations must sum to A")

    @property
    def N(self) -> int:
        return self.Y.shape[0]

    @property
    def D(self) -> int:
        return self.Y.shape[1]

    @cached_property
    def lgamma_sums(self) -> np.ndarray:
        """sum_d lgamma(y_d + 1) per observation; constant across training.

        Each term within 1e-14 * max(1, |lgamma|) of scipy's ``gammaln``: per
        ``inference._row_blocks`` block, ``_lgamma1p`` in place on one set of
        four ``_LGAMMA_ROWS``-row buffers, bit-identical to one call over Y.
        """
        out = np.empty(self.N)

        def block(lo, hi):
            buf = np.empty((4, min(_LGAMMA_ROWS, hi - lo), self.D))
            for a in range(lo, hi, _LGAMMA_ROWS):
                b = min(a + _LGAMMA_ROWS, hi)
                np.sum(_lgamma1p(self.Y[a:b], buf[:, : b - a]), axis=1, out=out[a:b])

        _row_blocks(block, self.N)
        return out

    @property
    def n_labeled(self) -> int:
        return int(np.sum(self.labels != UNLABELED))


def _read_idx(path, magic: int) -> np.ndarray:
    """Parse an IDX byte file into (n, prod(dims)) uint8; the magic's low byte is the rank."""
    with open(path, "rb") as f:
        buf = f.read()
    found = int.from_bytes(buf[:4], "big")
    if len(buf) >= 4 and found != magic:
        raise DataError(f"bad magic {found:#010x} in {path}, expected {magic:#010x}")
    ndim = magic & 0xFF
    header = 4 + 4 * ndim
    if len(buf) < header:
        raise DataError(f"truncated IDX file: {path}")
    n, *dims = np.frombuffer(buf, dtype=">u4", count=ndim, offset=4).tolist()
    size = math.prod(dims)
    if len(buf) != header + n * size:
        raise DataError(f"truncated IDX file: {path}")
    return np.frombuffer(buf, dtype=np.uint8, offset=header).reshape(n, size)


def load_idx(images_path, labels_path) -> RawDataset:
    """Load an IDX image/label pair as read; ``preprocess`` checks that the counts agree."""
    X = _read_idx(images_path, IMAGE_MAGIC)
    return RawDataset(X, _read_idx(labels_path, LABEL_MAGIC).ravel())


def _write_idx(path, magic: int, items, dims):
    """Write ``items``, values in [0, 255], as an IDX byte file of shape (len(items), *dims)."""
    items = np.asarray(items)
    if np.any(items < 0) or np.any(items > 255):
        raise DataError(f"IDX values must lie in [0, 255], writing {path}")
    with open(path, "wb") as f:
        f.write(np.array([magic, len(items), *dims], dtype=">u4").tobytes())
        f.write(np.ascontiguousarray(items, dtype=np.uint8).tobytes())


def write_idx_images(path, X, rows: int, cols: int):
    """Write an (N, rows*cols) array of values in [0, 255] as an IDX image file."""
    if np.ndim(X) != 2 or np.shape(X)[1] != rows * cols:
        raise DataError("images must be (N, rows*cols)")
    _write_idx(path, IMAGE_MAGIC, X, (rows, cols))


def write_idx_labels(path, labels):
    _write_idx(path, LABEL_MAGIC, labels, ())


def load_csv(path) -> RawDataset:
    """Load ``label,p0,...,p{D-1}`` rows as float64; label -1 marks unlabeled
    examples, and ``preprocess`` checks that every label is an integer.  An
    empty file, a bad header, a ragged row or a non-numeric field is a
    DataError naming the file.
    """
    with open(path, "r") as f:
        header = f.readline().strip()
        start = f.tell()
        # Without a data row np.loadtxt warns rather than raises.
        if not any(line.split("#", 1)[0].strip() for line in f):
            raise DataError(f"empty CSV: {path}")
        f.seek(start)
        try:
            body = np.loadtxt(f, delimiter=",", ndmin=2)
        except ValueError as e:
            raise DataError(f"malformed CSV {path}: {e}") from e
    names = header.split(",")
    D = body.shape[1] - 1
    expected = ["label"] + [f"p{d}" for d in range(D)]
    if names != expected:
        raise DataError(f"bad CSV header in {path}: expected label,p0,...,p{D-1}")
    return RawDataset(body[:, 1:], body[:, 0])


_RAW_FAULTS = ("raw input has non-finite components", "raw input has negative components",
               "degenerate input: zero total mass", "raw input too large to scale to mass A")


def normalize_input(raw, A: float) -> np.ndarray:
    """Rescale each row of (N, D) nonnegative raw intensities to mass A.

    y_nd = (A - D) * raw_nd / sum_d(raw_nd) + 1.  Each output row sums to A
    and every component is >= 1, which keeps Poisson rates learned from such
    data strictly positive.  Per row block of ``inference._row_blocks``, on
    both threads where there is a worker, ``raw`` is cast into its slice of
    the float64 output, checked and rescaled in place, with the bits of one
    pass over the whole array.  A block with a faulty row is left unscaled.
    Of the ``_RAW_FAULTS`` that some row has (a non-finite or a negative
    entry, zero mass, a row sum or a scaled entry beyond float64), the first
    is a DataError naming its first row over all blocks.
    """
    x = np.asarray(raw)
    if x.ndim != 2:
        raise DataError(f"raw input must be an (N, D) array, got shape {x.shape}")
    y = np.empty(x.shape)
    n, D = y.shape
    if A <= D:
        raise DataError("A must exceed D")
    scale = A - D
    found = []  # per faulty block, its first row of each fault, or n

    def block(lo, hi):
        b = y[lo:hi]
        b[...] = x[lo:hi]
        # The scaled row sums and the min check the entries; masks only
        # name the rows.  A nonnegative entry overflows when scaled only
        # where its row sum does.
        with np.errstate(over="ignore"):
            total = b.sum(axis=1, keepdims=True)
            big = ~np.isfinite(total[:, 0] * scale)
            if big.any() or b.min(initial=0.0) < 0.0 or total.min(initial=1.0) <= 0.0:
                masks = (~np.isfinite(b).all(axis=1), (b < 0.0).any(axis=1), total[:, 0] <= 0.0,
                         np.isinf(total[:, 0]) | np.isinf(b.max(axis=1, initial=0.0) * scale))
                rows = [lo + int(m.argmax()) if m.any() else n for m in masks]
                if min(rows) < n:
                    found.append(rows)
                    return
        b *= scale
        b /= total
        b += 1.0

    _row_blocks(block, n)
    for what, first in zip(_RAW_FAULTS, np.min(found, axis=0) if found else ()):
        if first < n:
            raise DataError(f"{what} at index {first}")
    return y


def preprocess(raw: RawDataset, A: float, K: int) -> Dataset:
    """Normalize every example to mass A and wrap it into a Dataset of K classes:
    the one check of raw data, by ``_checked_labels`` (first, so a label fault
    costs no float64 copy) and ``normalize_input`` (the rows, a faulty one named by index)."""
    labels = _checked_labels(raw.labels, len(raw.X) if np.ndim(raw.X) else 0, K)
    return Dataset(normalize_input(raw.X, A), labels, K, float(A))


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
    # A copy skips the Dataset checks, which cannot fail: Y is ds's, already
    # checked, and the loop above made every label -1 or a class below K.
    out = copy.copy(ds)
    out.labels = keep
    return out


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
    if n < 0 or seed < 0:
        raise DataError(f"need n >= 0 and seed >= 0, got n={n}, seed={seed}")
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
