"""Batch passes in fixed row blocks, split between the caller and one worker.

Every pass over more than ``_ROW_BLOCK`` rows runs per block, the first half
of the blocks on the calling thread and the rest on the worker thread.  The
blocks, not the CPU count, define the bits: each pass must write the same
bytes with the worker and without it, and a point's activations and class
scores must not depend on its batch: on how many other points share it, or
where in it the point sits.  The load-time passes (``normalize_input`` and
the ``Dataset`` checks) run on the same blocks and name the same faulty row
as one pass over the whole array.
"""

import re

import numpy as np
import pytest
from scipy.special import logsumexp

from truncmix import inference
from truncmix.core import DataError, TopWeights
from truncmix.data import Dataset, normalize_input
from truncmix.harness import _CHUNK, _class_scores, predict_batch
from truncmix.inference import _ROW_BLOCK, integrate, select_truncation
from truncmix.learning import _tv_em_pass, batch_e_step, batch_m_step, free_energy, run_tv_em

from conftest import (
    CountingExecutor, lgamma_sums, posteriors_by_row, random_observations, random_weights,
)


@pytest.fixture()
def worker(monkeypatch):
    """The batch passes' worker, present whatever the CPU count."""
    pool = CountingExecutor()
    monkeypatch.setattr(inference, "_WORKER", pool)
    yield pool
    pool.shutdown(wait=True)


def per_point_formula(I, W, sets, lg) -> str:
    """F from whole activations: per point, scipy's log-sum-exp of the support joints."""
    lj = (np.take_along_axis(I, sets, axis=1) - W.W.sum(axis=1)[sets] - lg[:, None]
          - np.log(W.C))
    return repr(float(logsumexp(lj, axis=1).sum()))


def run_passes(Y, W, R, c_prime) -> dict:
    """Every batch pass over Y, as the bytes (or value) it returns."""
    I = integrate(W, Y)
    sets = select_truncation(I, c_prime)
    probs = posteriors_by_row(I, sets)
    W_new, dead = batch_m_step(Y, (sets, probs), W)
    lg = lgamma_sums(Y)
    prev = (sets + 1) % W.C  # other sets, for the M-step reading of the fused pass
    (e_sets, e_probs, f), f_prev = _tv_em_pass(Y, W, c_prime, lg, prev)
    return {
        "integrate": I.tobytes(),
        "select_truncation": np.ascontiguousarray(sets).tobytes(),
        "truncated_posterior": probs.tobytes(),
        "formula": (per_point_formula(I, W, sets, lg), per_point_formula(I, W, prev, lg)),
        "free_energy": (repr(free_energy(Y, W, sets, lg)), repr(free_energy(Y, W, prev, lg))),
        "_tv_em_pass": (np.ascontiguousarray(e_sets).tobytes(), e_probs.tobytes(),
                        repr(f), repr(f_prev)),
        "batch_m_step": (W_new.W.tobytes(), dead),
        "class_scores": _class_scores(Y, W, R, c_prime).tobytes(),
        "predict_batch": predict_batch(Y, W, R, c_prime).tobytes(),
    }


@pytest.mark.parametrize("C, c_prime", [(1, 1), (15, 4), (15, 15), (401, 15), (401, 401)])
@pytest.mark.parametrize("N", [1, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 255, 256, 257, 6000])
def test_worker_and_serial_passes_write_equal_bytes(worker, monkeypatch, N, C, c_prime):
    rng = np.random.default_rng(N + C)
    D, A = 12, 36.0
    W = random_weights(rng, C, D, A)
    R = TopWeights(rng.dirichlet(np.ones(C), size=3))
    Y = random_observations(rng, N, D, A)
    split = run_passes(Y, W, R, c_prime)
    # Every pass with two nonempty parts (rows past one block, or the
    # M-step's C // 2 rows) hands the second part to the worker.
    assert (worker.submitted > 0) == (N > _ROW_BLOCK or C // 2 > 0)
    monkeypatch.setattr(inference, "_WORKER", None)
    serial = run_passes(Y, W, R, c_prime)
    assert [k for k in split if split[k] != serial[k]] == []
    # The fused passes reduce each block in cache and equal the unfused
    # passes over the whole activation matrix, with and without the worker.
    for passes in (split, serial):
        assert passes["free_energy"] == passes["formula"]
        assert passes["_tv_em_pass"] == (passes["select_truncation"],
                                         passes["truncated_posterior"], *passes["formula"])


@pytest.mark.parametrize("bad_row", [3, 300, 599], ids=["caller", "caller-2nd-block", "worker"])
def test_non_finite_row_in_any_block_raises(worker, bad_row):
    rng = np.random.default_rng(6)
    W = random_weights(rng, 7, 5, 15.0)
    Y = random_observations(rng, 600, 5, 15.0)
    Y[bad_row, 2] = np.nan
    worker.submitted = 0  # normalizing Y submitted a block pass too
    with pytest.raises(DataError, match="non-finite"):
        integrate(W, Y)
    assert worker.submitted == 1


@pytest.mark.parametrize("run", [
    lambda W, Y: free_energy(Y, W, np.zeros((len(Y), 2), dtype=np.intp), lgamma_sums(Y)),
    lambda W, Y: run_tv_em(Y, W, 2, 3, lgamma_sums(Y)),
], ids=["free_energy", "run_tv_em"])
@pytest.mark.parametrize("bad_row", [3, 300, 599], ids=["caller", "caller-2nd-block", "worker"])
def test_fused_passes_raise_on_non_finite_row(worker, bad_row, run):
    # The fused passes check each activation block as integrate does.
    rng = np.random.default_rng(6)
    W = random_weights(rng, 7, 5, 15.0)
    Y = random_observations(rng, 600, 5, 15.0)
    Y[bad_row, 2] = np.nan
    worker.submitted = 0  # normalizing Y submitted a block pass too
    with pytest.raises(DataError, match="non-finite"):
        run(W, Y)
    assert worker.submitted == 1


@pytest.mark.parametrize("run", [
    lambda W, Y: integrate(W, Y),
    lambda W, Y: free_energy(Y, W, np.zeros((len(Y), 2), dtype=np.intp), lgamma_sums(Y)),
    lambda W, Y: run_tv_em(Y, W, 2, 3, lgamma_sums(Y)),
    lambda W, Y: predict_batch(Y, W, TopWeights(np.full((2, 7), 1 / 7)), 2),
], ids=["integrate", "free_energy", "run_tv_em", "predict_batch"])
def test_gemm_passes_name_a_dimension_mismatch(run):
    # One check, before any GEMM, gives the E-step's message, not numpy's.
    rng = np.random.default_rng(9)
    W = random_weights(rng, 7, 4, 15.0)
    Y = random_observations(rng, 20, 5, 15.0)
    with pytest.raises(ValueError, match=r"^Y has D=5, W has D=4$"):
        run(W, Y)


@pytest.mark.parametrize("run", [
    lambda W, y: integrate(W, y),
    lambda W, y: batch_e_step(y, W, 2),
    lambda W, y: batch_e_step(y, W, 7),  # C'=C runs no GEMM
    lambda W, y: free_energy(y, W, np.zeros((len(y), 2), dtype=np.intp), np.zeros(len(y))),
    lambda W, y: run_tv_em(y, W, 2, 3, np.zeros(len(y))),
    lambda W, y: predict_batch(y, W, TopWeights(np.full((2, 7), 1 / 7)), 2),
], ids=["integrate", "batch_e_step", "batch_e_step-full", "free_energy", "run_tv_em",
        "predict_batch"])
def test_batch_passes_name_the_batch_shape_of_one_point(run):
    # One point's D-vector raised IndexError from the D check.
    W = random_weights(np.random.default_rng(10), 7, 4, 15.0)
    with pytest.raises(ValueError, match=r"^Y must be an \(N, D\) batch, got shape \(4,\)$"):
        run(W, np.full(4, 15.0 / 4))


@pytest.mark.parametrize("serial", [False, True], ids=["worker", "serial"])
@pytest.mark.parametrize("c_prime", [4, 15])
def test_class_scores_across_the_chunk_boundary(worker, monkeypatch, c_prime, serial):
    # Each _CHUNK of rows gets its own activation matrix and block pass, so
    # the rows on either side of a chunk boundary score as they do alone.
    if serial:
        monkeypatch.setattr(inference, "_WORKER", None)
    rng = np.random.default_rng(c_prime)
    W = random_weights(rng, 15, 12, 36.0)
    R = TopWeights(rng.dirichlet(np.ones(15), size=3))
    Y = random_observations(rng, _CHUNK + 300, 12, 36.0)
    scores = _class_scores(Y, W, R, c_prime)
    assert scores[:_CHUNK].tobytes() == _class_scores(Y[:_CHUNK], W, R, c_prime).tobytes()
    assert scores[_CHUNK:].tobytes() == _class_scores(Y[_CHUNK:], W, R, c_prime).tobytes()
    assert (worker.submitted > 0) != serial


def rows_apart(a: np.ndarray, b: np.ndarray) -> list:
    """Indices of the rows whose bits differ between a and b."""
    return np.flatnonzero((a.view(np.uint64) != b.view(np.uint64)).any(axis=1)).tolist()


@pytest.mark.parametrize("C, c_prime", [(C, c_prime) for C in (1, 7, 15, 399, 400, 401, 409)
                                        for c_prime in sorted({min(15, C), C})])
def test_class_scores_do_not_depend_on_batch_size(C, c_prime):
    # Alone, rows 0-299 end in a short block, which is padded to a full one,
    # and a batch that starts at row a puts each row at another place in its
    # block; a one-row batch is padded alike.  On this BLAS an unpadded
    # 48-row GEMM rounds every row differently from a full block at C=15,
    # and a 256-row block rounds its last rows apart from its others at
    # C mod 8 != 0 near C=400.  Only fixed, padded blocks of _ROW_BLOCK rows,
    # which round every row alike, give every row equal activations and scores.
    rng = np.random.default_rng(7)
    W = random_weights(rng, C, 784, 900.0)
    R = TopWeights(rng.dirichlet(np.ones(C), size=10))
    Y = random_observations(rng, 1200, 784, 900.0)
    I = integrate(W, Y)
    scores = _class_scores(Y, W, R, c_prime)
    for n in (0, 1, 43, _ROW_BLOCK - 1, _ROW_BLOCK, 299, 1199):
        assert rows_apart(integrate(W, Y[n : n + 1]), I[n : n + 1]) == [], n
    for a, b in [(0, 300), *((a, 1200) for a in (1, 3, 10, 100, _ROW_BLOCK - 1, _ROW_BLOCK + 1))]:
        assert rows_apart(integrate(W, Y[a:b]), I[a:b]) == [], (a, b)
        assert rows_apart(_class_scores(Y[a:b], W, R, c_prime), scores[a:b]) == [], (a, b)


def unblocked_normalize(raw, A) -> np.ndarray:
    """``normalize_input``'s formula over the whole array at once."""
    x = np.asarray(raw, dtype=np.float64)
    return (A - x.shape[-1]) * x / x.sum(axis=-1, keepdims=True) + 1.0


@pytest.mark.parametrize("kind", ["uint8", "strided"])
@pytest.mark.parametrize("N", [1, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 255, 256, 257, 6000])
def test_normalize_and_dataset_write_equal_bytes(worker, monkeypatch, N, kind):
    # uint8 counts as load_idx gives them, and the strided float64 view
    # body[:, 1:] that load_csv gives.
    rng = np.random.default_rng(N)
    if kind == "uint8":
        raw = rng.integers(0, 256, size=(N, 784), dtype=np.uint8)
    else:
        raw = rng.uniform(0.0, 9.0, size=(N, 785))[:, 1:]
    expected = unblocked_normalize(raw, 900.0).tobytes()
    labels = np.zeros(N, dtype=np.int64)
    Y = normalize_input(raw, 900.0)
    assert Dataset(Y, labels, 1, 900.0).Y.tobytes() == expected
    assert (worker.submitted > 0) == (N > _ROW_BLOCK)
    monkeypatch.setattr(inference, "_WORKER", None)
    Y = normalize_input(raw, 900.0)
    assert Dataset(Y, labels, 1, 900.0).Y.tobytes() == expected


@pytest.mark.parametrize("D", [1, 5, 784])
def test_normalize_one_point_equals_formula(worker, D):
    raw = np.random.default_rng(D).uniform(0.0, 9.0, size=(1, D))
    assert normalize_input(raw, 2.5 * D).tobytes() == unblocked_normalize(raw, 2.5 * D).tobytes()
    assert worker.submitted == 0


def raw_with_faults(faults) -> np.ndarray:
    """600 rows of 5 raw values: rows 0-511 form the caller's two blocks and
    rows 512-599 the worker's one; ``faults`` maps a row to its fault."""
    x = np.random.default_rng(8).uniform(0.5, 9.0, size=(600, 5))
    for row, fault in faults.items():
        if fault == "nan":
            x[row, 2] = np.nan
        elif fault == "negative":
            x[row, 3] = -1.0
        elif fault == "zero":
            x[row] = 0.0
        elif fault == "huge":
            x[row, :2] = 1e308
    return x


@pytest.mark.parametrize("serial", [False, True], ids=["worker", "serial"])
@pytest.mark.parametrize("faults, message", [
    ({3: "negative", 599: "nan"}, "raw input has non-finite components at index 599"),
    ({550: "negative", 590: "negative"}, "raw input has negative components at index 550"),
    ({599: "nan", 530: "nan"}, "raw input has non-finite components at index 530"),
    ({300: "zero"}, "degenerate input: zero total mass at index 300"),
    ({520: "zero", 400: "zero", 10: "huge"}, "degenerate input: zero total mass at index 400"),
    ({540: "huge", 560: "negative"}, "raw input has negative components at index 560"),
    ({540: "huge"}, "raw input too large to scale to mass A at index 540"),
], ids=["caller-negative-worker-nan", "worker-negative", "worker-nan", "zero-300",
        "zero-before-huge", "negative-before-huge", "worker-huge"])
def test_normalize_names_the_first_row_of_the_first_fault(worker, monkeypatch, serial, faults,
                                                           message):
    # Non-finite, then negative, then zero mass, then too large; each names
    # its first row over the whole array, whichever block holds it.
    if serial:
        monkeypatch.setattr(inference, "_WORKER", None)
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        normalize_input(raw_with_faults(faults), 50.0)
    assert worker.submitted == (0 if serial else 1)


@pytest.mark.parametrize("serial", [False, True], ids=["worker", "serial"])
@pytest.mark.parametrize("faults, message", [
    ({550: 0.5}, "must be >= 1 componentwise"),
    ({3: np.nan, 550: 0.5}, "must sum to A"),
    ({550: 1.5}, "must sum to A"),
], ids=["worker-below-one", "caller-nan-worker-below-one", "worker-sum"])
def test_dataset_checks_find_a_fault_in_any_block(worker, monkeypatch, serial, faults, message):
    # A NaN anywhere hides a value below 1 from the min check, as over the
    # whole of Y; the row sums still catch it.
    if serial:
        monkeypatch.setattr(inference, "_WORKER", None)
    Y = normalize_input(raw_with_faults({}), 50.0)
    for row, value in faults.items():
        Y[row, 0] = value
    with pytest.raises(DataError, match=message):
        Dataset(Y, np.zeros(600, dtype=np.int64), 1, 50.0)
