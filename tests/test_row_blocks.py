"""Batch passes in fixed row blocks, split between the caller and one worker.

Every pass over more than ``_ROW_BLOCK`` rows runs per block, the first half
of the blocks on the calling thread and the rest on the worker thread.  The
blocks, not the CPU count, define the bits: each pass must write the same
bytes with the worker and without it, and a point's class scores must not
depend on how many other points share its batch.
"""

import numpy as np
import pytest

from truncmix import inference
from truncmix.core import DataError, TopWeights
from truncmix.harness import _class_scores, predict_batch
from truncmix.inference import _ROW_BLOCK, integrate, select_truncation, truncated_posterior
from truncmix.learning import _free_energy_at, batch_m_step

from conftest import CountingExecutor, lgamma_sums, random_observations, random_weights


@pytest.fixture()
def worker(monkeypatch):
    """The batch passes' worker, present whatever the CPU count."""
    pool = CountingExecutor()
    monkeypatch.setattr(inference, "_WORKER", pool)
    yield pool
    pool.shutdown(wait=True)


def run_passes(Y, W, R, c_prime) -> dict:
    """Every batch pass over Y, as the bytes (or value) it returns."""
    I = integrate(W, Y)
    sets = select_truncation(I, c_prime)
    probs = truncated_posterior(I, sets)
    W_new, dead = batch_m_step(Y, (sets, probs), W)
    return {
        "integrate": I.tobytes(),
        "select_truncation": np.ascontiguousarray(sets).tobytes(),
        "truncated_posterior": probs.tobytes(),
        "_free_energy_at": repr(_free_energy_at(I, W, sets, lgamma_sums(Y))),
        "batch_m_step": (W_new.W.tobytes(), dead),
        "class_scores": _class_scores(Y, W, R, c_prime).tobytes(),
        "predict_batch": predict_batch(Y, W, R, c_prime).tobytes(),
    }


@pytest.mark.parametrize("C, c_prime", [(1, 1), (15, 4), (15, 15), (401, 15), (401, 401)])
@pytest.mark.parametrize("N", [1, 255, 256, 257, 6000])
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


@pytest.mark.parametrize("bad_row", [3, 300, 599], ids=["caller", "caller-2nd-block", "worker"])
def test_non_finite_row_in_any_block_raises(worker, bad_row):
    rng = np.random.default_rng(6)
    W = random_weights(rng, 7, 5, 15.0)
    Y = random_observations(rng, 600, 5, 15.0)
    Y[bad_row, 2] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        integrate(W, Y)
    assert worker.submitted == 1


@pytest.mark.parametrize("C, c_prime", [(15, 4), (15, 15), (400, 15), (400, 400), (401, 15),
                                        (401, 401)])
def test_class_scores_do_not_depend_on_batch_size(C, c_prime):
    # Alone, rows 256-299 form a short last block, which is padded to a full
    # one; inside the batch they sit in a full block.  On this BLAS a 44-row
    # GEMM rounds differently from a 256-row one at C=15 and 401 (at C=400
    # only below 3 rows), and a 6000-row product differently again, so only
    # fixed, padded blocks give equal activations and scores.
    rng = np.random.default_rng(7)
    W = random_weights(rng, C, 784, 900.0)
    R = TopWeights(rng.dirichlet(np.ones(C), size=10))
    Y = random_observations(rng, 6000, 784, 900.0)
    assert integrate(W, Y[:300]).tobytes() == integrate(W, Y)[:300].tobytes()
    alone = _class_scores(Y[:300], W, R, c_prime)
    inside = _class_scores(Y, W, R, c_prime)[:300]
    assert alone.tobytes() == inside.tobytes()
