"""The benchmark's tracer wraps truncmix names by attribute; every one must exist.

A rename or deletion in ``src/`` that the benchmark depends on fails here,
in the fast tier, rather than at benchmark time.  The batch TV-EM rep and a
traced online rep also run end to end on tiny draws, so a signature change
that breaks one of their call sites, or an online loop that stops calling a
counted name, fails here too.  Only reads ``perfbench/``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from truncmix.data import RawDataset, generate_mixture, preprocess
from truncmix.learning import init_from_data

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import gen  # noqa: E402
import selftest  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "owner,attr", [(t[0], t[1]) for t in workloads.TRACED],
    ids=[f"{t[0].__name__}.{t[1]}" for t in workloads.TRACED],
)
def test_traced_name_resolves(owner, attr):
    assert callable(getattr(owner, attr, None))


def test_span_selftest():
    selftest.check()


def test_tvem_rep_runs_on_tiny_draw():
    raw, _ = generate_mixture(10, 16, 900, seed=3)
    train, test = (
        preprocess(RawDataset(raw.X[rows], raw.labels[rows]), 900.0, 10)
        for rows in (slice(0, 600), slice(600, None))
    )
    W0 = init_from_data(train.Y, workloads.C, 900.0, np.random.default_rng(0))
    gate = workloads.Gate()
    rep = workloads.tvem_rep(workloads.WORKLOADS["tvem"], train, test, W0,
                             workloads.BOUNDARY, gate)
    assert rep["ok"], gate.reasons
    assert gate.failed == 0, gate.reasons


def test_traced_online_rep_reconciles_on_tiny_draw(tmp_path, monkeypatch):
    for module in (gen, workloads):
        monkeypatch.setattr(module, "N_TRAIN", 600)
        monkeypatch.setattr(module, "N_TEST", 200)
    inputs = tmp_path / "inputs"
    gen.make_inputs(3, inputs)
    wl = workloads.Workload(c_prime=15, epochs=1, labels_per_class=10)
    gate = workloads.Gate()
    rep = workloads.online_rep(wl, 0, inputs, tmp_path / "run", workloads.TRACED, gate)
    assert rep["ok"], gate.reasons
    workloads.reconcile(wl, rep, gate)
    assert gate.failed == 0, gate.reasons
