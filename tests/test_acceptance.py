"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 7 and 8 train on the real MNIST corpus (~minutes per run) and are
marked ``full``; run them with ``pytest -m full`` (or plain ``pytest``, which
includes them when the data is present).  Everything else completes in
seconds.  Run with ``-s`` (or read the captured-output sections) to see the
per-criterion lines.
"""

import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from truncmix.classifier import bvsb
from truncmix.core import ModelConfig, TopWeights
from truncmix.data import Dataset, generate_mixture, preprocess
from truncmix.inference import integrate, select_truncation, truncated_posterior
from truncmix.learning import (free_energy, init_from_data, init_weights, online_epoch, run_tv_em,
                               update_bottom, update_top)

from conftest import (lgamma_sums, log_joint, random_observations, random_weights,
                      worst_relative_decrease)
from test_learning import mp_dense_posterior, mp_free_energy

mp.mp.dps = 50


def check(criterion: int, ok: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. Flagship: free-energy monotonicity of batch EM
# ---------------------------------------------------------------------------

def test_criterion_01_monotonicity():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        raw, _ = generate_mixture(8, 16, 500, seed=seed)
        ds = preprocess(raw, 128.0, K=8)
        for cp in (1, 3, 8):
            W0 = init_from_data(ds.Y, 8, 128.0, np.random.default_rng(seed))
            _, trace = run_tv_em(ds.Y, W0, cp, 50, ds.lgamma_sums)
            worst = max(worst, worst_relative_decrease(trace))
    took = time.perf_counter() - t0
    check(1, worst <= 1e-8 and took < 10.0,
          f"worst relative decrease {worst:.2e} over 10 seeds x C'={{1,3,8}} x 50 iters "
          f"({took:.1f}s)")


# ---------------------------------------------------------------------------
# 2. Truncation disabled == exact dense EM
# ---------------------------------------------------------------------------

def test_criterion_02_truncation_disabled_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    C, D, N = 16, 8, 100
    W = random_weights(rng, C, D, 16.0)
    Y = random_observations(rng, N, D, 16.0)
    I = integrate(W, Y)
    max_abs = 0.0
    for n in range(N):
        ours = truncated_posterior(I[n], np.arange(C))
        exact = mp_dense_posterior(W.W, Y[n], C)
        max_abs = max(max_abs, float(np.max(np.abs(ours - exact))))
    full_sets = np.tile(np.arange(C), (N, 1))
    f = free_energy(Y, W, full_sets, lgamma_sums(Y))
    ll_oracle = mp_free_energy(Y, W.W, full_sets, C)
    f_diff = abs(f - ll_oracle)
    took = time.perf_counter() - t0
    check(2, max_abs <= 1e-12 and f_diff <= 1e-10 and took < 5.0,
          f"posterior max-abs vs exact {max_abs:.2e}, free energy vs brute-force "
          f"log-likelihood {f_diff:.2e} ({took:.1f}s)")


# ---------------------------------------------------------------------------
# 3. Activation ranking == joint ranking
# ---------------------------------------------------------------------------

def test_criterion_03_criterion_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    all_equal = True
    for i in range(200):
        C = int(rng.integers(2, 33))
        D = int(rng.integers(2, 9))
        A = 2.0 * D
        W = random_weights(rng, C, D, A)
        if i % 10 == 0 and C >= 4:
            W.W[1] = W.W[0]  # exact duplicate rows force ties on both sides
            W.W[3] = W.W[2]
        y = random_observations(rng, 1, D, A)[0]
        I = integrate(W, y)
        lj = np.array([log_joint(W.W[c], y, C) for c in range(C)])
        a = np.argsort(-I, kind="stable")
        b = np.argsort(-lj, kind="stable")
        all_equal = all_equal and np.array_equal(a, b)
    took = time.perf_counter() - t0
    check(3, all_equal and took < 2.0,
          f"descending argsort identical on 200 random instances incl. ties ({took:.1f}s)")


# ---------------------------------------------------------------------------
# 4. Partial selection matches the full-sort oracle
# ---------------------------------------------------------------------------

def test_criterion_04_selection_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    ok = True
    for i in range(1000):
        I = rng.standard_normal(256)
        if i % 3 == 0:
            I = np.round(I * 4.0) / 4.0  # quantize to create duplicate values
        oracle = np.sort(np.argsort(-I, kind="stable")[:15])
        ok = ok and np.array_equal(select_truncation(I, 15), oracle)
    took = time.perf_counter() - t0
    check(4, ok and took < 1.0,
          f"1000 random C=256 vectors (incl. duplicated values), C'=15 ({took:.2f}s)")


# ---------------------------------------------------------------------------
# 5. Conservation under random online updates
# ---------------------------------------------------------------------------

def test_criterion_05_conservation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    C, D, K, A = 32, 24, 6, 64.0
    W = random_weights(rng, C, D, A)
    R = TopWeights(rng.dirichlet(np.ones(C), size=K))
    for _ in range(10_000):
        size = int(rng.integers(1, C + 1))
        sup = np.sort(rng.choice(C, size=size, replace=False))
        probs = rng.dirichlet(np.ones(size))
        y = random_observations(rng, 1, D, A)[0]
        t = rng.dirichlet(np.ones(K))
        eps = float(rng.uniform(1e-4, 1.0))
        update_bottom(W, np.log(W.W), sup, probs, y, eps)
        update_top(R, t, sup, probs, eps)
    w_dev = float(np.max(np.abs(W.W.sum(axis=1) - A))) / A
    r_dev = float(np.max(np.abs(R.R.sum(axis=1) - 1.0)))
    positive = bool(np.all(W.W > 0.0))
    took = time.perf_counter() - t0
    check(5, w_dev <= 1e-6 and r_dev <= 1e-9 and positive and took < 5.0,
          f"after 10000 updates: W row-sum rel dev {w_dev:.2e}, R row-sum dev "
          f"{r_dev:.2e}, all W > 0: {positive} ({took:.1f}s)")


# ---------------------------------------------------------------------------
# 6. Parameter recovery by truncated batch EM
# ---------------------------------------------------------------------------

def test_criterion_06_parameter_recovery():
    t0 = time.perf_counter()
    A, D, C = 128.0, 16, 8
    passes, rels = 0, []
    for seed in range(10):
        raw, true_W = generate_mixture(C, D, 2000, seed=seed)
        ds = preprocess(raw, A, K=C)
        W0 = init_from_data(ds.Y, C, A, np.random.default_rng(seed))
        W, _ = run_tv_em(ds.Y, W0, 3, 50, ds.lgamma_sums)
        # The fit sees mass-normalized data, so map the generating rows
        # through the same normalization before comparing.
        mapped = (A - D) * true_W / true_W.sum(axis=1, keepdims=True) + 1.0
        cost = np.abs(W.W[:, None, :] - mapped[None, :, :]).sum(axis=2)
        r, c = linear_sum_assignment(cost)
        rel = cost[r, c].sum() / np.abs(mapped).sum()
        rels.append(rel)
        passes += rel <= 0.05
    took = time.perf_counter() - t0
    check(6, passes >= 8 and took < 30.0,
          f"{passes}/10 seeds within 5% matched relative L1 "
          f"(median {np.median(rels):.3f}) ({took:.1f}s)")


# ---------------------------------------------------------------------------
# 7 & 8. Scaled MNIST runs (full tier)
# ---------------------------------------------------------------------------

MNIST_SEEDS = (0, 1, 2)


def _mnist_config(c_prime: int, seed: int) -> dict:
    n, c, k = 60000, 400, 10
    return {
        "K": k, "C": c, "C_prime": c_prime, "A": 900.0, "D": 784,
        "eps_W": 0.2 * c / n, "eps_R": 0.2 * k / n,
        "theta_bvsb": 0.6, "epochs": 50, "seed": seed,
    }


def _run_mnist_job(cache: Path, mnist: Path, c_prime: int, seed: int) -> dict:
    out = cache / f"cp{c_prime}_seed{seed}"
    report_path = out / "report.json"
    if not report_path.exists():
        cfg_path = cache / f"cfg_cp{c_prime}_seed{seed}.json"
        cfg_path.write_text(json.dumps(_mnist_config(c_prime, seed)))
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        cmd = [
            sys.executable, "-m", "truncmix.cli", "train",
            "--config", str(cfg_path),
            "--images", str(mnist / "train-images-idx3-ubyte"),
            "--labels", str(mnist / "train-labels-idx1-ubyte"),
            "--test-images", str(mnist / "t10k-images-idx3-ubyte"),
            "--test-labels", str(mnist / "t10k-labels-idx1-ubyte"),
            "--labels-per-class", "10", "--seed", str(seed),
            "--trace-every", "10", "--out", str(out),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, f"run cp={c_prime} seed={seed} failed:\n{proc.stderr[-2000:]}"
    return json.loads(report_path.read_text())


@pytest.fixture(scope="module")
def mnist_runs(mnist_path, tmp_path_factory):
    """Six scaled runs (3 seeds x truncated/full), two at a time."""
    cache = Path(os.environ.get("TRUNCMIX_RUN_CACHE") or tmp_path_factory.mktemp("mnist"))
    cache.mkdir(parents=True, exist_ok=True)
    jobs = [(cp, seed) for seed in MNIST_SEEDS for cp in (15, 400)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {
            (cp, seed): pool.submit(_run_mnist_job, cache, mnist_path, cp, seed)
            for cp, seed in jobs
        }
        return {key: fut.result() for key, fut in futures.items()}


@pytest.mark.full
def test_criterion_07_scaled_mnist_error(mnist_runs):
    errors = {seed: mnist_runs[(15, seed)]["final_error"] for seed in MNIST_SEEDS}
    passes = sum(e <= 0.12 for e in errors.values())
    check(7, passes >= 2,
          f"C=400, C'=15, 100 labels, 50 epochs: final errors "
          f"{ {s: round(e, 4) for s, e in errors.items()} } -> {passes}/3 seeds <= 12%")


@pytest.mark.full
def test_criterion_08_truncation_benefit_trend(mnist_runs):
    error_ok = True
    f_wins = 0
    details = []
    for seed in MNIST_SEEDS:
        trunc, full = mnist_runs[(15, seed)], mnist_runs[(400, seed)]
        assert trunc["init_hash"] == full["init_hash"], "pair must share the init"
        e15, e400 = trunc["final_error"], full["final_error"]
        f15, f400 = trunc["free_energy"][-1][1], full["free_energy"][-1][1]
        error_ok = error_ok and (e15 <= e400 + 0.01)
        f_wins += f15 >= f400
        details.append(f"seed {seed}: err {e15:.4f} vs {e400:.4f}, F {f15:.5g} vs {f400:.5g}")
    # The free-energy direction is reported; the error direction is asserted.
    print(f"criterion 8 free-energy trend: truncated >= full on {f_wins}/3 seeds")
    check(8, error_ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 9. Complexity: update-phase cost and exact write counts
# ---------------------------------------------------------------------------

def test_criterion_09_complexity():
    rng = np.random.default_rng(4)
    raw, _ = generate_mixture(10, 784, 2000, seed=5)
    ds = preprocess(raw, 900.0, K=10)
    times = {}
    for cp in (15, 400):
        cfg = ModelConfig(K=10, C=400, C_prime=cp, A=900.0, D=784,
                             eps_W=0.001, eps_R=0.001, theta_bvsb=0.6,
                             epochs=1, seed=0)
        W, R = init_weights(cfg, ds.Y, np.random.default_rng(0))
        gates, phases = online_epoch(ds, W, R, cfg, np.random.default_rng(0))
        times[cp] = phases["update_bottom"] + phases["update_top"]
        assert gates["bottom_writes"] == ds.N * cp * 784

    # Independent write-count instrumentation: the entries an update may
    # touch are exactly support x D, verified against a boolean footprint.
    W = random_weights(rng, 40, 30, 60.0)
    exact = True
    for _ in range(200):
        size = int(rng.integers(1, 41))
        sup = np.sort(rng.choice(40, size=size, replace=False))
        probs = rng.dirichlet(np.ones(size))
        before = W.W.copy()
        footprint = np.zeros(W.W.shape, dtype=bool)
        footprint[sup] = True
        update_bottom(W, np.log(W.W), sup, probs,
                         random_observations(rng, 1, 30, 60.0)[0], 0.5)
        exact = exact and int(footprint.sum()) == size * 30
        exact = exact and np.array_equal(W.W[~footprint], before[~footprint])
    ratio = times[15] / times[400]
    check(9, times[15] <= times[400] / 5.0 and exact,
          f"update-phase time C'=15 is {ratio:.3f} of C'=400 (<= 0.2 required); "
          f"write footprint == C'*D on 200 random updates: {exact}")


# ---------------------------------------------------------------------------
# 10. Self-labeling gate behavior
# ---------------------------------------------------------------------------

def test_criterion_10_gate_behavior():
    rng = np.random.default_rng(6)
    one_hot = np.zeros(10)
    one_hot[3] = 1.0
    uniform = np.full(10, 0.1)
    gate_ok = all(bvsb(one_hot) > theta for theta in (0.0, 0.5, 0.99)) and all(
        not (bvsb(uniform) > theta) for theta in (0.01, 0.5, 1.0)
    )

    # Labeled points always update the top layer, even at threshold 1.
    raw, _ = generate_mixture(4, 8, 120, seed=7)
    ds = preprocess(raw, 32.0, K=4)
    cfg = ModelConfig(K=4, C=6, C_prime=2, A=32.0, D=8, eps_W=0.01, eps_R=0.01,
                         theta_bvsb=1.0, epochs=1, seed=0)
    W, R = init_weights(cfg, ds.Y, np.random.default_rng(0))
    before = R.R.copy()
    gates, _ = online_epoch(ds, W, R, cfg, np.random.default_rng(0))
    labeled_ok = gates["labeled_updates"] == ds.N and not np.array_equal(R.R, before)

    unlabeled = Dataset(ds.Y, np.full(ds.N, -1, dtype=np.int64), 4, 32.0)
    W2, R2 = init_weights(cfg, ds.Y, np.random.default_rng(0))
    gates2, _ = online_epoch(unlabeled, W2, R2, cfg, np.random.default_rng(0))
    blocked_ok = gates2["unlabeled_passed"] == 0 and np.all(R2.R == 1.0 / 6)

    check(10, gate_ok and labeled_ok and blocked_ok,
          f"one-hot passes any theta<1, uniform never passes theta>0, labeled "
          f"updates applied at theta=1 ({gates['labeled_updates']}/{ds.N})")
