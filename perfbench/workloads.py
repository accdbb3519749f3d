"""The four benchmark workloads, their correctness gate, and their metrics.

Every workload shares one generated draw (see gen.py) with K=10, C=400,
D=784, A=900, theta=0.6 and the paper-protocol rates eps_W = 0.2*C/N and
eps_R = 0.2*K/N.  A *rep* is one complete execution of the workload:

* online workloads run ``truncmix train`` in-process (``cli.main``) with a
  free-energy trace pass and an evaluation after every epoch;
* ``tvem`` runs ``run_tv_em`` from a farthest-point init (made once, as part
  of set-up), then one trace pass and one evaluation of the result.

End-to-end metrics come from reps with only boundary timers: spans around
the few coarse calls a rep makes (train, save, epoch, evaluation, trace
pass, EM run).  A traced rep also wraps the per-sample functions of every
module; its spans give the per-layer metrics.
"""

import contextlib
import hashlib
import io
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from truncmix import cli, core, data, harness, inference, learning

from gen import N_TEST, N_TRAIN
from spans import Tracer

K, C, D, A = 10, 400, 784, 900.0
THETA = 0.6
LABELS_PER_CLASS = 10
SETUP_REPEATS = 9


@dataclass(frozen=True)
class Workload:
    c_prime: int
    epochs: int = 0              # online epochs per rep; 0 selects batch TV-EM
    labels_per_class: int | None = None
    em_iterations: int = 0

    @property
    def online(self) -> bool:
        return self.epochs > 0


WORKLOADS = {
    "semi-c15": Workload(c_prime=15, epochs=2, labels_per_class=LABELS_PER_CLASS),
    "semi-c400": Workload(c_prime=C, epochs=1, labels_per_class=LABELS_PER_CLASS),
    "sup-c15": Workload(c_prime=15, epochs=2),
    "tvem": Workload(c_prime=15, em_iterations=8),
}


def _flop(W, y):
    rows = W.C if isinstance(W, core.BottomWeights) else np.shape(W)[0]
    return 2.0 * np.size(y) * rows


# (owner, attribute, span name[, work]): the few coarse calls of a rep.
BOUNDARY = [
    (cli, "train", "harness.train"),
    (cli, "save_run", "harness.save_run"),
    (harness, "online_epoch", "learning.online_epoch"),
    (harness, "evaluate", "harness.evaluate"),
    (harness, "batch_e_step", "learning.batch_e_step"),
    (harness, "free_energy", "learning.free_energy"),
]

# Added in a traced rep: every name is wrapped in each module that looks it up.
TRACED = BOUNDARY + [
    (cli, "load_idx", "data.load_idx"),
    (cli, "preprocess", "data.preprocess"),
    (cli, "subsample_labels", "data.subsample_labels"),
    (data, "load_idx", "data.load_idx"),
    (data, "preprocess", "data.preprocess"),
    (harness, "predict_batch", "harness.predict_batch"),
    (harness, "integrate", "inference.integrate", _flop),
    (harness, "select_truncation", "inference.select_truncation"),
    (inference, "integrate", "inference.integrate", _flop),
    (learning, "integrate", "inference.integrate", _flop),
    (learning, "select_truncation", "inference.select_truncation"),
    (learning, "truncated_posterior", "inference.truncated_posterior"),
    (learning, "class_activation", "classifier.class_activation"),
    (learning, "bvsb", "classifier.bvsb"),
    (learning, "update_bottom", "learning.update_bottom"),
    (learning, "update_top", "learning.update_top"),
    (learning, "batch_e_step", "learning.batch_e_step"),
    (learning, "free_energy", "learning.free_energy"),
    (learning, "batch_m_step", "learning.batch_m_step"),
    (learning, "tv_em_iteration", "learning.tv_em_iteration"),
    (learning, "run_tv_em", "learning.run_tv_em"),
    (learning, "init_from_data", "learning.init_from_data"),
    (core.BottomWeights, "validate", "core.BottomWeights.validate"),
]


def make_tracer(targets) -> Tracer:
    tracer = Tracer()
    for owner, attr, name, *work in targets:
        tracer.wrap(owner, attr, name, *work)
    return tracer


class Gate:
    """Counts attempted and failed operations and checks; keeps the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def ops(self, attempted: int, failed: int, what: str):
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.reasons.append(f"{failed} failed: {what}")

    def check(self, ok: bool, what: str):
        self.ops(1, 0 if ok else 1, what)


def config_doc(wl: Workload, seed: int) -> dict:
    return {
        "K": K, "C": C, "C_prime": wl.c_prime, "A": A, "D": D,
        "eps_W": 0.2 * C / N_TRAIN, "eps_R": 0.2 * K / N_TRAIN,
        "theta_bvsb": THETA, "epochs": wl.epochs, "seed": seed,
    }


def setup_once(wl: Workload, inputs: Path, seed: int):
    """Raw IDX to the first training step: load, normalize, subsample."""
    t0 = time.perf_counter()
    train = data.preprocess(data.load_idx(inputs / "train-images", inputs / "train-labels"), A, K)
    test = data.preprocess(data.load_idx(inputs / "test-images", inputs / "test-labels"), A, K)
    if wl.labels_per_class is not None:
        train = data.subsample_labels(train, wl.labels_per_class, seed)
    return time.perf_counter() - t0, train, test


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def online_rep(wl: Workload, seed: int, inputs: Path, out: Path, targets, gate: Gate) -> dict:
    """One in-process ``truncmix train``; returns timings, counters and spans."""
    cfg_path = out.parent / f"{out.name}-config.json"
    cfg_path.write_text(json.dumps(config_doc(wl, seed)))
    argv = [
        "train", "--config", str(cfg_path),
        "--images", str(inputs / "train-images"), "--labels", str(inputs / "train-labels"),
        "--test-images", str(inputs / "test-images"), "--test-labels", str(inputs / "test-labels"),
        "--seed", str(seed), "--trace-every", "1", "--out", str(out),
    ]
    if wl.labels_per_class is not None:
        argv += ["--labels-per-class", str(wl.labels_per_class)]
    log = io.StringIO()
    with make_tracer(targets) as tracer:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            rc = cli.main(argv)
        wall = time.perf_counter() - t0

    op_names = ("learning.online_epoch", "harness.evaluate", "learning.batch_e_step")
    op_failures = sum(tracer.failures[n] for n in op_names)
    gate.ops(sum(len(tracer.durations(n)) for n in op_names), op_failures, "online operations")
    gate.check(rc == 0, f"truncmix train exited {rc}: {log.getvalue().strip()[-400:]}")
    if rc != 0:
        return {"ok": False}

    report = json.loads((out / "report.json").read_text())
    per_epoch = json.loads((out / "timings.json").read_text())["per_epoch"]
    try:
        W, R, _ = harness.load_weights(out)
        W.validate()
        R.validate()
        bad = None
    except core.ConfigError as e:
        bad = str(e)
    gate.check(bad is None, f"trained weights invalid: {bad}")
    fe = [v for _, v in report["free_energy"]]
    final_f = fe[-1] if fe else float("nan")
    gate.check(np.isfinite(report["final_error"]) and np.isfinite(final_f),
               f"non-finite result: error {report['final_error']}, F {final_f}")

    passes = list(zip(tracer.durations("learning.batch_e_step"),
                      tracer.durations("learning.free_energy")))
    gate.check(len(passes) == wl.epochs + 1,
               f"{len(passes)} trace passes, expected {wl.epochs + 1}")
    return {
        "ok": True,
        "wall": wall,
        "digest": _sha256_file(out / "report.json"),
        "train_s": sum(tracer.durations("harness.train") + tracer.durations("harness.save_run")),
        "epoch_rates": [N_TRAIN / d for d in tracer.durations("learning.online_epoch")],
        "eval_rates": [N_TEST / d for d in tracer.durations("harness.evaluate")],
        "trace_rates": [N_TRAIN / (a + b) for a, b in passes],
        "gain": (fe[-1] - fe[0]) / N_TRAIN,
        "test_error": report["final_error"],
        "gate_stats": report["gate_stats"],
        "phase_s": sum(sum(t.values()) for t in per_epoch),
        "epoch_s": sum(tracer.durations("learning.online_epoch")),
        "save_bytes": sum(p.stat().st_size for p in out.iterdir()),
        "tracer": tracer,
    }


def support_vote_top(sets: np.ndarray, labels: np.ndarray) -> core.TopWeights:
    """Top layer for a TV-EM model: R_kc is the share of class k's training
    points whose truncation set holds cluster c."""
    counts = np.zeros((K, C))
    np.add.at(counts, (np.repeat(labels, sets.shape[1]), sets.ravel()), 1.0)
    return core.TopWeights(counts / counts.sum(axis=1, keepdims=True))


def tvem_rep(wl: Workload, train, test, W0, targets, gate: Gate) -> dict:
    """``run_tv_em`` from W0, then a trace pass and an evaluation."""
    with make_tracer(targets) as tracer:
        t0 = time.perf_counter()
        try:
            W, trace = learning.run_tv_em(train.Y, W0, wl.c_prime, wl.em_iterations,
                                          lgamma_sums=train.lgamma_sums, check_monotone=True)
        except (core.MonotonicityError, core.ConfigError) as e:
            gate.ops(wl.em_iterations, 1, f"run_tv_em: {e}")
            return {"ok": False}
        t1 = time.perf_counter()
        sets = learning.batch_e_step(train.Y, W, wl.c_prime)
        F = learning.free_energy(train.Y, W, sets, train.lgamma_sums)
        t2 = time.perf_counter()
        R = support_vote_top(sets, train.labels)
        t3 = time.perf_counter()
        err = harness.evaluate(test, W, R, wl.c_prime)
        t4 = time.perf_counter()
    gate.ops(wl.em_iterations + 2, 0, "tvem operations")
    gate.check(np.isfinite(err) and np.isfinite(F), f"non-finite result: error {err}, F {F}")
    doc = {
        "free_energy": trace.entries,
        "trace_pass_free_energy": F,
        "test_error": err,
        "dead_clusters": int(C - np.unique(sets).size),
    }
    h = hashlib.sha256(json.dumps(doc).encode())
    h.update(W.W.tobytes())
    return {
        "ok": True,
        "wall": (t2 - t0) + (t4 - t3),
        "digest": h.hexdigest(),
        "train_s": t1 - t0,
        "epoch_rates": [N_TRAIN * wl.em_iterations / (t1 - t0)],
        "eval_rates": [N_TEST / (t4 - t3)],
        "trace_rates": [N_TRAIN / (t2 - t1)],
        "gain": (F - trace.entries[0][1]) / N_TRAIN,
        "test_error": err,
        "dead_clusters": doc["dead_clusters"],
        "tracer": tracer,
    }


def end_to_end(setup_s: list, reps: list, peak_rss_mb: float) -> dict:
    """Medians over every boundary-timed sample of the run's untraced reps."""
    def pool(key):
        return [v for r in reps for v in r[key]]

    return {
        "setup_s": statistics.median(setup_s),
        "train_s": statistics.median(r["train_s"] for r in reps),
        "train_samples_per_s": statistics.median(pool("epoch_rates")),
        "eval_samples_per_s": statistics.median(pool("eval_rates")),
        "trace_samples_per_s": statistics.median(pool("trace_rates")),
        "free_energy_gain_per_sample": reps[0]["gain"],
        "peak_rss_mb": peak_rss_mb,
    }


def reconcile(wl: Workload, rep: dict, gate: Gate):
    """Span counts of a traced rep against the program's own counters."""
    calls = rep["tracer"].site_calls
    if wl.online:
        gs = rep["gate_stats"]
        samples = N_TRAIN * wl.epochs
        passes = calls["truncmix.harness.batch_e_step"]
        expect = {
            "truncmix.harness.online_epoch": wl.epochs,
            "truncmix.learning.update_bottom": samples,
            "truncmix.learning.truncated_posterior": samples,
            "truncmix.learning.class_activation": samples,
            "truncmix.learning.select_truncation": samples + passes,
            "truncmix.learning.update_top":
                sum(g["labeled_updates"] + g["unlabeled_passed"] for g in gs),
            "truncmix.learning.bvsb":
                sum(g["unlabeled_passed"] + g["unlabeled_skipped"] for g in gs),
        }
    else:
        expect = {
            "truncmix.learning.tv_em_iteration": wl.em_iterations,
            "truncmix.learning.batch_m_step": wl.em_iterations,
        }
    for site, want in expect.items():
        gate.check(calls[site] == want, f"{site} called {calls[site]} times, counters imply {want}")


def per_layer(wl: Workload, traced: dict, untraced: dict, setup_spans: dict) -> dict:
    """Per-layer metrics of one traced rep (plus set-up spans and the
    untraced rep it is compared with).  Layers a workload does not exercise
    read 0."""
    s = {**setup_spans, **traced["tracer"].summary()}

    def get(name, key):
        return s.get(name, {}).get(key, 0.0)

    m = {}
    for name in ("data.load_idx", "data.preprocess", "data.subsample_labels",
                 "learning.init_from_data", "harness.save_run", "harness.evaluate"):
        m[f"{name}.s"] = get(name, "s")
    for name in ("inference.select_truncation", "inference.truncated_posterior",
                 "learning.update_bottom"):
        for key in ("calls", "self_s", "p50_us", "p99_us"):
            m[f"{name}.{key}"] = get(name, key)
    for name in ("classifier.class_activation", "learning.update_top"):
        for key in ("calls", "self_s", "p50_us"):
            m[f"{name}.{key}"] = get(name, key)
    for name in ("classifier.bvsb", "inference.integrate", "core.BottomWeights.validate"):
        m[f"{name}.calls"] = get(name, "calls")
    for name in ("classifier.bvsb", "inference.integrate", "learning.online_epoch",
                 "learning.tv_em_iteration", "learning.batch_m_step", "learning.free_energy",
                 "learning.batch_e_step", "harness.train", "harness.predict_batch"):
        m[f"{name}.self_s"] = get(name, "self_s")
    m["core.BottomWeights.validate.s"] = get("core.BottomWeights.validate", "s")

    gflop = get("inference.integrate", "work") / 1e9
    m["inference.integrate.gflop"] = gflop
    m["inference.integrate.gflops"] = gflop / m["inference.integrate.self_s"] if gflop else 0.0

    gs = traced.get("gate_stats", [])
    passed = sum(g["unlabeled_passed"] for g in gs)
    base = passed + sum(g["unlabeled_skipped"] for g in gs)
    m["classifier.gate.pass_ratio"] = passed / base if base else 0.0
    m["classifier.gate.base"] = base
    m["learning.update_bottom.mbytes"] = 8.0 * sum(g["bottom_writes"] for g in gs) / 1e6
    m["learning.online_epoch.matvec_gflop"] = 2.0 * C * D * N_TRAIN * wl.epochs / 1e9
    m["learning.online_epoch.untimed_ratio"] = (
        1.0 - untraced["phase_s"] / untraced["epoch_s"] if wl.online else 0.0
    )
    m["learning.tvem.dead_clusters"] = traced.get("dead_clusters", 0)
    m["harness.save_run.bytes"] = traced.get("save_bytes", 0)
    m["harness.test_error"] = traced["test_error"]
    m["trace.overhead_ratio"] = traced["wall"] / untraced["wall"]
    return m
