"""Experiment orchestration: training runs, evaluation, comparisons, export.

Everything here is deterministic given (data files, config, seed): reports
serialize to byte-identical JSON and CSV across identical invocations.
Wall-clock phase timings are inherently nondeterministic, so they are kept
out of the report document and written separately.
"""

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classifier import normalized_columns
from .core import (BottomWeights, ConfigError, DataError, ModelConfig, TopWeights,
                   init_weights, validate_config)
from .data import Dataset, UNLABELED
from .inference import integrate, select_truncation, truncated_posterior
from .learning import EpochStats, FreeEnergyTrace, batch_e_step, free_energy, online_epoch

_CHUNK = 16384


@dataclass
class RunReport:
    """Everything a single training run produced, ready to serialize."""

    config: ModelConfig
    seed: int
    n_labeled: int
    init_hash: str              # sha256 over the initial W and R bytes
    test_errors: list           # index = epoch; entry 0 is the untrained error
    trace: FreeEnergyTrace      # (epoch, free energy) on the training set
    gate_stats: list            # per-epoch gate/write counters
    timings: list               # per-epoch phase seconds (not in report JSON)
    final_error: float

    def to_dict(self) -> dict:
        return {
            "config": json.loads(self.config.to_json()),
            "seed": self.seed,
            "n_labeled": self.n_labeled,
            "init_hash": self.init_hash,
            "test_errors": list(self.test_errors),
            "free_energy": [[it, v] for it, v in self.trace.entries],
            "gate_stats": list(self.gate_stats),
            "final_error": self.final_error,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def weights_hash(W: BottomWeights, R: TopWeights) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(W.W).tobytes())
    h.update(np.ascontiguousarray(R.R).tobytes())
    return h.hexdigest()


def predict_batch(Y, W: BottomWeights, R: TopWeights, c_prime: int) -> np.ndarray:
    """Vectorized truncated-path predictions for a batch of observations."""
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    mix = normalized_columns(R)  # (K, C)
    out = np.empty(Y.shape[0], dtype=np.int64)
    for lo in range(0, Y.shape[0], _CHUNK):
        hi = min(Y.shape[0], lo + _CHUNK)
        I = integrate(W, Y[lo:hi])
        sets = select_truncation(I, c_prime)
        S = np.zeros_like(I)
        np.put_along_axis(S, sets, truncated_posterior(I, sets), axis=1)
        out[lo:hi] = np.argmax(S @ mix.T, axis=1)
    return out


def evaluate(test_ds: Dataset, W: BottomWeights, R: TopWeights, c_prime: int) -> float:
    """Fraction of test points whose predicted class differs from the label."""
    if np.any(test_ds.labels == UNLABELED):
        raise DataError("test set must be fully labeled")
    if test_ds.D != W.D:
        raise DataError(f"weights have D={W.D} but test data has D={test_ds.D}")
    preds = predict_batch(test_ds.Y, W, R, c_prime)
    return float(np.mean(preds != test_ds.labels))


def train(
    train_ds: Dataset,
    test_ds: Dataset,
    cfg: ModelConfig,
    trace_every: int = 1,
    verbose: bool = False,
) -> tuple[RunReport, BottomWeights, TopWeights]:
    """Run ``cfg.epochs`` online epochs, evaluating after each one.

    The free-energy trace is a diagnostic: once every ``trace_every`` epochs
    (plus epoch 0 and the final epoch) a fresh batch E-step over the whole
    training set scores the current bottom weights.  Pass ``trace_every=0``
    to disable tracing.  Returns the report plus the trained weights.
    ``verbose`` prints per-epoch progress to stderr; output files are
    unaffected.
    """
    validate_config(cfg)
    if trace_every < 0:
        raise ConfigError(f"trace_every must be >= 0, got {trace_every}")
    if train_ds.D != cfg.D or test_ds.D != cfg.D:
        raise ConfigError(f"config D={cfg.D} but data has D={train_ds.D}")
    if train_ds.A != cfg.A:
        raise ConfigError(f"config A={cfg.A} but data was normalized to A={train_ds.A}")
    if cfg.C > train_ds.N:
        raise ConfigError("need at least one training observation per cluster")
    rng = np.random.default_rng(cfg.seed)
    W, R = init_weights(cfg, train_ds.Y, rng)
    init_hash = weights_hash(W, R)

    trace = FreeEnergyTrace()
    lgam = train_ds.lgamma_sums

    def record_trace(epoch: int):
        if trace_every == 0:
            return
        if epoch % trace_every == 0 or epoch == cfg.epochs:
            sets = batch_e_step(train_ds.Y, W, cfg.C_prime)
            trace.append(epoch, free_energy(train_ds.Y, W, sets, lgam))

    test_errors = [evaluate(test_ds, W, R, cfg.C_prime)]
    record_trace(0)
    gate_stats, timings = [], []
    for epoch in range(1, cfg.epochs + 1):
        stats: EpochStats = online_epoch(train_ds, W, R, cfg, rng)
        try:
            W.validate()
            R.validate()
        except ConfigError as e:
            raise FloatingPointError(f"epoch {epoch}: {e}") from e
        gate_stats.append(stats.gate_counts())
        timings.append(stats.timings())
        test_errors.append(evaluate(test_ds, W, R, cfg.C_prime))
        record_trace(epoch)
        if verbose:
            took = sum(stats.timings().values())
            print(
                f"epoch {epoch}/{cfg.epochs}  test_error={test_errors[-1]:.4f}"
                f"  gated={stats.unlabeled_skipped}  [{took:.1f}s]",
                file=sys.stderr,
            )

    report = RunReport(
        config=cfg,
        seed=cfg.seed,
        n_labeled=train_ds.n_labeled,
        init_hash=init_hash,
        test_errors=test_errors,
        trace=trace,
        gate_stats=gate_stats,
        timings=timings,
        final_error=test_errors[-1],
    )
    return report, W, R


def compare_truncation(
    train_ds: Dataset,
    test_ds: Dataset,
    cfg: ModelConfig,
    c_prime_list,
    trace_every: int = 1,
) -> dict:
    """Train once per truncation size with identical seed and initial weights.

    Returns {c_prime: (report, W, R)}.  All runs share the same init by
    construction; this is asserted through the per-run init hashes.
    """
    values = [int(cp) for cp in c_prime_list]
    repeated = sorted({cp for cp in values if values.count(cp) > 1})
    if repeated:
        raise ConfigError(f"C' values listed more than once: {', '.join(map(str, repeated))}")
    outside = sorted({cp for cp in values if not 1 <= cp <= cfg.C})
    if outside:
        raise ConfigError(f"C' values out of range [1, {cfg.C}]: {', '.join(map(str, outside))}")
    results = {}
    for cp in values:
        run_cfg = cfg.replace(C_prime=cp)
        results[cp] = train(train_ds, test_ds, run_cfg, trace_every=trace_every)
    hashes = {r[0].init_hash for r in results.values()}
    if len(hashes) > 1:
        raise RuntimeError("comparison runs diverged at initialization")
    return results


def _scale_panel(values: np.ndarray) -> np.ndarray:
    span = values.max() - values.min()
    if span == 0.0:
        return np.full(values.shape, 127, dtype=np.uint8)
    scaled = np.rint((values - values.min()) / span * 255.0)
    return scaled.astype(np.uint8)


def export_weight_grid(
    W: BottomWeights, R: TopWeights, rows: int, cols: int, side: int, path
):
    """Write a PGM grid of bottom-weight panels with their class columns.

    Each tile shows one cluster's rate row as a ``side x side`` image, a
    one-pixel black separator, and a one-pixel-wide column whose top K pixels
    render that cluster's R column; all scaled to 0..255 per panel.  Tiles
    are laid out row-major with one-pixel black gaps.
    """
    if rows < 1 or cols < 1:
        raise ConfigError(f"grid must be at least 1x1, got {rows}x{cols}")
    if W.D != side * side:
        raise DataError(f"D={W.D} is not side*side for side={side}")
    n_panels = rows * cols
    if n_panels > W.C:
        raise DataError(f"grid capacity {n_panels} exceeds available clusters {W.C}")
    K = R.K
    if K > side:
        raise DataError(f"R column with K={K} does not fit panel height {side}")
    tile_w = side + 2
    width = cols * tile_w + (cols - 1)
    height = rows * side + (rows - 1)
    canvas = np.zeros((height, width), dtype=np.uint8)
    for p in range(n_panels):
        gr, gc = divmod(p, cols)
        top, left = gr * (side + 1), gc * (tile_w + 1)
        canvas[top : top + side, left : left + side] = _scale_panel(
            W.W[p].reshape(side, side)
        )
        canvas[top : top + K, left + side + 1] = _scale_panel(R.R[:, p])
    with open(path, "wb") as f:
        f.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        f.write(canvas.tobytes())


def aggregate(report_dicts) -> dict:
    """Mean and standard error of final test error over a set of run reports."""
    reports = list(report_dicts)
    if not reports:
        raise DataError("no reports to aggregate")
    errors = np.array([r["final_error"] for r in reports], dtype=np.float64)
    seeds = [r["seed"] for r in reports]
    sem = float(errors.std(ddof=1) / np.sqrt(errors.size)) if errors.size > 1 else None
    return {
        "n_runs": int(errors.size),
        "seeds": seeds,
        "final_errors": [float(e) for e in errors],
        "mean_final_error": float(errors.mean()),
        "sem_final_error": sem,
    }


def save_run(out_dir, report: RunReport, W: BottomWeights, R: TopWeights):
    """Write report.json, timings.json, CSV traces, and the weight arrays."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report.to_json())
    (out / "timings.json").write_text(
        json.dumps({"per_epoch": report.timings}, sort_keys=True, indent=2) + "\n"
    )
    for name, rows in (("free_energy", report.trace.entries),
                       ("test_error", enumerate(report.test_errors))):
        with open(out / f"{name}.csv", "w") as f:
            f.write(f"epoch,{name}\n")
            for epoch, v in rows:
                f.write(f"{epoch},{v!r}\n")
    np.save(out / "W.npy", W.W)
    np.save(out / "R.npy", R.R)
    (out / "config.json").write_text(report.config.to_json() + "\n")


def load_weights(weights_dir) -> tuple[BottomWeights, TopWeights, ModelConfig]:
    """Load the weight arrays and config snapshot written by ``save_run``."""
    d = Path(weights_dir)
    try:
        cfg = ModelConfig.from_json((d / "config.json").read_text())
        W = np.load(d / "W.npy")
        R = np.load(d / "R.npy")
    except FileNotFoundError as e:
        raise DataError(f"not a weights directory: {weights_dir} ({e})") from e
    for name, arr, want in (("W.npy", W, (cfg.C, cfg.D)), ("R.npy", R, (cfg.K, cfg.C))):
        if arr.shape != want:
            raise DataError(f"{d / name} has shape {arr.shape}, config.json implies {want}")
    return BottomWeights(W, cfg.A), TopWeights(R), cfg
