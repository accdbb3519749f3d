"""Experiment orchestration: training runs, evaluation, reports, export.

Everything here is deterministic given (data files, config, seed): reports
serialize to byte-identical JSON and CSV across identical invocations.
Wall-clock phase timings are inherently nondeterministic, so they are kept
out of the report document and written separately.
"""

import hashlib
import json
import math
import resource
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import BottomWeights, ConfigError, DataError, ModelConfig, TopWeights
from .data import Dataset, UNLABELED
from .inference import (
    _ROW_BLOCK, _block_matmul, _gather_support, _openblas, _row_blocks, integrate,
    normalized_columns, select_truncation, softmax_inplace,
)
from .learning import FreeEnergyTrace, batch_e_step, free_energy, init_weights, online_epoch

_CHUNK = 64 * _ROW_BLOCK  # rows per activation matrix of predict_batch: bounds its memory


@dataclass
class RunReport:
    """Everything a single training run produced, ready to serialize."""

    config: ModelConfig
    n_labeled: int
    init_hash: str              # sha256 over the initial W and R bytes
    test_errors: list           # index = epoch; entry 0 is the untrained error
    trace: FreeEnergyTrace      # (epoch, free energy) on the training set
    gate_stats: list            # per-epoch gate/write counters
    timings: list               # per-epoch phase seconds (not in report JSON)

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "seed": self.config.seed,
            "n_labeled": self.n_labeled,
            "init_hash": self.init_hash,
            "test_errors": list(self.test_errors),
            "free_energy": [[it, v] for it, v in self.trace.entries],
            "gate_stats": list(self.gate_stats),
            "final_error": self.test_errors[-1],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _class_scores(Y, W: BottomWeights, R: TopWeights, c_prime: int) -> np.ndarray:
    """Unnormalized class scores S @ mix.T of a batch, (N, K), where S holds
    each point's truncated posterior over all C clusters and mix the
    column-normalized R.

    Each chunk of ``_CHUNK`` rows gets its activation matrix I and its truncation
    sets.  One ``_row_blocks`` pass then turns each ``_ROW_BLOCK``-row block of I
    into its posterior block S in place: its supports are gathered
    (``inference._gather_support``) and normalized, which at C'=C is the block
    itself, and below C'=C scattered into the zeroed block.  Its scores follow,
    through ``inference._block_matmul`` as in ``integrate``, so a point's scores
    depend on its own row and the weights alone.
    """
    mix_T = normalized_columns(R.R).T  # (C, K)
    scores = np.empty((Y.shape[0], R.K))
    for lo in range(0, Y.shape[0], _CHUNK):
        hi = min(Y.shape[0], lo + _CHUNK)
        S = integrate(W, Y[lo:hi])
        sets = select_truncation(S, c_prime)

        def block(b, e):
            rows = S[b:e]
            probs = softmax_inplace(_gather_support(rows, sets[b:e]))
            if probs is not rows:
                rows.fill(0.0)
                np.put_along_axis(rows, sets[b:e], probs, axis=1)
            _block_matmul(rows, mix_T, scores[lo + b : lo + e])

        _row_blocks(block, hi - lo)
    return scores


def predict_batch(Y, W: BottomWeights, R: TopWeights, c_prime: int) -> np.ndarray:
    """Vectorized truncated-path predictions for a batch of observations:
    the argmax of each point's ``_class_scores``."""
    return np.argmax(_class_scores(Y, W, R, c_prime), axis=1)


def _check_set(ds: Dataset, name: str, D: int | None = None):
    """The rules of the ``name`` ("training" or "test") set: it is not empty, and a
    test set is fully labeled and, unless D is None, of the weights' dimension D."""
    if ds.N == 0:
        raise DataError(f"{name} set is empty")
    if name == "test" and np.any(ds.labels == UNLABELED):
        raise DataError("test set must be fully labeled")
    if D is not None and ds.D != D:
        raise DataError(f"weights have D={D} but test data has D={ds.D}")


def evaluate(test_ds: Dataset, W: BottomWeights, R: TopWeights, c_prime: int) -> float:
    """Fraction of test points whose predicted class differs from the label."""
    _check_set(test_ds, "test", W.D)
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
    unaffected.  Each split pass and online epoch pins BLAS to one thread
    (``inference._one_blas_thread``); ``save_run`` records that count as
    ``blas_threads``.
    """
    if trace_every < 0:
        raise ConfigError(f"trace_every must be >= 0, got {trace_every}")
    _check_set(train_ds, "training")
    for name, ds in (("training", train_ds), ("test", test_ds)):
        if ds.D != cfg.D:
            raise ConfigError(f"config D={cfg.D} but {name} data has D={ds.D}")
        if ds.K != cfg.K:
            raise ConfigError(f"config K={cfg.K} but {name} data has K={ds.K}")
        if ds.A != cfg.A:
            raise ConfigError(f"config A={cfg.A} but {name} data was normalized to A={ds.A}")
    if cfg.C > train_ds.N:
        raise ConfigError("need at least one training observation per cluster")
    rng = np.random.default_rng(cfg.seed)
    W, R = init_weights(cfg, train_ds.Y, rng)
    init_hash = hashlib.sha256(W.W.tobytes() + R.R.tobytes()).hexdigest()

    trace = FreeEnergyTrace()

    def record_trace(epoch: int):
        if trace_every == 0:
            return
        if epoch % trace_every == 0 or epoch == cfg.epochs:
            lgam = train_ds.lgamma_sums  # cached on the Dataset after the first trace
            sets = batch_e_step(train_ds.Y, W, cfg.C_prime)
            trace.append(epoch, free_energy(train_ds.Y, W, sets, lgam))

    test_errors = [evaluate(test_ds, W, R, cfg.C_prime)]
    record_trace(0)
    gate_stats, timings = [], []
    for epoch in range(1, cfg.epochs + 1):
        try:
            gates, phases = online_epoch(train_ds, W, R, cfg, rng)
            W.validate()
            R.validate()
        except (ConfigError, FloatingPointError) as e:
            raise FloatingPointError(f"epoch {epoch}: {e}") from e
        gate_stats.append(gates)
        timings.append(phases)
        test_errors.append(evaluate(test_ds, W, R, cfg.C_prime))
        record_trace(epoch)
        if verbose:
            print(
                f"epoch {epoch}/{cfg.epochs}  test_error={test_errors[-1]:.4f}"
                f"  gated={gates['unlabeled_skipped']}  [{sum(phases.values()):.1f}s]",
                file=sys.stderr,
            )

    report = RunReport(
        config=cfg,
        n_labeled=train_ds.n_labeled,
        init_hash=init_hash,
        test_errors=test_errors,
        trace=trace,
        gate_stats=gate_stats,
        timings=timings,
    )
    return report, W, R


def _scale_panel(values: np.ndarray) -> np.ndarray:
    span = values.max() - values.min()
    if span == 0.0:
        return np.full(values.shape, 127, dtype=np.uint8)
    scaled = np.rint((values - values.min()) / span * 255.0)
    return scaled.astype(np.uint8)


@contextmanager
def replace_together(*paths):
    """Yield a temporary sibling for each of ``paths`` and move each onto its path once
    the block has written them all; if the block raises, the old files stay whole."""
    tmps = [p.with_name(f".{p.name}.tmp") for p in map(Path, paths)]
    try:
        yield tmps
        for tmp, path in zip(tmps, paths):
            tmp.replace(path)
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)


def export_weight_grid(W: BottomWeights, R: TopWeights, rows: int, cols: int, path):
    """Write a PGM grid of bottom-weight panels with their class columns.

    D must be a perfect square, side * side.  Each tile shows one cluster's
    rate row as a ``side x side`` image, a
    one-pixel black separator, and a one-pixel-wide column whose top K pixels
    render that cluster's R column; all scaled to 0..255 per panel.  Tiles
    are laid out row-major with one-pixel black gaps.
    """
    if rows < 1 or cols < 1:
        raise ConfigError(f"grid must be at least 1x1, got {rows}x{cols}")
    side = math.isqrt(W.D)
    if side * side != W.D:
        raise DataError(f"D={W.D} is not a perfect square; cannot render panels")
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
    with replace_together(path) as (tmp,), open(tmp, "wb") as f:
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
    """Write report.json, timings.json, CSV traces, and the weight arrays.

    timings.json holds the fields that vary with the machine: the per-epoch
    phase seconds, the process's peak resident set size so far,
    ``peak_rss_mb``, and ``blas_threads``, the OpenBLAS thread count that
    each split pass and online epoch pins: 1, or null where it cannot be set.
    An earlier run's config.json goes first; the files then move in together
    through ``replace_together``, config.json last, so a failed save leaves
    every other earlier file whole and a directory that loads as no run.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").unlink(missing_ok=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    names = ("report.json", "timings.json", "free_energy.csv", "test_error.csv", "W.npy",
             "R.npy", "config.json")
    with replace_together(*(out / n for n in names)) as (rep, tim, fe, te, w, r, config):
        rep.write_text(report.to_json())
        tim.write_text(json.dumps(
            {"per_epoch": report.timings, "peak_rss_mb": peak_rss_mb,
             "blas_threads": 1 if _openblas() else None}, sort_keys=True, indent=2
        ) + "\n")
        for tmp, name, rows in ((fe, "free_energy", report.trace.entries),
                                (te, "test_error", enumerate(report.test_errors))):
            tmp.write_text(f"epoch,{name}\n" + "".join(f"{e},{v!r}\n" for e, v in rows))
        for tmp, arr in ((w, W.W), (r, R.R)):
            with open(tmp, "wb") as f:  # np.save appends .npy to a path that lacks it
                np.save(f, arr)
        config.write_text(report.config.to_json() + "\n")


def load_weights(weights_dir) -> tuple[BottomWeights, TopWeights, ModelConfig]:
    """Load the weight arrays and config snapshot written by ``save_run``."""
    d = Path(weights_dir)
    layers = []
    try:
        try:
            cfg = ModelConfig.from_json((d / "config.json").read_text())
        except ConfigError as e:
            raise DataError(f"{d / 'config.json'}: {e}") from e
        for name, want, build in (
            ("W.npy", (cfg.C, cfg.D), lambda a: BottomWeights(a, cfg.A)),
            ("R.npy", (cfg.K, cfg.C), TopWeights),
        ):
            with open(d / name, "rb") as f:
                try:  # .npy only: no pickle, no .npz archive
                    arr = np.lib.format.read_array(f)
                except ValueError as e:
                    raise DataError(f"{d / name}: not a numeric .npy file ({e})") from e
            if arr.shape != want:
                raise DataError(f"{d / name} has shape {arr.shape}, config.json implies {want}")
            try:
                layers.append(build(arr))
            except ValueError as e:  # the values, not the config, are at fault
                raise DataError(f"{d / name}: {e}") from e
    except FileNotFoundError as e:
        raise DataError(f"not a weights directory: {weights_dir} ({e})") from e
    return *layers, cfg
