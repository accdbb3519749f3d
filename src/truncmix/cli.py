"""Command-line interface.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric failure
(a detected free-energy decrease is reported, never ignored).
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .core import ConfigError, DataError, ModelConfig, MonotonicityError
from .data import (
    generate_mixture,
    load_csv,
    load_idx,
    preprocess,
    subsample_labels,
    write_idx_images,
    write_idx_labels,
)
from .harness import (
    aggregate,
    compare_truncation,
    evaluate,
    export_weight_grid,
    load_weights,
    save_run,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_dataset(images, labels, A, K):
    if images.endswith(".csv"):
        raw = load_csv(images)
    else:
        if labels is None:
            raise ConfigError("IDX input needs both an images and a labels path")
        raw = load_idx(images, labels)
    return preprocess(raw, A, K)


def _load_config(args) -> ModelConfig:
    cfg = ModelConfig.from_json(Path(args.config).read_text())
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    return cfg


def _prepare(args):
    cfg = _load_config(args)
    train_ds = _load_dataset(args.images, args.labels, cfg.A, cfg.K)
    test_ds = _load_dataset(args.test_images, args.test_labels, cfg.A, cfg.K)
    if args.labels_per_class is not None:
        train_ds = subsample_labels(train_ds, args.labels_per_class, cfg.seed)
    return cfg, train_ds, test_ds


def cmd_train(args) -> int:
    cfg, train_ds, test_ds = _prepare(args)
    report, W, R = train(train_ds, test_ds, cfg, trace_every=args.trace_every, verbose=True)
    save_run(args.out, report, W, R)
    print(f"final test error: {report.final_error:.4f} ({cfg.epochs} epochs, seed {cfg.seed})")
    print(f"wrote {args.out}/report.json")
    return EXIT_OK


def cmd_eval(args) -> int:
    W, R, cfg = load_weights(args.weights)
    test_ds = _load_dataset(args.test_images, args.test_labels, cfg.A, cfg.K)
    err = evaluate(test_ds, W, R, cfg.C_prime)
    print(f"test error: {err!r}")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg, train_ds, test_ds = _prepare(args)
    values = []
    for token in args.cprime_list.split(","):
        token = token.strip()
        if not token:
            continue
        if token.upper() == "C":
            values.append(cfg.C)
        else:
            try:
                values.append(int(token))
            except ValueError:
                raise ConfigError(f"bad --cprime-list entry {token!r}") from None
    if not values:
        raise ConfigError("--cprime-list is empty")
    results = compare_truncation(train_ds, test_ds, cfg, values, trace_every=args.trace_every)
    summary = {}
    for cp, (report, W, R) in results.items():
        save_run(Path(args.out) / f"cprime_{cp}", report, W, R)
        summary[str(cp)] = {
            "final_error": report.final_error,
            "final_free_energy": report.trace.entries[-1][1] if report.trace.entries else None,
        }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "compare.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"wrote {args.out}/compare.json ({len(results)} settings)")
    return EXIT_OK


def cmd_export_weights(args) -> int:
    W, R, _cfg = load_weights(args.weights)
    side = int(round(np.sqrt(W.D)))
    if side * side != W.D:
        raise DataError(f"D={W.D} is not a perfect square; cannot render panels")
    export_weight_grid(W, R, args.rows, args.cols, side, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    raw, true_W = generate_mixture(args.clusters, args.dim, args.n, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_idx_images(out / "images-idx3-ubyte", raw.X, 1, args.dim)
    write_idx_labels(out / "labels-idx1-ubyte", raw.labels)
    truth = {
        "clusters": args.clusters,
        "dim": args.dim,
        "n": args.n,
        "seed": args.seed,
        "true_W": [[float(v) for v in row] for row in true_W],
    }
    (out / "truth.json").write_text(json.dumps(truth, sort_keys=True, indent=2) + "\n")
    print(f"wrote {args.n} samples from {args.clusters} clusters to {args.out}")
    return EXIT_OK


def _load_report(path) -> dict:
    """A run report with a seed and a numeric final_error; anything else is
    a DataError that names ``path``."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as e:  # invalid JSON or not UTF-8
        raise DataError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(doc, dict) or "seed" not in doc:
        raise DataError(f"{path}: not a run report")
    if type(doc.get("final_error")) not in (int, float):
        raise DataError(f"{path}: final_error is missing or not a number")
    return doc


def cmd_aggregate(args) -> int:
    reports = [_load_report(p) for p in args.reports]
    summary = aggregate(reports)
    text = json.dumps(summary, sort_keys=True, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK


def _add_data_args(p, with_train=True):
    if with_train:
        p.add_argument("--images", required=True, help="training images (IDX, or CSV with labels)")
        p.add_argument("--labels", help="training labels (IDX); omit for CSV input")
    p.add_argument("--test-images", required=True)
    p.add_argument("--test-labels")


def _add_run_args(p):
    p.add_argument("--config", required=True, help="model config JSON")
    _add_data_args(p)
    p.add_argument("--labels-per-class", type=int, help="class-balanced label subsampling")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--trace-every", type=int, default=1,
                   help="epochs between free-energy evaluations (0 disables)")
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="truncmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="online semi-supervised training run")
    _add_run_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate saved weights on a test set")
    p.add_argument("--weights", required=True, help="directory written by train")
    _add_data_args(p, with_train=False)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="shared-init runs over several truncation sizes")
    p.add_argument("--cprime-list", required=True,
                   help="comma-separated truncation sizes; the letter C means no truncation")
    _add_run_args(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("export-weights", help="render weight panels to a PGM grid")
    p.add_argument("--weights", required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--out", required=True, help="output PGM path")
    p.set_defaults(func=cmd_export_weights)

    p = sub.add_parser("synth", help="generate Poisson-mixture count data")
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("aggregate", help="mean/SEM of final errors over run reports")
    p.add_argument("reports", nargs="+", help="report.json paths")
    p.add_argument("--out", help="optional output JSON path")
    p.set_defaults(func=cmd_aggregate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"truncmix: config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as e:
        print(f"truncmix: data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (MonotonicityError, FloatingPointError) as e:
        print(f"truncmix: numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
