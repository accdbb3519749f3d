"""Command-line interface.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric failure
(a detected free-energy decrease is reported, never ignored).
"""

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

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
    _check_set,
    aggregate,
    evaluate,
    export_weight_grid,
    load_weights,
    replace_together,
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


def _load_dataset(images, labels, A, K, name, D=None):
    """The preprocessed ``name`` set, checked by ``harness._check_set``; a fault that
    ``preprocess`` or that check finds names its file or IDX pair."""
    if images.endswith(".csv"):
        raw, source = load_csv(images), images
    else:
        if labels is None:
            raise ConfigError("IDX input needs both an images and a labels path")
        raw, source = load_idx(images, labels), f"{images}, {labels}"
    try:
        ds = preprocess(raw, A, K)
        _check_set(ds, name, D)
    except DataError as e:
        raise DataError(f"{source}: {e}") from e
    return ds


def _load_config(args) -> ModelConfig:
    cfg = ModelConfig.from_json(Path(args.config).read_text())
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _load_data(args, cfg: ModelConfig):
    train_ds = _load_dataset(args.images, args.labels, cfg.A, cfg.K, "training")
    test_ds = _load_dataset(args.test_images, args.test_labels, cfg.A, cfg.K, "test")
    if args.labels_per_class is not None:
        train_ds = subsample_labels(train_ds, args.labels_per_class, cfg.seed)
    return train_ds, test_ds


def cmd_train(args) -> int:
    cfg = _load_config(args)
    train_ds, test_ds = _load_data(args, cfg)
    report, W, R = train(train_ds, test_ds, cfg, trace_every=args.trace_every, verbose=True)
    save_run(args.out, report, W, R)
    print(f"final test error: {report.test_errors[-1]:.4f} ({cfg.epochs} epochs, seed {cfg.seed})")
    print(f"wrote {args.out}/report.json")
    return EXIT_OK


def cmd_eval(args) -> int:
    W, R, cfg = load_weights(args.weights)
    test_ds = _load_dataset(args.test_images, args.test_labels, cfg.A, cfg.K, "test", W.D)
    err = evaluate(test_ds, W, R, cfg.C_prime)
    print(f"test error: {err!r}")
    return EXIT_OK


def _c_prime_list(text: str, C: int) -> list[int]:
    """The C' values of ``--cprime-list`` ("C" stands for C).  A bad token, an empty
    list, then every repeated value, then every one outside [1, C] is a ConfigError."""
    values = []
    for token in filter(None, map(str.strip, text.split(","))):
        try:
            values.append(C if token.upper() == "C" else int(token))
        except ValueError:
            raise ConfigError(f"bad --cprime-list entry {token!r}") from None
    if not values:
        raise ConfigError("--cprime-list is empty")
    repeated = sorted({cp for cp in values if values.count(cp) > 1})
    if repeated:
        raise ConfigError(f"C' values listed more than once: {', '.join(map(str, repeated))}")
    outside = sorted({cp for cp in values if not 1 <= cp <= C})
    if outside:
        raise ConfigError(f"C' values out of range [1, {C}]: {', '.join(map(str, outside))}")
    return values


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    values = _c_prime_list(args.cprime_list, cfg.C)
    train_ds, test_ds = _load_data(args, cfg)
    # The runs share their init: init_weights reads nothing that C' changes.
    results = {cp: train(train_ds, test_ds, replace(cfg, C_prime=cp), trace_every=args.trace_every)
               for cp in values}
    out = Path(args.out)
    # A summary from an earlier compare must not outlive a save that fails.
    (out / "compare.json").unlink(missing_ok=True)
    summary = {}
    for cp, (report, W, R) in results.items():
        save_run(out / f"cprime_{cp}", report, W, R)
        summary[str(cp)] = {
            "final_error": report.test_errors[-1],
            "final_free_energy": report.trace.entries[-1][1] if report.trace.entries else None,
        }
    with replace_together(out / "compare.json") as (summary_json,):
        summary_json.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"wrote {args.out}/compare.json ({len(results)} settings)")
    return EXIT_OK


def cmd_export_weights(args) -> int:
    W, R, _cfg = load_weights(args.weights)
    export_weight_grid(W, R, args.rows, args.cols, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    raw, true_W = generate_mixture(args.clusters, args.dim, args.n, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    truth = {
        "clusters": args.clusters,
        "dim": args.dim,
        "n": args.n,
        "seed": args.seed,
        "true_W": [[float(v) for v in row] for row in true_W],
    }
    with replace_together(out / "images-idx3-ubyte", out / "labels-idx1-ubyte",
                          out / "truth.json") as (images, labels, truth_json):
        write_idx_images(images, raw.X, 1, args.dim)
        write_idx_labels(labels, raw.labels)
        truth_json.write_text(json.dumps(truth, sort_keys=True, indent=2) + "\n")
    print(f"wrote {args.n} samples from {args.clusters} clusters to {args.out}")
    return EXIT_OK


def _load_report(path) -> dict:
    """A run report with a seed and a finite numeric final_error; anything
    else is a DataError that names ``path``."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as e:  # invalid JSON or not UTF-8
        raise DataError(f"{path}: not valid JSON ({e})") from e
    if not isinstance(doc, dict) or "seed" not in doc:
        raise DataError(f"{path}: not a run report")
    value = doc.get("final_error")
    if type(value) not in (int, float):
        raise DataError(f"{path}: final_error is missing or not a number")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range, such as 10**400
        raise DataError(f"{path}: final_error is an integer too large for a float") from None
    if not finite:  # json.loads takes NaN and Infinity
        raise DataError(f"{path}: final_error is {value}, not finite")
    return doc


def cmd_aggregate(args) -> int:
    reports = [_load_report(p) for p in args.reports]
    summary = aggregate(reports)
    text = json.dumps(summary, sort_keys=True, indent=2)
    if args.out:
        with replace_together(args.out) as (out,):
            out.write_text(text + "\n")
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
