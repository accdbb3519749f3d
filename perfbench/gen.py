"""Benchmark inputs: one seeded Poisson-mixture draw split into train and test IDX pairs.

The draw is ``generate_mixture(40, 784, N_TRAIN + N_TEST, seed, separation=1.0)``
with class = component mod 10, so every class is a union of four overlapping
components.  Train and test come from the same draw because
``generate_mixture`` draws new templates per seed: a test part from a second
seed would come from a different mixture and its error would mean nothing.

Why not the 10-component, separation-9 draw used for quick checks: it reaches
0.0 test error after one epoch, so a test-error reading would guard nothing.
This draw measured 0.72, 0.61 and 0.39 over three epochs at C'=15.

Run as a script (``python3 perfbench/gen.py --seed 3 --out DIR``) so that the
generator's memory peak stays out of the benchmark process.
"""

import argparse
from pathlib import Path

from truncmix.data import generate_mixture, write_idx_images, write_idx_labels

N_TRAIN = 6000
N_TEST = 2000
COMPONENTS = 40
CLASSES = 10
SIDE = 28


def make_inputs(seed: int, out_dir) -> None:
    """Write train-images, train-labels, test-images and test-labels (IDX) into ``out_dir``."""
    raw, _ = generate_mixture(COMPONENTS, SIDE * SIDE, N_TRAIN + N_TEST, seed, separation=1.0)
    X = raw.X
    if X.min() < 0 or X.max() > 255:
        raise ValueError(f"counts must lie in [0, 255] for IDX, got max {X.max()}")
    labels = raw.labels % CLASSES
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for part, rows in (("train", slice(0, N_TRAIN)), ("test", slice(N_TRAIN, None))):
        write_idx_images(out / f"{part}-images", X[rows], SIDE, SIDE)
        write_idx_labels(out / f"{part}-labels", labels[rows])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    make_inputs(args.seed, args.out)
