"""Seed-7 output digests of the four benchmark workloads, as one JSON line.

    python3 tools/digests.py

Run from a checkout root.  Writes the ``perfbench/gen.py --seed 7`` draw to
a temporary directory, runs semi-c15, semi-c400 and sup-c15 as ``truncmix
train`` in-process (``workloads.online_rep``: ``cli.main`` on the argv it
builds from ``workloads.config_doc``), and tvem through
``workloads.tvem_rep`` from the farthest-point init of seed 7.  Prints the
first 16 hex digits of the sha256 of each online run's ``report.json``,
``W.npy`` and ``R.npy``, and of the tvem rep's digest.  Two checkouts print
the same line exactly when these outputs are byte-identical.  Only reads
``perfbench/``.

The bits also depend on the OpenBLAS kernels that ran, so ``main`` prints
their core name (such as ``SkylakeX``) as one line on stderr.
"""

import ctypes
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import truncmix  # noqa: E402,F401  (first: its one-thread BLAS pin must precede numpy's import)
import numpy as np  # noqa: E402
from truncmix import inference, learning  # noqa: E402

import gen  # noqa: E402
import workloads  # noqa: E402

SEED = 7
ONLINE = ("semi-c15", "semi-c400", "sup-c15")


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def blas_core() -> str:
    """The core name of numpy's OpenBLAS, or ``unknown`` where
    ``inference._openblas()`` finds none or it does not report one."""
    lib = inference._openblas()
    name = getattr(lib, "scipy_openblas_get_corename64_", None)
    if name is None:
        return "unknown"
    name.restype = ctypes.c_char_p
    return name().decode()


def digests(work: Path) -> dict:
    """Digests of the seed-7 runs of every workload, made under ``work``."""
    inputs = work / "inputs"
    gen.make_inputs(SEED, inputs)
    gate = workloads.Gate()
    out = {}
    for name in ONLINE:
        run = work / name
        rep = workloads.online_rep(workloads.WORKLOADS[name], SEED, inputs, run,
                                   workloads.BOUNDARY, gate)
        if not rep["ok"]:
            raise RuntimeError(f"{name}: {gate.reasons}")
        out[name] = {f: _file_digest(run / f) for f in ("report.json", "W.npy", "R.npy")}
    wl = workloads.WORKLOADS["tvem"]
    _, train, test = workloads.setup_once(wl, inputs, SEED)
    W0 = learning.init_from_data(train.Y, workloads.C, workloads.A,
                                 np.random.default_rng(SEED))
    rep = workloads.tvem_rep(wl, train, test, W0, workloads.BOUNDARY, gate)
    if not rep["ok"] or gate.failed:
        raise RuntimeError(f"checks failed: {gate.reasons}")
    out["tvem"] = rep["digest"][:16]
    return out


def main() -> int:
    print(f"OpenBLAS core: {blas_core()}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as work:
        print(json.dumps(digests(Path(work)), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
