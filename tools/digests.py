"""Seed-7 output digests of the four benchmark workloads, as one JSON line.

    python3 tools/digests.py [--check]

Run from a checkout root.  Writes the ``perfbench/gen.py --seed 7`` draw to
a temporary directory, runs semi-c15, semi-c400 and sup-c15 as ``truncmix
train`` in-process (``workloads.online_rep``: ``cli.main`` on the argv it
builds from ``workloads.config_doc``), and tvem through
``workloads.tvem_rep`` from the farthest-point init of seed 7; tvem-full
runs ``run_tv_em`` untruncated (C'=C) from the same init for tvem's
``em_iterations``.  Prints the first 16 hex digits of the sha256 of each
online run's ``report.json``, ``W.npy`` and ``R.npy``, of the tvem rep's
digest, and of tvem-full's F trace (as JSON) followed by its W bytes.  Two checkouts print
the same line exactly when these outputs are byte-identical.  Reads only
``perfbench/`` and, with ``--check``, the golden file below.

The bits also depend on the OpenBLAS kernels that ran, so ``main`` prints
their core name (such as ``SkylakeX``) as one line on stderr.
``tests/golden_digests.json`` holds, per core name, the expected line of the
seed-7 draw and of the 600/200-row draw of the tier-1 test, each with the
digest of every top-level key of each ``report.json``.  With ``--check`` the
line is compared with this core's entry: each difference goes to stderr,
naming the workload and the file (and for ``report.json`` its first key that
differs), and the exit status is 1 on any difference or when the core has
no entry.
"""

import argparse
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
GOLDEN = ROOT / "tests" / "golden_digests.json"


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
    W, trace = learning.run_tv_em(train.Y, W0, workloads.C, wl.em_iterations, train.lgamma_sums)
    h = hashlib.sha256(json.dumps(trace.entries).encode())
    h.update(W.W.tobytes())
    out["tvem-full"] = h.hexdigest()[:16]
    return out


def report_keys(report: Path) -> dict:
    """The digest of each top-level key's value in one ``report.json``."""
    return {key: hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]
            for key, value in json.loads(report.read_text()).items()}


def golden(draw: str) -> dict | None:
    """This core's entry for ``draw`` (``seed-7`` or ``tiny-draw``) in
    ``GOLDEN``, or None where the core has none."""
    return json.loads(GOLDEN.read_text()).get(blas_core(), {}).get(draw)


def differences(got: dict, want: dict, work: Path) -> list:
    """One line per output whose digest in ``got``, the digests of the runs
    made under ``work``, differs from ``want``'s, naming the workload and the
    file; for ``report.json`` also its first key (in the file's sorted order)
    whose value's digest differs."""
    lines = []
    for name, run in (("tvem", "tvem_rep"), ("tvem-full", "run_tv_em")):
        if got[name] != want["digests"].get(name):
            lines.append(f"{name}: {run} digest {got[name]} != {want['digests'].get(name)}")
    for name in ONLINE:
        for file, digest in got[name].items():
            expected = want["digests"][name][file]
            if digest == expected:
                continue
            line = f"{name}: {file} {digest} != {expected}"
            if file == "report.json":
                have, need = report_keys(work / name / file), want["report_keys"][name]
                keys = sorted(k for k in have.keys() | need.keys() if have.get(k) != need.get(k))
                line += f", first at key {keys[0]!r}" if keys else ", no key's value differs"
            lines.append(line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help=f"exit 1 unless the line equals this core's seed-7 entry in {GOLDEN.name}")
    args = parser.parse_args(argv)
    core = blas_core()
    print(f"OpenBLAS core: {core}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as work:
        got = digests(Path(work))
        print(json.dumps(got, sort_keys=True))
        if not args.check:
            return 0
        want = golden("seed-7")
        if want is None:
            print(f"{GOLDEN}: no seed-7 entry for core {core}", file=sys.stderr)
            return 1
        lines = differences(got, want, Path(work))
    for line in lines:
        print(f"{GOLDEN.name} mismatch: {line}", file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
