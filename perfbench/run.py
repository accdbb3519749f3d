"""truncmix benchmark runner.

    python3 perfbench/run.py --workload semi-c15 --seed 1 --seconds 5 --trace 0

Run from the repository root.  Generates the workload's inputs from
``--seed``, sets up and runs the workload through the public API until
``--seconds`` have been measured (at least two reps, so their outputs can be
compared), checks the outputs, and prints one JSON object as the last line:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, or its
per-layer metrics with ``--trace 1``.  A traced run makes one untraced rep
and one traced rep.  Exits 1 when a check fails and 2 when the program
sources are missing.
"""

import os

# BLAS must be pinned before numpy is first imported.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_REPS = 2


def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def gemm_gflops() -> float:
    """Median speed of a fixed (2000 x 784) @ (784 x 400) product: a probe of
    how fast this machine ran at the time, recorded next to the result."""
    import numpy as np

    a, b = np.ones((2000, 784)), np.ones((784, 400))
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2.0 * a.shape[0] * a.shape[1] * b.shape[1] / sorted(times)[3] / 1e9


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _openblas_threads()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": threads,
        "blas_pinned": threads == 1,
    }


def _emit(names, values) -> dict:
    missing = {n["name"] for n in names} ^ set(values)
    if missing:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on: {sorted(missing)}")
    return {n["name"]: {"value": float(values[n["name"]]), "unit": n["unit"]} for n in names}


def run(args, spec) -> int:
    import numpy as np
    from truncmix import learning

    import selftest
    from workloads import (A, BOUNDARY, C, SETUP_REPEATS, TRACED, WORKLOADS, Gate,
                           end_to_end, make_tracer, online_rep, per_layer, reconcile,
                           setup_once, tvem_rep)

    wl = WORKLOADS[args.workload]
    gate = Gate()
    probe_before = gemm_gflops()
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    inputs = work / "inputs"
    try:
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--seed", str(args.seed), "--out", str(inputs)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), check=True, timeout=300,
        )

        setups = []
        for _ in range(SETUP_REPEATS):
            dt, train, test = setup_once(wl, inputs, args.seed)
            setups.append(dt)
        W0 = None
        if not wl.online:
            t0 = time.perf_counter()
            W0 = learning.init_from_data(train.Y, C, A, np.random.default_rng(args.seed))
            init_s = time.perf_counter() - t0
            setups = [s + init_s for s in setups]

        def rep(targets, train, test, W0):
            if wl.online:
                return online_rep(wl, args.seed, inputs, work / f"rep{len(reps)}", targets, gate)
            return tvem_rep(wl, train, test, W0, targets, gate)

        reps = []
        start = time.perf_counter()
        while True:
            r = rep(BOUNDARY, train, test, W0)
            if not r["ok"]:
                break
            reps.append(r)
            elapsed = time.perf_counter() - start
            if args.trace or (len(reps) >= MIN_REPS and elapsed >= args.seconds):
                break

        traced = None
        if args.trace and reps:
            try:
                selftest.check()
                gate.check(True, "span self-test")
            except AssertionError as e:
                gate.check(False, f"span self-test: {e}")
            setup_spans = {}
            if not wl.online:
                with make_tracer(TRACED) as st:
                    _, train, test = setup_once(wl, inputs, args.seed)
                    W0 = learning.init_from_data(train.Y, C, A, np.random.default_rng(args.seed))
                setup_spans = st.summary()
            traced = rep(TRACED, train, test, W0)
            if traced["ok"]:
                reconcile(wl, traced, gate)
        digests = {r["digest"] for r in reps + [traced] if r and r["ok"]}
        if digests:
            gate.check(len(digests) == 1, f"outputs differ across reps: {sorted(digests)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = gate.failed == 0
    metrics = {}
    if correct and args.trace:
        metrics = _emit(spec["per_layer"], per_layer(wl, traced, reps[0], setup_spans))
    elif correct:
        metrics = _emit(spec["end_to_end"], end_to_end(setups, reps, peak_rss_mb))
    for reason in gate.reasons:
        print(f"perfbench: {reason}", file=sys.stderr)

    result = {"correct": correct, "attempted": gate.attempted, "failed": gate.failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "reps": len(reps),
              "gemm_gflops": [probe_before, gemm_gflops()],
              "setup_s": setups, "reasons": gate.reasons, "result": result,
              "samples": {k: [r[k] for r in reps]
                          for k in ("train_s", "epoch_rates", "eval_rates", "trace_rates")}}
    results = ROOT / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")
    if not record["machine"]["blas_pinned"]:
        print("perfbench: WARNING: BLAS is not pinned to one thread", file=sys.stderr)
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (SRC / "truncmix" / "__init__.py").is_file():
        print(f"perfbench: need BENCHMARK.json and src/truncmix under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
