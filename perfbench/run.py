"""Benchmark of the heatflat verification chain.

    python3 perfbench/run.py --workload {norms,radius,precision,chain,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Each run starts fresh interpreters
with BLAS pinned to one thread: SETUP_SAMPLES that only import heatflat,
build the workload and time a few calibration kernel passes (the median of
their wall times, less the kernel passes and scaled by their speed factor,
is ``setup_s``), then one worker that warms up and times whole rounds of
the workload (the median scaled round is ``verify_s``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of the traced run with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("norms", "radius", "precision", "chain")
SETUP_SAMPLES = 4
RUN_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(ROOT / "src"))
    return env


def worker(args: list, deadline: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=child_env(),
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=max(deadline - time.monotonic(), 1.0))


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    setup = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            proc = worker(["--workload", name, "--setup-only"], deadline)
            wall = time.perf_counter() - t0
            cal = json.loads(proc.stdout.strip().splitlines()[-1])
            setup.append((wall - cal["kernel_s"]) / cal["factor"])
    proc = worker(["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(int(trace))], deadline)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    factors = [{n: round(v, 3) for n, v in f.items()} for f in res["factors"]]
    print(f"{name}: rounds {[round(r, 3) for r in res['rounds']]} factors {factors} "
          f"kernel passes {res['kernel_passes']} setup "
          f"{[round(s, 3) for s in setup]} rss {res['peak_rss_mb']:.1f} MB "
          f"attempted {res['attempted']} failed {res['failed']}"
          + (f" trace coverage {res['coverage']:.3f}" if trace else ""), file=sys.stderr)
    for msg in res["failures"]:
        print(f"{name}: CHECK FAILED: {msg}", file=sys.stderr)
    if trace:
        metrics = res["per_layer"]
    else:
        metrics = {"verify_s": {"value": res["verify_s"], "unit": "s"},
                   "setup_s": {"value": statistics.median(setup), "unit": "s"},
                   "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"}}
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "heatflat" / "__init__.py").is_file():
        print(f"run.py: no heatflat sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), deadline)
               for n in names}
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {f"{n}/{m}": v for n, r in results.items()
                               for m, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
