"""One benchmark run of one workload, in a fresh interpreter started by run.py.

Imports heatflat, builds the workload, runs one untimed warm-up round, then
times whole rounds until ``--seconds`` have passed (at least MIN_ROUNDS).
The calibration kernel (see calibrate.py) is sampled at both ends of every
round and every ``calibrate.INTERVAL_S`` inside it; each round's time, less
the time spent in the sampler, is divided by the mean speed factor of the
round's samples.  After each round, outside its time, the workload's probes
run and its outputs are checked.  Prints one JSON line for run.py.  With
``--setup-only`` it stops after building the workload and a few kernel
passes, and prints their time and speed factor: run.py times the process
from start to exit, less the kernel passes, as ``setup_s``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time

MIN_ROUNDS = 2
SETUP_KERNEL_PASSES = 3
WALL_CAP_S = 120.0   # stop early so that run.py ends within its limit


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    start = time.perf_counter()
    import heatflat.cli  # noqa: F401  (the import a CLI call pays)
    import_s = time.perf_counter() - start

    import calibrate
    import workloads
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        tracer.run_values["cli.import_s"] = import_s
    capture = workloads.Capture()
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", args.workload)
    os.makedirs(out, exist_ok=True)
    wl = workloads.BUILD[args.workload](out)
    sampler = calibrate.Sampler()
    t_kernel = time.perf_counter()
    calibrate.kernel()   # first pass pays one-off costs (mpmath constants at 582 digits)
    if args.setup_only:
        for _ in range(SETUP_KERNEL_PASSES):
            sampler.sample()
        print(json.dumps({"factor": calibrate.factor(sampler.samples),
                          "kernel_s": time.perf_counter() - t_kernel}))
        return 0

    units = list(wl.units)
    random.Random(args.seed).shuffle(units)

    def run_unit(kind, fn):
        return tracer.call(kind, fn) if tracer else fn()

    for name, fn in units:   # warm-up round
        if not wl.warmup or name in wl.warmup:
            fn()
    capture.clear()
    if tracer:
        tracer.reset()

    rounds, factors, failures = [], [], []
    attempted = failed = 0
    t_begin = time.perf_counter()
    while (len(rounds) < MIN_ROUNDS or time.perf_counter() - t_begin < args.seconds) \
            and time.perf_counter() - start < WALL_CAP_S:
        gc.collect()
        capture.clear()
        round_fails, raised = [], 0
        first = len(sampler.samples)
        sampler.sample()
        spent = sampler.spent
        if not tracer:   # the traced run's spans must not hold sampler time
            sampler.start()
        t0 = time.perf_counter()
        for name, fn in units:
            try:
                round_fails += run_unit("bench.unit", fn)
            except Exception as exc:  # a unit that raises is a failed operation
                raised += 1
                round_fails.append(f"{name}: {type(exc).__name__}: {exc}")
        sampler.stop()
        rounds.append(time.perf_counter() - t0 - (sampler.spent - spent))
        sampler.sample()
        factors.append({n: calibrate.factor(sampler.samples[first:], (n,))
                        for n in calibrate.REFERENCE_S})
        if not raised:
            try:
                round_fails += wl.check(capture)
            except Exception as exc:
                round_fails.append(f"check: {type(exc).__name__}: {exc}")
        failures += round_fails
        attempted += len(units) + len(wl.probes)
        failed += raised
        for name, fn, check in wl.probes:
            capture.clear()
            try:
                probe_fails = run_unit("bench.probe", fn) + check(capture)
            except Exception as exc:
                probe_fails = [f"{type(exc).__name__}: {exc}"]
            failed += bool(probe_fails)
        if tracer:
            tracer.new_round()

    result = {
        "rounds": rounds,
        "factors": factors,
        "kernel_passes": len(sampler.samples),
        "verify_s": statistics.median(r / statistics.fmean(f[n] for n in wl.kinds)
                                      for r, f in zip(rounds, factors)),
        "attempted": attempted,
        "failed": failed,
        "correct": not failures,
        "failures": failures[:10],
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["per_layer"] = tracer.metrics()
        result["coverage"] = tracer.coverage()
        tracer.dump(os.path.join(os.path.dirname(out), f"trace-{args.workload}.json"),
                    {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                     "coverage": result["coverage"]})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
