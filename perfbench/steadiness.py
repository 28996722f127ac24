"""Steadiness of the end-to-end metrics over a set of runs.

    python3 perfbench/steadiness.py --runs 10 --first-seed 100 --out perfbench/out/set-a.json
    python3 perfbench/steadiness.py --compare perfbench/out/set-a.json perfbench/out/set-b.json

The first form runs run.py once per seed on each workload and reports, per
metric, the median and the quartile spread (q3 - q1) / median, with
``statistics.quantiles(values, n=4)``.  The second compares the medians of
two sets against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "spread": (q3 - q1) / med}


def run_set(workloads, runs, first_seed, seconds) -> dict:
    out = {}
    for w in workloads:
        rows = []
        for seed in range(first_seed, first_seed + runs):
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", w,
                                   "--seed", str(seed), "--seconds", str(seconds),
                                   "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                                  check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["log"] = proc.stderr
            rows.append(res)
            print(w, seed, {k: round(v["value"], 4) for k, v in res["metrics"].items()},
                  file=sys.stderr)
        out[w] = rows
    return out


def report(sets: dict, bench: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w, rows in sets.items():
        shares = {r["failed"] / r["attempted"] for r in rows}
        print(f"{w}: failed share {sorted(shares)}, correct {all(r['correct'] for r in rows)}")
        for m, bound in bounds.items():
            s = summarize([r["metrics"][m]["value"] for r in rows])
            flag = "" if m == "setup_s" or s["spread"] <= bound / 3 else "  > bound/3"
            print(f"  {m:12s} median {s['median']:.4f}  spread {s['spread']:.4f}"
                  f"  bound {bound}{flag}")


def compare(a: dict, b: dict, bench: dict) -> None:
    for m in bench["end_to_end"]:
        for w in a:
            ma = summarize([r["metrics"][m["name"]]["value"] for r in a[w]])["median"]
            mb = summarize([r["metrics"][m["name"]]["value"] for r in b[w]])["median"]
            shift = (mb - ma) / ma
            flag = "  WORSE than bound" if shift > m["bound"] else ""
            print(f"{w:10s} {m['name']:12s} {ma:.4f} -> {mb:.4f}  shift {shift:+.4f}"
                  f"  bound {m['bound']}{flag}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=["norms", "radius", "precision", "chain"])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        compare(a, b, bench)
        return 0
    sets = run_set(args.workloads, args.runs, args.first_seed,
                   args.seconds or bench["run_seconds"])
    if args.out:
        Path(args.out).write_text(json.dumps(sets))
    report(sets, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
