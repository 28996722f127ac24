"""Before/after benchmark pairs: a base commit against the working tree.

    python3 tools/bench_pair.py --workload chain norms --pairs 10 --out BENCH_<n>.json

Run from the root of the repository.  The base commit (``--base``, HEAD by
default: the parent of an uncommitted change) is exported with ``git
archive`` into a temporary directory (under $TMPDIR), and the working tree
is copied next to it: the files ``git ls-files --cached --others
--exclude-standard`` lists, so new files come along and ignored ones
(``perfbench/out/``, ``__pycache__``) stay behind.  Both sides thus run from
fresh directories of the same kind, and the repository itself is not
touched.  Then, for each pair and workload, ``perfbench/run.py --workload
<w>`` runs once on each side, alternating which side goes first.  Each side
runs its own copy of ``perfbench/`` on its own ``src/``.

The JSON record holds, for every workload, the end-to-end metrics of each
run, each side's median and quartiles, and how many pairs the working tree
won on each metric.  It also holds the accuracy outputs a speed-up must not
move: every subcommand is run at its default config on both sides, with
``track`` also at each dt of the refinement ladder, and each side's exit
code is kept next to its message.  For each result file that either side
wrote, the record says whether it is byte-identical (a file on one side
only is not); for ``track.csv`` it gives the largest change of each column
relative to that column's maximum.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("verify_s", "setup_s", "peak_rss_mb")
LADDER = (1e-3, 5e-4, 2.5e-4, 2e-4, 1e-4)


def export(rev: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def snapshot(dest: Path) -> Path:
    """Copy the working tree's tracked and untracked files, not the ignored ones."""
    names = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], stdout=subprocess.PIPE, check=True).stdout
    for name in filter(None, names.split(b"\0")):
        src = ROOT / os.fsdecode(name)
        if src.is_file():  # a tracked file deleted in the working tree is left out
            (dest / src.relative_to(ROOT)).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / src.relative_to(ROOT))
    return dest


def bench(tree: Path, workload: str) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload],
                          cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            **{m: res["metrics"][m]["value"] for m in METRICS}}


def cli(tree: Path, args: list, out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "heatflat.cli", *args, "--out", str(out)],
                          env=env, stdout=subprocess.PIPE, text=True)
    return {"exit": proc.returncode, "message": proc.stdout.strip()}


def files_identical(a: Path, b: Path) -> dict:
    """{name: byte-identical} for every file in a or b; a file on one side only is not, and a
    directory that does not exist (a run stopped before it wrote any) holds no files."""
    names = set().union(*(os.listdir(d) for d in (a, b) if d.is_dir()))
    return {f: (a / f).is_file() and (b / f).is_file() and filecmp.cmp(a / f, b / f, shallow=False)
            for f in sorted(names)}


def read_columns(path: Path) -> dict:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return {name: [r[i] for r in rows[1:]] for i, name in enumerate(rows[0])}


def track_csv_change(a: Path, b: Path) -> dict:
    """Largest change of each track.csv column over that column's max |value|
    (0.0 when the column is byte-identical)."""
    ca, cb = read_columns(a), read_columns(b)
    out = {}
    for name in ca:
        if ca[name] == cb[name]:
            out[name] = 0.0
            continue
        va = [float(v) for v in ca[name]]
        vb = [float(v) for v in cb[name]]
        scale = max(abs(v) for v in va) or 1.0
        out[name] = max(abs(x - y) for x, y in zip(va, vb)) / scale
    return out


def accuracy(trees: dict, work: Path) -> dict:
    names = json.loads(subprocess.run(
        [sys.executable, "-c", "import json; from heatflat.cli import SUBCOMMANDS; "
                               "print(json.dumps(list(SUBCOMMANDS)))"],
        env=dict(os.environ, PYTHONPATH=str(trees["change"] / "src")),
        stdout=subprocess.PIPE, text=True, check=True).stdout)
    work.mkdir(parents=True)
    record = {"messages": {}, "files_identical": {}, "track_csv_change": {}}
    runs = [(name, [name]) for name in names]
    for dt in LADDER:
        cfg = work / f"track_dt{dt:g}.json"
        cfg.write_text(json.dumps({"schema": 1, "dt": dt}))
        runs.append((f"track dt={dt:g}", ["track", "--config", str(cfg)]))
    for label, args in runs:
        outs = {side: work / side / label.replace(" ", "_") for side in trees}
        record["messages"][label] = {side: cli(tree, args, outs[side])
                                     for side, tree in trees.items()}
        for f, same in files_identical(outs["parent"], outs["change"]).items():
            record["files_identical"][f"{label}: {f}"] = same
            a, b = outs["parent"] / f, outs["change"] / f
            if f == "track.csv" and a.is_file() and b.is_file():
                record["track_csv_change"][label] = track_csv_change(a, b)
    return record


def summarize(pairs: list) -> dict:
    out = {}
    for m in METRICS:
        sides = {}
        for side in ("parent", "change"):
            vals = [p[side][m] for p in pairs]
            q1, q2, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            sides[side] = {"median": statistics.median(vals), "q1": q1, "q3": q3}
        wins = sum(p["change"][m] < p["parent"][m] for p in pairs)
        sides["change_wins"] = f"{wins}/{len(pairs)}"
        out[m] = sides
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", nargs="+", default=["chain"],
                    choices=("norms", "radius", "precision", "chain"))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--base", default="HEAD", help="the commit to compare against")
    ap.add_argument("--out", required=True, help="JSON record to write")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        trees = {"parent": export(args.base, work / "base"), "change": snapshot(work / "change")}
        record = {"base": subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.base],
                                         stdout=subprocess.PIPE, text=True,
                                         check=True).stdout.strip(),
                  "command": "python3 perfbench/run.py --workload <w>",
                  "accuracy": accuracy(trees, work / "cli"), "workloads": {}}
        pairs = {w: [] for w in args.workload}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for w in args.workload:
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = bench(trees[side], w)
                pairs[w].append(pair)
                print(f"pair {i + 1}/{args.pairs} {w}: verify_s parent "
                      f"{pair['parent']['verify_s']:.3f} change {pair['change']['verify_s']:.3f}",
                      file=sys.stderr)
        for w, ps in pairs.items():
            record["workloads"][w] = {"summary": summarize(ps), "pairs": ps}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
