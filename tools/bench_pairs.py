"""Benchmark two checkouts in alternating pairs and write one BENCH file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --pairs N \
        [--workload W ...] [--first-seed S] --out BENCH_<n>.json

Pair i runs `python3 perfbench/run.py --workload W --seed S+i --seconds T
--trace 0` once in each checkout, T being BENCHMARK.json's run_seconds, the
parent first on even i and the change first on odd i.  The file holds every
run and, per workload and side, the median and quartiles of setup_s, pass_s
and peak_rss_mb, with the number of pairs the change won on each.  After the
pairs the tier-1 suite runs once in each checkout, parent first, and the file
records its passed and failed counts, wall time and five slowest tests.  Each
side is recorded by its HEAD commit and the git tree hash of its working files
(tracked and untracked, .gitignore applied), so every workload of one file
is known to have measured the same two trees, and by the line count of its
`src/sidonkit/*.py` (`src_lines`, as `cat src/sidonkit/*.py | wc -l` counts).
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

METRICS = ("setup_s", "pass_s", "peak_rss_mb")


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if not done.stdout.strip():
        sys.exit(f"{checkout}: {' '.join(cmd)} printed no result\n{done.stderr}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    return {"correct": line["correct"], "attempted": line["attempted"], "failed": line["failed"],
            **{m: line["metrics"][m]["value"] for m in METRICS}}


def tier1(checkout: Path) -> dict:
    """One run of the tier-1 suite with the checkout's own sources."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(checkout / "src"), os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider", "--durations=5"]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.monotonic() - start
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    counts = {key: int(m.group(1)) if (m := re.search(rf"(\d+) {key}", summary)) else 0
              for key in ("passed", "failed")}
    slowest = [{"test": name, "phase": phase, "s": float(s)} for s, phase, name in
               re.findall(r"^([\d.]+)s (setup|call|teardown)\s+(\S+)$", done.stdout, re.M)]
    return {**counts, "exit_code": done.returncode, "wall_s": round(wall, 2), "slowest": slowest}


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def checkout_id(checkout: Path) -> dict:
    """HEAD, the tree hash of the working files (from a throwaway index) and
    the line count of the sources."""
    git = ["git", "-C", str(checkout)]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        subprocess.run(git + ["add", "-A"], env=env, check=True)
        tree = subprocess.run(git + ["write-tree"], env=env, check=True, capture_output=True,
                              text=True).stdout.strip()
    base = subprocess.run(git + ["rev-parse", "HEAD^{tree}"], capture_output=True, text=True)
    lines = sum(path.read_bytes().count(b"\n")
                for path in (checkout / "src" / "sidonkit").glob("*.py"))
    return {"commit": head.stdout.strip() or None, "tree": tree,
            "modified": tree != base.stdout.strip(), "src_lines": lines}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--workload", action="append", choices=("pipeline", "exact", "counting"))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    seconds = json.loads((args.change / "BENCHMARK.json").read_text())["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    record = {side: checkout_id(path) for side, path in sides.items()}
    record["machine"] = {"cpus": os.cpu_count(), "python": platform.python_version(),
                         "numpy": np.__version__, "seconds": seconds}
    record["workloads"] = {}
    for workload in args.workload or ("pipeline", "exact", "counting"):
        runs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(sides[side], workload, seed, seconds)
                print(workload, seed, side, pair[side], file=sys.stderr, flush=True)
            runs.append(pair)
        record["workloads"][workload] = {
            "runs": runs,
            **{side: {m: spread([r[side][m] for r in runs]) for m in METRICS} for side in sides},
            "change_wins": {m: sum(r["change"][m] < r["parent"][m] for r in runs)
                            for m in METRICS},
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    record["tier1"] = {}
    for side in ("parent", "change"):
        record["tier1"][side] = tier1(sides[side])
        print("tier1", side, record["tier1"][side], file=sys.stderr, flush=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
