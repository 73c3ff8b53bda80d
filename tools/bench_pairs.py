#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, summarised in BENCH_<tag>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --tag 9 \\
        --seeds 4 5 --pairs 5

For every workload `BENCHMARK.json` declares and every seed, each pair runs
`<checkout>/epibench/run.py` for the benchmark's `run_seconds` once in the
parent checkout and once in the change checkout, one process at a time;
the side that runs first alternates from pair to pair, across seeds too, so
drift in the machine's speed falls on both sides alike. The JSON result line
of each run is kept. The summary gives, per workload and side, the median
and the quartiles of every end-to-end metric `BENCHMARK.json` declares, and
per metric how many pairs the change won. A gain is `clear` when the change won
at least nine tenths of the pairs (ties count for neither side), the
medians differ, in the better direction, by more than the distance between
the parent's quartiles, and both sides passed the benchmark's correctness
check in every pair.

The file goes to the root of the repository holding this script, with both
commits (`git rev-parse HEAD` in each checkout), the Python version and a
note on the machine. A run that exits non-zero stops the script with one
line naming the workload, seed, pair, side and exit code, followed by the
tail of the run's stderr, and exit status 1; no file is written. Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
CLEAR_SHARE = 0.9   # share of pairs the change must win for a clear gain


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles (the inclusive method; all three equal for a
    single value)."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(pairs: List[dict], declared: List[dict]) -> Dict[str, dict]:
    """Per end-to-end metric: each side's quartiles, the change's wins and
    whether its gain is clear.

    `pairs` holds one {"correct": bool, "parent": {metric: value},
    "change": {...}} per pair, `correct` meaning both runs passed;
    `declared` is BENCHMARK.json's `end_to_end` list (name and `better`).
    """
    all_correct = all(pair["correct"] for pair in pairs)
    summary = {}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [pair[side][name] for pair in pairs] for side in SIDES}
        wins = sum(1 for old, new in zip(values["parent"], values["change"])
                   if (new < old if lower else new > old))
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        gain = parent["median"] - change["median"] if lower else \
            change["median"] - parent["median"]
        summary[name] = {
            "parent": parent,
            "change": change,
            "relative_change": (change["median"] - parent["median"]) / parent["median"],
            "wins": wins,
            "pairs": len(pairs),
            "clear": all_correct and wins >= CLEAR_SHARE * len(pairs)
                     and gain > parent["q3"] - parent["q1"],
        }
    return summary


STDERR_TAIL = 10   # lines of a failed run's stderr that are shown


class RunFailed(Exception):
    """A benchmark run exited non-zero; the message says which and why."""


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; its JSON result line. A run that exits
    non-zero raises RunFailed with its exit code and the tail of its
    stderr."""
    done = subprocess.run(
        [sys.executable, str(checkout / "epibench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        tail = "\n".join(done.stderr.rstrip().splitlines()[-STDERR_TAIL:])
        raise RunFailed(f"exited with code {done.returncode}" + (f"; stderr ends:\n{tail}"
                                                                if tail else ""))
    return json.loads(done.stdout.strip().splitlines()[-1])


def commit_of(checkout: Path) -> Optional[str]:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, default=ROOT, help="change checkout")
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True, help="pairs per workload and seed")
    parser.add_argument("--note", default="", help="free text on the machine")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    workloads = {}
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        pairs = []
        for seed in args.seeds:
            for index in range(args.pairs):
                order = SIDES if len(pairs) % 2 == 0 else SIDES[::-1]
                results = {}
                for side in order:
                    try:
                        results[side] = run_once(checkouts[side], workload, seed, seconds)
                    except RunFailed as failed:
                        print(f"error: {workload} seed {seed} pair {index + 1}, {side} "
                              f"run {failed}", file=sys.stderr)
                        return 1
                pairs.append({"seed": seed, "first": order[0],
                              "correct": all(r["correct"] for r in results.values()),
                              **{side: {name: entry["value"] for name, entry
                                        in results[side]["metrics"].items()}
                                 for side in SIDES}})
                print(f"{workload} seed {seed} pair {index + 1}: " + ", ".join(
                    f"{side} solve_s {pairs[-1][side]['solve_s']:.4g}" for side in SIDES),
                    file=sys.stderr)
        workloads[workload] = {"summary": summarise(pairs, declared), "pairs": pairs}
    report = {
        "commits": {side: commit_of(path) for side, path in checkouts.items()},
        "python": platform.python_version(),
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "note": args.note},
        "seconds": seconds,
        "seeds": args.seeds,
        "pairs_per_seed": args.pairs,
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
