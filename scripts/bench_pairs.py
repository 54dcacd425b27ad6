"""Paired benchmark runs of two checkouts, summarised in one JSON file.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload replicated-shallow --seeds 31-40,20261017 --seconds 20 \\
        --out BENCH.json

For each seed, runs `perfbench/run.py --trace 0` once in each checkout,
alternating which side runs first, and keeps the end-to-end metrics of the
last output line, and the run's user and system CPU seconds and minor page
faults (the getrusage of its process tree), which no end-to-end metric
shows.  The file at --out is rewritten after every pair, and runs
of other workloads already in it are kept, so one file can gather several
workloads run one after another.  Each workload gets, per metric, the median
and quartiles of both sides, the change of the median relative to the
parent's, and the number of pairs the change won (ties count for neither).
It also gets the acceptance rule, from the metric's `better` and `bound` in
BENCHMARK.json, which this script only reads:
- `within_bound`: the change's median is worse than the parent's by no more
  than `bound`, as a fraction of the parent's median
- `claim_rule_met`: the change won at least 0.9 of the pairs, and the gap
  between the medians, in the better direction, exceeds the parent's IQR
- `unresolved`: the parent's IQR, as a fraction of its median, is wider than
  `bound`, and not every run of the change reads better than every run of
  the parent; such a metric is reported as unresolved, not as unchanged
After each pair it prints a progress line: the workload, the seed, and each
side's end-to-end metrics as JSON, in the order the sides ran.
A run that prints no result line stops the script with its side, seed, exit
code and last stderr lines; the pairs written before it stay in --out.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
STDERR_LINES = 10  # of a run that printed no result, shown when this script stops


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def _run(checkout: Path, side: str, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        stderr = "\n".join(proc.stderr.strip().splitlines()[-STDERR_LINES:])
        raise SystemExit(f"{side} run of {workload} at seed {seed} printed no result line "
                         f"(exit code {proc.returncode}); last stderr lines:\n{stderr}")
    last = json.loads(lines[-1])
    # children waited for, so the run and every process it waited for
    rusage = {"user_s": after.ru_utime - before.ru_utime, "sys_s": after.ru_stime - before.ru_stime,
              "minor_faults": after.ru_minflt - before.ru_minflt}
    return {"failed": last["failed"], "attempted": last["attempted"], "correct": last["correct"],
            "rusage": rusage, **{name: m["value"] for name, m in last["metrics"].items()}}


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


CLAIM_WIN_SHARE = 0.9  # of the pairs a claimed gain must win


def summarise(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per metric, both sides' spread and the acceptance rule; `metrics` maps
    each name to its BENCHMARK.json entry."""
    out = {}
    for name, metric in metrics.items():
        direction = metric["better"]
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        par, chg = _spread(parent), _spread(change)
        change_frac = chg["median"] / par["median"] - 1.0
        gap_exceeds_iqr = sign * (chg["median"] - par["median"]) > par["iqr"]
        every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
        out[name] = {
            "better": direction,
            "bound": metric["bound"],
            "parent": par,
            "change": chg,
            "median_change_frac": change_frac,
            "change_wins": wins,
            "pairs": len(pairs),
            "gap_exceeds_parent_iqr": gap_exceeds_iqr,
            "within_bound": -sign * change_frac <= metric["bound"],
            "claim_rule_met": wins >= CLAIM_WIN_SHARE * len(pairs) and gap_exceeds_iqr,
            "unresolved": par["iqr"] / par["median"] > metric["bound"] and not every_run_better,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--parent-label", default="parent", help="e.g. the parent's commit id")
    parser.add_argument("--change-label", default="change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 31-40,20261017")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    metrics = {m["name"]: m for m in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.update({
        "parent": args.parent_label,
        "change": args.change_label,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "seconds": args.seconds,
    })
    workloads = doc.setdefault("workloads", {})
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            pair[side] = _run(checkout, side, args.workload, seed, args.seconds)
        pairs.append(pair)
        workloads[args.workload] = {"pairs": pairs, "summary": summarise(pairs, metrics) if len(pairs) > 1 else {}}
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        shown = {side: {name: pair[side][name] for name in metrics} for side in order}
        print(args.workload, seed, json.dumps(shown), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
