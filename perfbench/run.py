"""cachematch benchmark: one measurement of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the repository root; it imports the program from src/.  It
writes only under .bench_out/ there.  Set-up is timed in several fresh
interpreters (perfbench/setup_probe.py); the workload itself runs in one
fresh child process (perfbench/child.py), whose peak memory is read with
os.wait4 when it ends.  With --trace 0 the result holds the end-to-end
metrics, with --trace 1 the per-layer ones.  The last line of standard output
is the result as one JSON object; the lines before it say the same for a
reader, with the run's provenance and any failed check.

--smoke runs the same harness on tiny configs in a few seconds; it exists to
keep the harness working and measures nothing worth comparing.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import workloads
from yardstick import SPAWN, SteadyClock

HERE = pathlib.Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30
END_TO_END = ("wall_s", "setup_s", "trials_per_s.pcd", "trials_per_s.other", "peak_rss_mb")


class BenchError(Exception):
    pass


def provenance(root: pathlib.Path) -> dict:
    """Commit and dirty flag when the checkout is a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))

    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=root, env=env, capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "commit": commit or "unknown",
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
    }


def setup_probes(args, inputs: pathlib.Path, env: dict, count: int) -> tuple[list[float], list[float], list[dict]]:
    """Set-up in `count` fresh interpreters, one after another, each timed
    against the spawn yardstick; reference-speed and raw seconds, and their reports."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", args.workload,
           "--inputs", str(inputs)] + (["--smoke"] if args.smoke else [])
    clock = SteadyClock(SPAWN)
    intervals, reports = [], []
    for _ in range(count):
        clock.tick(force=True)
        start = perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        intervals.append((start, perf_counter()))
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        reports.append(json.loads(proc.stdout.splitlines()[-1]))
    clock.tick(force=True)
    return [clock.steady_seconds(a, b) for a, b in intervals], [b - a for a, b in intervals], reports


def run_child(args, inputs: pathlib.Path, out_dir: pathlib.Path, env: dict) -> tuple[dict, float]:
    """The workload in one fresh process; its result and its peak RSS in MB."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--inputs", str(inputs), "--out", str(out_dir)] + (["--smoke"] if args.smoke else [])
    # its own process group, so a timeout also ends the pool workers it started
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr.fileno(), start_new_session=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    result = json.loads((out_dir / "result.json").read_text(encoding="utf-8"))
    return result, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the workload is measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny configs, to check the harness")
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    if not (root / "src" / "cachematch" / "__init__.py").is_file():
        print("error: src/cachematch not found; run from the repository root", file=sys.stderr)
        return 2
    try:
        workload = workloads.get(args.workload, args.smoke)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    out_dir = root / ".bench_out" / (workload.name + ("-smoke" if args.smoke else ""))
    shutil.rmtree(out_dir, ignore_errors=True)
    inputs = out_dir / "inputs"
    workloads.write_inputs(workload, inputs)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))

    try:
        setup_s, raw_setup_s, probes = setup_probes(args, inputs, env, 3 if args.smoke else 7)
        result, peak_rss_mb = run_child(args, inputs, out_dir, env)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    if args.trace:
        metrics["cli.import_s"] = {"value": statistics.median(p["import_s"] for p in probes), "unit": "s"}
    else:
        metrics["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        metrics = {name: metrics[name] for name in END_TO_END}

    info = dict(provenance(root), numpy=probes[0]["numpy"], workload=workload.name, seed=args.seed,
                smoke=args.smoke, raw_setup_s=statistics.median(raw_setup_s), **result["info"])
    failed, attempted = result["failed"], result["attempted"]
    print("provenance " + json.dumps(info, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':<44} {failed / attempted:.6g} ({failed} of {attempted} failed the gate)")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
