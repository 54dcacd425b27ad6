"""Run one workload in this fresh process and write its result as JSON.

Untraced (--trace 0): measured passes until --seconds have gone, each with
its own seed from --seed, every output checked by the gate.

Traced (--trace 1): pairs of an untraced and a traced pass at one seed, whose
outputs must be byte-identical; one pass at two workers, which must match the
serial one; and one untraced pass at the reference seed, compared with the
recorded digests.  The traced passes are serial, because spans recorded in
pool workers would be lost.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import pathlib
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter

import gate
import spans
import workloads
from yardstick import SteadyClock
from cachematch import cli, montecarlo
from cachematch.config import load_config
from cachematch.montecarlo import ExperimentSpec, run_experiment


@dataclass
class Pass:
    wall: float  # reference-speed seconds, see yardstick.py
    raw_wall: float
    outputs: list[bytes]
    experiments: list[tuple[str, int, float]]  # (scheme, trials, reference-speed seconds)
    problems: list[str]
    attempted: int
    failed: int  # experiments or commands with at least one problem
    pools: int = 0


@dataclass
class Hooks:
    intervals: list = field(default_factory=list)  # (scheme, trials, start, end)
    pools: int = 0


@contextlib.contextmanager
def patched(module, attr, value):
    original = getattr(module, attr)
    setattr(module, attr, value)
    try:
        yield original
    finally:
        setattr(module, attr, original)


@contextlib.contextmanager
def hooks_installed(clock: SteadyClock):
    """Time each cli.run_experiment call, with the yardstick run between
    calls, and count the process pools started."""
    hooks = Hooks()
    original_run = cli.run_experiment

    def timed_run(spec, workers=1):
        clock.tick()
        start = perf_counter()
        report = original_run(spec, workers=workers)
        hooks.intervals.append((spec.scheme, spec.trials, start, perf_counter()))
        return report

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            hooks.pools += 1
            super().__init__(*args, **kwargs)

    with patched(cli, "run_experiment", timed_run), patched(montecarlo, "ProcessPoolExecutor", CountingPool):
        yield hooks


def run_commands(workload, paths, seed, workers, out, before_each=lambda: None) -> list[int]:
    """The workload's CLI commands, in order; their exit codes."""
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        for command in workload.commands:
            before_each()
            codes.append(cli.main(workloads.command_argv(command, paths, seed, workers, out)))
    return codes


class Runner:
    def __init__(self, workload, paths, out_dir, ref):
        self.workload = workload
        self.paths = paths
        self.configs = {label: load_config(path) for label, path in paths.items()}
        self.out_dir = out_dir
        self.ref = ref
        self.clock = SteadyClock()

    def run_pass(self, seed, workers, tracer=None) -> Pass:
        with hooks_installed(self.clock) as hooks:
            self.clock.tick()
            start = perf_counter()
            if self.workload.experiments:
                outputs, problems, failed = self._experiments(seed, workers, tracer, hooks)
            else:
                outputs, problems, failed = self._commands(seed, workers)
            end = perf_counter()
        self.clock.tick(force=True)
        steady = self.clock.steady_seconds
        return Pass(steady(start, end), end - start, outputs,
                    [(s, t, steady(a, b)) for s, t, a, b in hooks.intervals],
                    problems, len(outputs), failed, hooks.pools)

    def _experiments(self, seed, workers, tracer, hooks):
        outputs, problems, failed = [], [], 0
        for exp, ref in zip(self.workload.experiments, self.ref["experiments"]):
            config = self.configs[exp.config]
            spec = ExperimentSpec(config=config, scheme=exp.scheme, trials=exp.trials, seed=seed)
            self.clock.tick()
            start = perf_counter()
            with tracer.span("montecarlo.run_experiment") if tracer else contextlib.nullcontext():
                report = run_experiment(spec, workers=workers)
            hooks.intervals.append((exp.scheme, exp.trials, start, perf_counter()))
            outputs.append(report.to_json(config).encode("utf-8"))
            found = gate.check_report(report, ref)
            failed += bool(found)
            problems += [f"{exp.scheme} seed {seed}: {p}" for p in found]
        return outputs, problems, failed

    def _commands(self, seed, workers):
        out = self.out_dir / "outputs"
        out.mkdir(parents=True, exist_ok=True)
        codes = run_commands(self.workload, self.paths, seed, workers, out, self.clock.tick)
        outputs, problems, failed = [], [], 0
        for command, code in zip(self.workload.commands, codes):
            blob = (out / command.output).read_bytes()
            outputs.append(blob)
            found = [] if code == 0 else [f"exit code {code}"]
            found += gate.check_output(blob, self.ref["outputs"][command.output])
            failed += bool(found)
            problems += [f"{command.output} seed {seed}: {p}" for p in found]
        return outputs, problems, failed


def _throughputs(passes: list[Pass]) -> dict[str, float]:
    """Median over passes of trials per second, per scheme and pooled."""
    groups = {s: (s,) for s in ("pcd", "hcm", "pam-shallow", "pam-steep")}
    groups["other"] = ("hcm", "pam-shallow", "pam-steep")
    result = {}
    for name, schemes in groups.items():
        rates = []
        for p in passes:
            trials = sum(t for s, t, _ in p.experiments if s in schemes)
            seconds = sum(d for s, _, d in p.experiments if s in schemes)
            if trials:
                rates.append(trials / seconds)
        if rates:
            result[name] = statistics.median(rates)
    return result


def measure(runner: Runner, seed: int, seconds: float) -> dict:
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(runner.run_pass(workloads.pass_seed(seed, len(passes)), runner.workload.workers))
    rates = _throughputs(passes)
    metrics = {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "trials_per_s.pcd": (rates["pcd"], "1/s"),
        "trials_per_s.other": (rates["other"], "1/s"),
    }
    info = {f"trials_per_s.{k}": v for k, v in rates.items()}
    info.update(passes=len(passes), raw_wall_s=statistics.median(p.raw_wall for p in passes),
                yardstick_s=statistics.median(runner.clock.yardstick_s()))
    return _result(passes, 0, [], metrics, info)


def measure_traced(runner: Runner, seed: int, seconds: float, out_dir: pathlib.Path) -> dict:
    tracer = spans.Tracer()
    untraced, traced, mismatches = [], [], []
    start = perf_counter()
    while not traced or (runner.workload.experiments and perf_counter() - start < seconds):
        s = workloads.pass_seed(seed, len(traced))
        untraced.append(runner.run_pass(s, 1))
        with tracer.installed():
            traced.append(runner.run_pass(s, 1, tracer))
        if traced[-1].outputs != untraced[-1].outputs:
            mismatches.append(f"seed {s}: traced outputs differ from untraced outputs")

    parallel = runner.run_pass(workloads.pass_seed(seed, 0), 2)
    if parallel.outputs != untraced[0].outputs:
        mismatches.append("outputs at two workers differ from the serial outputs")
    probe = runner.run_pass(workloads.REFERENCE_SEED, 1)
    identical = gate.digest(probe.outputs) == runner.ref["probe_sha256"]

    serial_s = sum(d for _, _, d in untraced[0].experiments)
    parallel_s = sum(d for _, _, d in parallel.experiments)
    metrics = spans.layer_metrics(tracer, len(traced))
    metrics.update({
        "montecarlo.pool_starts": (float(parallel.pools), "count"),
        "montecarlo.fanout_overhead_s": (parallel_s - serial_s / 2, "s"),
        "montecarlo.w2_speedup": (serial_s / parallel_s, "ratio"),
        "montecarlo.reports_identical": (float(identical), "count"),
        "bench.trace_overhead_frac": (
            statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in untraced) - 1,
            "fraction"),
    })
    tracer.write_csv(out_dir / "spans.csv")
    info = {"traced_passes": len(traced), "spans": len(tracer.spans),
            "spans_file": str(out_dir / "spans.csv")}
    return _result(untraced + traced + [parallel, probe], len(traced) + 1, mismatches, metrics, info)


def _result(passes, compared, mismatches, metrics, info) -> dict:
    """Gate outcome over the passes and the byte comparisons between them."""
    problems = mismatches + [p for ps in passes for p in ps.problems]
    return {
        "attempted": sum(p.attempted for p in passes) + compared,
        "failed": sum(p.failed for p in passes) + len(mismatches),
        "problems": problems[:20],
        "metrics": {k: [v, unit] for k, (v, unit) in metrics.items()},
        "info": info,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--inputs", required=True, help="directory run.py wrote the workload's configs to")
    parser.add_argument("--out", required=True, help="directory for outputs and result.json")
    args = parser.parse_args(argv)

    workload = workloads.get(args.workload, args.smoke)
    out_dir = pathlib.Path(args.out)
    paths = {label: workloads.input_path(workload, args.inputs, label) for label in workload.configs}
    runner = Runner(workload, paths, out_dir, gate.reference_for(workload.name, args.smoke))
    problems = workloads.guard_problems(workload, runner.configs)
    if problems:
        print("workload guard failed: " + "; ".join(problems), file=sys.stderr)
        return 3
    if args.trace:
        result = measure_traced(runner, args.seed, args.seconds, out_dir)
    else:
        result = measure(runner, args.seed, args.seconds)
    (out_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
