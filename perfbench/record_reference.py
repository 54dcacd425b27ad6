"""Record perfbench/reference.json, the oracle of the correctness gate.

    PYTHONPATH=src python3 perfbench/record_reference.py

For every workload, full and smoke, it records the exact analytic values and
analytic CSV cells, each simulated mean with its per-trial standard deviation
(from many trials at workloads.STATS_SEED), verify-bounds' check list and
SKIPPED count, and the byte digest of one pass at workloads.REFERENCE_SEED.
Re-record only when the program's results are meant to change, such as a
declared sampler-version bump or a new analytic formula, and say so in
CHANGES.md.  The full set takes a few minutes on two cores.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import pathlib
import tempfile

import numpy as np

import child
import gate
import workloads
from cachematch.config import load_config
from cachematch.montecarlo import ExperimentSpec, collect_trials, run_experiment

MIN_REFERENCE_TRIALS = 400


def reference_trials(trials: int) -> int:
    return max(MIN_REFERENCE_TRIALS, 10 * trials)


def _experiments(workload, configs) -> dict:
    entries, probe = [], []
    for exp in workload.experiments:
        config = configs[exp.config]
        n = reference_trials(exp.trials)
        report = run_experiment(ExperimentSpec(config, exp.scheme, n, workloads.STATS_SEED))
        entries.append({
            "scheme": exp.scheme,
            "trials": exp.trials,
            "analytic_rate": repr(report.analytic_rate),
            "mean": report.mean_rate,
            "sd": report.stderr * math.sqrt(n),
            "n": n,
            "bound_required": exp.scheme != workloads.PAM_STEEP,
        })
        spec = ExperimentSpec(config, exp.scheme, exp.trials, workloads.REFERENCE_SEED)
        probe.append(run_experiment(spec).to_json(config).encode("utf-8"))
    return {"experiments": entries, "probe_sha256": gate.digest(probe)}


def _row_config(base, param: str, cell: str):
    value = float(cell)
    if param == "d":
        return dataclasses.replace(base, d=int(round(value)))
    return dataclasses.replace(base, **{"M" if param == "M" else "beta": value})


def _curve(blob: bytes, command, configs) -> dict:
    lines = blob.decode("utf-8").splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    argv = list(command.argv)
    base = configs[argv[1].strip("{}")]
    param = argv[argv.index("--param") + 1]
    trials = int(argv[argv.index("--trials") + 1])
    n = reference_trials(trials)
    sim = {}
    for col, name in enumerate(header):
        if not name.startswith("sim_"):
            continue
        present = [r for r, row in enumerate(rows) if row[col] != ""]
        per_trial = np.zeros(n)
        for r in present:
            config = _row_config(base, param, rows[r][0])
            scheme = {"sim_pcd": workloads.PCD, "sim_hcm": workloads.HCM}.get(
                name, workloads.PAM_SHALLOW if config.beta < 1 else workloads.PAM_STEEP)
            # the CLI simulates every row at one seed, so rows share trial draws
            per_trial += collect_trials(ExperimentSpec(config, scheme, n, workloads.STATS_SEED))[:, 0]
        sim[name] = {"rows": present, "mean": float(per_trial.mean()),
                     "sd": float(per_trial.std(ddof=1)), "n": n}
    analytic = [i for i, h in enumerate(header) if not h.startswith("sim_")]
    return {"kind": "curve", "header": header, "trials": trials,
            "analytic": [[row[i] for i in analytic] for row in rows], "sim": sim}


def _sweep(workload, paths, configs, out: pathlib.Path) -> dict:
    codes = child.run_commands(workload, paths, workloads.REFERENCE_SEED, 1, out)
    if any(codes):
        raise SystemExit(f"{workload.name}: exit codes {codes} at the reference seed")
    outputs, blobs = {}, []
    for command in workload.commands:
        blob = (out / command.output).read_bytes()
        blobs.append(blob)
        if command.argv[0] == "verify-bounds":
            data = json.loads(blob)
            outputs[command.output] = {"kind": "verify", "checks": [c["name"] for c in data["checks"]],
                                       "max_skipped": data["skipped"]}
        elif "--trials" in command.argv:
            outputs[command.output] = _curve(blob, command, configs)
        else:
            outputs[command.output] = {"kind": "digest", "sha256": hashlib.sha256(blob).hexdigest()}
    return {"outputs": outputs, "probe_sha256": gate.digest(blobs)}


def main() -> None:
    reference = {}
    with tempfile.TemporaryDirectory(dir=pathlib.Path.cwd()) as tmp:
        tmp = pathlib.Path(tmp)
        for kind, table in (("full", workloads.FULL), ("smoke", workloads.SMOKE)):
            reference[kind] = {}
            for name, workload in table.items():
                paths = workloads.write_inputs(workload, tmp / "inputs")
                configs = {label: load_config(path) for label, path in paths.items()}
                if workload.experiments:
                    reference[kind][name] = _experiments(workload, configs)
                else:
                    out = tmp / kind / name
                    out.mkdir(parents=True)
                    reference[kind][name] = _sweep(workload, paths, configs, out)
                print(f"recorded {kind} {name}", flush=True)
    gate.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
