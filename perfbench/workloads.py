"""The benchmark's fixed workloads, their start-up guards and their seeds.

Every config is a copy held here, so later edits to configs/ or scripts/
cannot change what a workload measures.  Each full workload has a smoke
twin of the same shape at tiny size, used only to keep the harness working.
"""

from __future__ import annotations

from dataclasses import dataclass

# Seed of the recorded byte digests (information only, see gate.py).
REFERENCE_SEED = 0
# Seed of the recorded means and standard deviations the gate tests against.
STATS_SEED = 7_654_321
# Seed kept out of development, for re-checking a claim on fresh inputs.
HELD_OUT_SEED = 20_261_017

PCD, PAM_SHALLOW, PAM_STEEP, HCM = "pcd", "pam-shallow", "pam-steep", "hcm"


def cfg(k, d, n, m, rho, beta, t0) -> dict:
    return {"k": k, "d": d, "n": n, "m": m, "rho": rho, "beta": beta, "t0": t0}


# copies of configs/default.json and configs/steep.json
SHIPPED_SHALLOW = cfg(600, 60, 600, 2.0, 0.1, 0.0, 1.0)
SHIPPED_STEEP = cfg(256, 16, 256, 4.0, 0.1, 2.0, 0.1)


@dataclass(frozen=True)
class Experiment:
    config: str  # label into Workload.configs
    scheme: str
    trials: int


@dataclass(frozen=True)
class Command:
    """One cachematch CLI call.  Placeholders: {<config label>}, {seed},
    {workers}, {out}; `output` is the file it writes under {out}."""

    argv: tuple[str, ...]
    output: str


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict[str, dict]
    # set-up: (config label, scheme) pairs whose catalog and placement or
    # plan a fresh interpreter builds
    setup: tuple[tuple[str, str], ...]
    experiments: tuple[Experiment, ...] = ()
    commands: tuple[Command, ...] = ()
    workers: int = 1
    guards: tuple[str, ...] = ()  # names in GUARDS


def _sweep(m_shallow, m_steep, beta_sweep, trials, resolution, verify_trials) -> tuple[Command, ...]:
    """The command list of scripts/make_figure_data.py, then verify-bounds."""

    def curve(config, param, span, out, with_trials):
        argv = ["rate-curve", "{%s}" % config, "--param", param,
                "--start", span[0], "--stop", span[1], "--step", span[2]]
        if with_trials:
            argv += ["--trials", str(trials), "--seed", "{seed}", "--workers", "{workers}"]
        return Command(tuple(argv + ["--out", "{out}/" + out]), out)

    def regimes(beta, out):
        return Command(("regime-map", "--beta", beta, "--nu", "1.0", "--resolution",
                        str(resolution), "--out", "{out}/" + out), out)

    def verify(config, out):
        return Command(("verify-bounds", "{%s}" % config, "--seed", "{seed}", "--trials",
                        str(verify_trials), "--out", "{out}/" + out), out)

    return (
        curve("shallow", "M", m_shallow, "rates_shallow_vs_memory.csv", True),
        curve("steep", "M", m_steep, "rates_steep_vs_memory.csv", True),
        curve("shallow", "beta", beta_sweep, "rates_vs_beta.csv", False),
        regimes("0.5", "regimes_shallow.csv"),
        regimes("2.0", "regimes_steep.csv"),
        verify("shallow", "verify_shallow.json"),
        verify("steep", "verify_steep.json"),
    )


def _experiments_workload(name, config, experiments, guards) -> Workload:
    exps = tuple(Experiment("main", s, t) for s, t in experiments)
    return Workload(name, {"main": config}, tuple(("main", e.scheme) for e in exps),
                    experiments=exps, guards=guards)


def _figure_sweep(commands) -> Workload:
    setup = (("shallow", PCD), ("shallow", HCM), ("steep", PCD), ("steep", PAM_STEEP))
    return Workload("figure-sweep", {"shallow": SHIPPED_SHALLOW, "steep": SHIPPED_STEEP},
                    setup, commands=commands, workers=2, guards=("cluster_floor",))


FULL = {
    w.name: w
    for w in (
        _figure_sweep(_sweep(("1", "60", "1"), ("0.5", "16", "0.5"), ("0", "0.9", "0.05"),
                             trials=50, resolution=50, verify_trials=400)),
        _experiments_workload("dense-shallow", cfg(6000, 60, 6000, 16.0, 0.05, 0.0, 0.2),
                              ((PCD, 8), (HCM, 8)), ("cluster_floor", "hcm_chi")),
        _experiments_workload("replicated-shallow", cfg(1200, 120, 1200, 16.0, 0.2, 0.0, 1.0),
                              ((PAM_SHALLOW, 100), (PCD, 500)),
                              ("cluster_floor", "pam_shallow_memory")),
        _experiments_workload("steep-mlp", cfg(4096, 64, 4096, 4.0, 0.1, 2.0, 0.1),
                              ((PAM_STEEP, 4), (PCD, 20)), ("cluster_floor",)),
    )
}

SMOKE = {
    w.name: w
    for w in (
        _figure_sweep(_sweep(("8", "12", "2"), ("1", "3", "1"), ("0", "0.2", "0.1"),
                             trials=4, resolution=4, verify_trials=20)),
        _experiments_workload("dense-shallow", cfg(600, 60, 600, 16.0, 0.05, 0.0, 0.2),
                              ((PCD, 3), (HCM, 3)), ("cluster_floor", "hcm_chi")),
        _experiments_workload("replicated-shallow", cfg(240, 120, 240, 3.0, 0.2, 0.0, 1.0),
                              ((PAM_SHALLOW, 5), (PCD, 5)), ("cluster_floor", "pam_shallow_memory")),
        _experiments_workload("steep-mlp", cfg(256, 64, 256, 4.0, 0.1, 2.0, 0.1),
                              ((PAM_STEEP, 3), (PCD, 3)), ("cluster_floor",)),
    )
}


def get(name: str, smoke: bool) -> Workload:
    table = SMOKE if smoke else FULL
    if name not in table:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(table)}")
    return table[name]


def pass_seed(seed: int, index: int) -> int:
    """Seed of the index-th measured pass of a run started with --seed."""
    return seed * 1000 + index


def input_path(workload: Workload, directory, label: str) -> str:
    return f"{directory}/{workload.name}.{label}.json"


def write_inputs(workload: Workload, directory) -> dict[str, str]:
    """Write each config as the JSON file the program reads; label -> path."""
    import json
    import os

    os.makedirs(directory, exist_ok=True)
    paths = {}
    for label, raw in workload.configs.items():
        paths[label] = input_path(workload, directory, label)
        with open(paths[label], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(raw, indent=2) + "\n")
    return paths


def command_argv(command: Command, paths: dict[str, str], seed: int, workers: int, out) -> list[str]:
    values = dict(paths, seed=str(seed), workers=str(workers), out=str(out))
    return [arg.format(**values) for arg in command.argv]


# --- start-up guards: no workload may silently degenerate into another ------


def _guard_cluster_floor(configs) -> list[str]:
    return [f"{label}: d = {c.d} below the cluster floor {c.cluster_floor:.4g}"
            for label, c in configs.items() if not c.meets_cluster_floor]


def _guard_hcm_chi(configs) -> list[str]:
    from cachematch.hcm import compute_chi

    return [f"{label}: hcm chi = {chi} < 2, so hcm would equal pcd"
            for label, c in configs.items() if (chi := compute_chi(c, c.t0)) < 2]


def _guard_pam_shallow_memory(configs) -> list[str]:
    from cachematch.pam_shallow import memory_threshold

    return [f"{label}: M = {c.M} below the replication threshold {memory_threshold(c):.4g}"
            for label, c in configs.items() if c.M < memory_threshold(c)]


GUARDS = {
    "cluster_floor": _guard_cluster_floor,
    "hcm_chi": _guard_hcm_chi,
    "pam_shallow_memory": _guard_pam_shallow_memory,
}


def guard_problems(workload: Workload, configs) -> list[str]:
    """Validate every config (raises on a hard invariant) and run the guards."""
    from cachematch.config import validate

    for c in configs.values():
        validate(c)
    return [p for g in workload.guards for p in GUARDS[g](configs)]
