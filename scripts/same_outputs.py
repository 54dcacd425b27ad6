"""Run one fixed list of commands in two checkouts and compare their outputs.

    python3 scripts/same_outputs.py --parent DIR --change DIR

Each command of COMMANDS runs once for each checkout, in a fresh empty
working directory, with that checkout's src/ on PYTHONPATH; `{checkout}` in
an argument stands for the checkout's path, and `{extra}` for a temporary
directory holding the EXTRA_CONFIGS, which both checkouts read.  They score
what the shipped configs do not:
- hybrid.json, K = N = 2048, d = 128, M = 26, rho = .05, beta = .3, t0 = .1:
  hcm gets chi = 4 colors, and M is above pam-shallow's replication
  threshold of 22.86 (hcm with chi >= 2, and simulations at beta in (0, 1))
- crowded.json, K = N = 600, d = 2, M = 2, rho = .4, beta = .5, t0 = 1, and
  crowded-pool.json, K = N = 256, d = 2, M = 4, rho = .4, beta = 2, t0 = .1,
  whose coded pool is 32 < N files: every one of the 200 trials has a
  cluster over d, so first-d matching takes its rank mask, which no shipped
  config reaches (on default.json a cluster holds 6 requests on average
  against d = 60)
The list covers what a change that keeps outputs byte-identical must keep:
- `simulate` at --workers 1 and 2, seed 5, 200 trials, for every scheme on
  both shipped configs (a scheme that does not apply exits 2 on both sides),
  for pcd, hcm and pam-shallow on hybrid.json, for pcd and hcm on
  crowded.json and for pcd on crowded-pool.json
- `verify-bounds` at seed 1 on all three configs: the text on stdout and
  the --out JSON
- `scripts/make_figure_data.py --trials 50 --workers 2`

For each command it compares stdout, stderr, the exit code and every file
the command wrote, byte for byte, after replacing the checkout's path with
`{checkout}` in stdout and stderr.  It prints one line per command, `same`
or `DIFFERS` with what differs, and exits 1 if any command differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = ("{checkout}/configs/default.json", "{checkout}/configs/steep.json")
SCHEMES = ("pcd", "hcm", "pam-shallow", "pam-steep")
EXTRA = "{extra}/hybrid.json"
EXTRA_CONFIG = {"k": 2048, "d": 128, "n": 2048, "m": 26.0, "rho": 0.05, "beta": 0.3, "t0": 0.1}
CROWDED = "{extra}/crowded.json"
CROWDED_POOL = "{extra}/crowded-pool.json"
EXTRA_CONFIGS = {
    EXTRA: EXTRA_CONFIG,
    CROWDED: {"k": 600, "d": 2, "n": 600, "m": 2.0, "rho": 0.4, "beta": 0.5, "t0": 1.0},
    CROWDED_POOL: {"k": 256, "d": 2, "n": 256, "m": 4.0, "rho": 0.4, "beta": 2.0, "t0": 0.1},
}
CLI = ("-m", "cachematch.cli")


def simulate(config: str, scheme: str, workers: str) -> list[str]:
    return [*CLI, "simulate", config, "--scheme", scheme, "--seed", "5", "--trials", "200", "--workers", workers]


COMMANDS = [
    *[simulate(config, scheme, workers) for config in CONFIGS for scheme in SCHEMES for workers in ("1", "2")],
    *[simulate(EXTRA, scheme, workers) for scheme in SCHEMES[:3] for workers in ("1", "2")],
    *[simulate(CROWDED, scheme, workers) for scheme in ("pcd", "hcm") for workers in ("1", "2")],
    *[simulate(CROWDED_POOL, "pcd", workers) for workers in ("1", "2")],
    *[[*CLI, "verify-bounds", config, "--seed", "1", "--out", "report.json"] for config in (*CONFIGS, EXTRA)],
    ["{checkout}/scripts/make_figure_data.py", "--trials", "50", "--workers", "2"],
]


def run(command: list[str], checkout: Path) -> dict:
    """stdout, stderr, exit code and written files of `command` run for `checkout`."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, *(arg.format(checkout=checkout) for arg in command)]
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, check=False)
        files = {str(p.relative_to(work)): p.read_bytes() for p in sorted(Path(work).rglob("*")) if p.is_file()}
    path = str(checkout).encode()
    return {"stdout": proc.stdout.replace(path, b"{checkout}"), "stderr": proc.stderr.replace(path, b"{checkout}"),
            "exit code": proc.returncode, "files": files}


def differences(parent: dict, change: dict) -> list[str]:
    """What differs between two results of run, as short phrases."""
    found = [part for part in ("stdout", "stderr", "exit code") if parent[part] != change[part]]
    for name in sorted(parent["files"].keys() | change["files"].keys()):
        if name not in change["files"]:
            found.append(f"{name} not written")
        elif name not in parent["files"]:
            found.append(f"{name} newly written")
        elif parent["files"][name] != change["files"][name]:
            found.append(f"file {name}")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    differing = 0
    with tempfile.TemporaryDirectory() as extra:
        for path, config in EXTRA_CONFIGS.items():
            Path(path.replace("{extra}", extra)).write_text(json.dumps(config, indent=2) + "\n")
        for command in COMMANDS:
            argv = [arg.replace("{extra}", extra) for arg in command]
            found = differences(run(argv, parent), run(argv, change))
            differing += bool(found)
            shown = " ".join(command).replace("{checkout}/", "")
            print(f"DIFFERS {shown}: {', '.join(found)}" if found else f"same    {shown}", flush=True)
    print(f"{differing} of {len(COMMANDS)} commands differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
