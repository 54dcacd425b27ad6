"""Command-line front end: experiments, sweeps, regime maps, bound checks.

Exit codes: 0 success, 1 a checked inequality failed, 2 invalid config or
usage.  CSV outputs are comma-separated with a header row, LF endings, UTF-8,
and 12 significant digits, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .bounds import shallow_lower_bound
from .config import SystemConfig, load_config, validate
from .errors import DomainError, HardInvariantViolation, IncompatibleScheme, InsufficientMemory
from .montecarlo import (
    HCM_SCHEME,
    PAM_SHALLOW_SCHEME,
    PAM_STEEP_SCHEME,
    PCD_SCHEME,
    SCHEMES,
    ExperimentSpec,
    run_experiment,
)
from .regimes import regime_map
from .verification import verify_config


def _fmt(x) -> str:
    return "" if x is None else f"{x:.12g}"


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    spec = ExperimentSpec(
        config=config,
        scheme=args.scheme,
        trials=args.trials,
        seed=args.seed,
        t_param=args.t_param,
    )
    report = run_experiment(spec, workers=args.workers)
    text = report.to_json(config)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if report.bound_satisfied else 1


def _sweep_values(start: float, stop: float, step: float) -> list[float]:
    if not all(map(math.isfinite, (start, stop, step))):  # the loop below would never end
        raise DomainError(f"sweep bounds must be finite, got {start}, {stop}, {step}")
    if step <= 0:
        raise DomainError("sweep step must be > 0")
    if stop < start:
        raise DomainError("sweep range is empty")
    values = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-12 * max(1.0, abs(stop)):
            break
        values.append(v)
        k += 1
    return values


def _row_config(base: SystemConfig, param: str, value: float) -> SystemConfig:
    if param == "M":
        return dataclasses.replace(base, M=float(value))
    if param == "d":
        if not float(value).is_integer():  # rounding would alias it to a neighbouring row
            raise DomainError(f"cluster size d = {value} is not an integer")
        return dataclasses.replace(base, d=int(value))
    return dataclasses.replace(base, beta=float(value))


def _cmd_rate_curve(args) -> int:
    if args.workers < 1:  # checked here too, as --trials 0 never reaches collect_trials
        raise DomainError(f"workers must be >= 1, got {args.workers}")
    if args.trials < 0:  # 0 means analytic columns only
        raise DomainError(f"trials must be >= 0, got {args.trials}")
    base = load_config(args.config)
    values = _sweep_values(args.start, args.stop, args.step)
    rows = []
    row_configs = []
    for v in values:
        try:
            config = _row_config(base, args.param, v)
            validate(config)
        except (HardInvariantViolation, DomainError) as exc:
            print(f"skipped {args.param} = {_fmt(v)}: {exc}", file=sys.stderr)  # not an error
            continue
        row_configs.append((v, config))
    if not row_configs:
        raise DomainError("sweep produced no valid configs")

    include_shallow_cols = any(c.beta < 1 for _, c in row_configs)
    header = [args.param, "rate_pcd", "rate_pam"]
    if include_shallow_cols:
        header += ["rate_hcm", "lower_bound"]
    if args.trials > 0:
        header += ["sim_pcd", "sim_pam"]
        if include_shallow_cols:
            header += ["sim_hcm"]

    for v, config in row_configs:
        shallow = config.beta < 1
        pam = PAM_SHALLOW_SCHEME if shallow else PAM_STEEP_SCHEME
        row = [_fmt(v)] + [_fmt(SCHEMES[s].analytic(config, config.t0)) for s in (PCD_SCHEME, pam)]
        if include_shallow_cols:
            rate_hcm = SCHEMES[HCM_SCHEME].analytic(config, config.t0) if shallow else None
            try:
                bound = shallow_lower_bound(config) if shallow else None
            except DomainError:
                bound = None
            row += [_fmt(rate_hcm), _fmt(bound)]
        if args.trials > 0:
            row += [_fmt(_sim_mean(config, PCD_SCHEME, args)), _fmt(_sim_mean(config, pam, args))]
            if include_shallow_cols:
                row += [_fmt(_sim_mean(config, HCM_SCHEME, args) if shallow else None)]
        rows.append(row)

    _write_csv(args.out, header, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _sim_mean(config: SystemConfig, scheme: str, args) -> float | None:
    """Simulated mean rate; None where the scheme has no placement."""
    spec = ExperimentSpec(config=config, scheme=scheme, trials=args.trials, seed=args.seed)
    try:
        return run_experiment(spec, workers=args.workers).mean_rate
    except InsufficientMemory:
        return None


def _cmd_regime_map(args) -> int:
    cells = regime_map(args.beta, args.nu, args.resolution)
    header = ["delta", "mu", "winner", "sigma_pcd", "sigma_pam"]
    rows = [
        [
            _fmt(cell.delta),
            _fmt(cell.mu),
            cell.verdict.winner,
            _fmt(cell.verdict.sigma_pcd),
            _fmt(cell.verdict.sigma_pam),
        ]
        for cell in cells
    ]
    _write_csv(args.out, header, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_verify_bounds(args) -> int:
    config = load_config(args.config)
    report = verify_config(config, seed=args.seed, trials=args.trials)
    for warning in report.warnings:
        print(f"WARNING  {warning}")
    for check in report.checks:
        print(f"{check.status:<8}{check.name}: {check.detail}")
    n_fail = len(report.failed)
    print(f"{len(report.checks)} checks, {n_fail} failed, "
          f"{sum(c.status == 'SKIPPED' for c in report.checks)} skipped")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report.to_json() + "\n")
    return 0 if report.all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cachematch",
        description="Cache-network rate experiments: simulation, sweeps, regime maps, bound checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="Monte Carlo rate estimate for one scheme")
    p.add_argument("config", help="JSON config file")
    p.add_argument("--scheme", required=True, choices=SCHEMES)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--t-param", type=float, default=None, dest="t_param")
    p.add_argument("--out", default=None, help="write the JSON report here as well")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("rate-curve", help="analytic (and optional simulated) rates along a sweep")
    p.add_argument("config", help="JSON config file")
    p.add_argument("--param", required=True, choices=("M", "d", "beta"))
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--trials", type=int, default=0, help="simulated columns when > 0")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(fn=_cmd_rate_curve)

    p = sub.add_parser("regime-map", help="winner map over the (delta, mu) exponent square")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--nu", type=float, default=1.0)
    p.add_argument("--resolution", type=int, default=50)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(fn=_cmd_regime_map)

    p = sub.add_parser("verify-bounds", help="run every analytic inequality check at a config")
    p.add_argument("config", help="JSON config file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=400)
    p.add_argument("--out", default=None, help="write the JSON report here as well")
    p.set_defaults(fn=_cmd_verify_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (
        HardInvariantViolation,
        DomainError,
        IncompatibleScheme,
        InsufficientMemory,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
