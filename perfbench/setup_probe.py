"""Set-up as a user pays it, in this fresh interpreter.

Imports the program, loads the workload's configs and builds the catalog and
the placement or plan of each (config, scheme) pair the workload runs.
Prints the phase times as one JSON line; run.py times the whole process.

    PYTHONPATH=src python3 perfbench/setup_probe.py --workload NAME --inputs DIR [--smoke]
"""

from time import perf_counter

start = perf_counter()
import cachematch.cli  # noqa: E402,F401  (the whole program, as the command line loads it)

imported = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402

import numpy  # noqa: E402

import workloads  # noqa: E402
from cachematch.config import load_config  # noqa: E402
from cachematch.hcm import build_color_plan  # noqa: E402
from cachematch.pam_shallow import proportional_placement  # noqa: E402
from cachematch.pam_steep import build_knapsack, solve_fractional_knapsack  # noqa: E402
from cachematch.pcd import coded_pool_size  # noqa: E402
from cachematch.popularity import build_catalog  # noqa: E402

PREPARE = {
    workloads.PCD: lambda config, catalog: coded_pool_size(config),
    workloads.HCM: lambda config, catalog: build_color_plan(config, catalog, config.t0),
    workloads.PAM_SHALLOW: proportional_placement,
    workloads.PAM_STEEP: lambda config, catalog: solve_fractional_knapsack(build_knapsack(config, catalog)),
}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    workload = workloads.get(args.workload, args.smoke)

    built = perf_counter()
    configs = {label: load_config(workloads.input_path(workload, args.inputs, label))
               for label in workload.configs}
    for label, scheme in workload.setup:
        config = configs[label]
        PREPARE[scheme](config, build_catalog(config.N, config.beta))
    done = perf_counter()
    print(json.dumps({"import_s": imported - start, "build_s": done - built, "numpy": numpy.__version__}))


if __name__ == "__main__":
    main()
