"""The scripts under scripts/: the figure datasets and the paired benchmark runner."""

import importlib.util
import json
import pathlib
import textwrap

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
FIGURE_FILES = ("rates_shallow_vs_memory.csv", "rates_steep_vs_memory.csv", "rates_vs_beta.csv",
                "regimes_shallow.csv", "regimes_steep.csv")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_figure_data_is_written_and_matches_across_workers(tmp_path, pool_path):
    figures = _load("make_figure_data")
    texts = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        out.mkdir()
        figures.rate_curves(out, 2, 5, workers)
        figures.regime_maps(out, 3)
        assert sorted(p.name for p in out.iterdir()) == sorted(FIGURE_FILES)
        texts[workers] = {name: (out / name).read_bytes() for name in FIGURE_FILES}
    assert texts[2] == texts[1]
    assert texts[1]["rates_steep_vs_memory.csv"].startswith(b"M,rate_pcd,rate_pam,sim_pcd,sim_pam\n")


FAKE_RUN = textwrap.dedent("""
    import json, sys
    seed = int(sys.argv[sys.argv.index("--seed") + 1])
    if seed == 2:
        print("setting up", file=sys.stderr)
        print("Traceback (most recent call last):", file=sys.stderr)
        print("RuntimeError: workload crashed", file=sys.stderr)
        sys.exit(1)
    metrics = {name: {"value": 1.0, "unit": ""} for name in
               ("wall_s", "setup_s", "trials_per_s.pcd", "trials_per_s.other", "peak_rss_mb")}
    print("wall_s 1.0 s")
    print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}))
""")


def test_bench_pairs_names_the_run_that_printed_no_result(tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(FAKE_RUN, encoding="utf-8")
    out = tmp_path / "bench.json"
    argv = ["--parent", str(checkout), "--change", str(checkout), "--workload", "figure-sweep",
            "--seeds", "1-2", "--seconds", "1", "--out", str(out)]
    with pytest.raises(SystemExit) as stopped:
        _load("bench_pairs").main(argv)
    message = str(stopped.value)
    # seed 2 is the second pair, so the change runs first
    assert message.startswith("change run of figure-sweep at seed 2 printed no result line (exit code 1)")
    assert message.endswith("Traceback (most recent call last):\nRuntimeError: workload crashed")
    pairs = json.loads(out.read_text(encoding="utf-8"))["workloads"]["figure-sweep"]["pairs"]
    assert [p["seed"] for p in pairs] == [1]  # the pair written before the failure is kept


BUSY_RUN = textwrap.dedent("""
    import json, sys, time
    seed = int(sys.argv[sys.argv.index("--seed") + 1])
    if seed == 1:  # 32 MiB of fresh pages and 0.2 s of CPU, user and system
        pages = bytearray(32 << 20)
        pages[::4096] = b"x" * len(pages[::4096])
        end = time.process_time() + 0.2
        while time.process_time() < end:
            pass
    metrics = {name: {"value": 1.0, "unit": ""} for name in
               ("wall_s", "setup_s", "trials_per_s.pcd", "trials_per_s.other", "peak_rss_mb")}
    print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}))
""")


def test_bench_pairs_records_each_runs_cpu_time_and_page_faults(tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(BUSY_RUN, encoding="utf-8")
    out = tmp_path / "bench.json"
    argv = ["--parent", str(checkout), "--change", str(checkout), "--workload", "steep-mlp",
            "--seeds", "1-2", "--seconds", "1", "--out", str(out)]
    assert _load("bench_pairs").main(argv) == 0
    workload = json.loads(out.read_text(encoding="utf-8"))["workloads"]["steep-mlp"]
    busy, idle = workload["pairs"]
    for side in ("parent", "change"):
        assert set(busy[side]["rusage"]) == {"user_s", "sys_s", "minor_faults"}
        # each run's own share: the busy run's pages and CPU, not the idle one's
        assert busy[side]["rusage"]["minor_faults"] >= 8192
        assert idle[side]["rusage"]["minor_faults"] < busy[side]["rusage"]["minor_faults"] - 6000
        cpu = {name: pair[side]["rusage"]["user_s"] + pair[side]["rusage"]["sys_s"]
               for name, pair in (("busy", busy), ("idle", idle))}
        assert cpu["busy"] >= 0.19 and cpu["idle"] < cpu["busy"] - 0.1
        assert min(idle[side]["rusage"].values()) >= 0
    assert "rusage" not in workload["summary"]
    assert set(workload["summary"]) == {"wall_s", "setup_s", "trials_per_s.pcd", "trials_per_s.other",
                                        "peak_rss_mb"}


def _pairs(parent, change, name="wall_s"):
    return [{"parent": {name: p}, "change": {name: c}} for p, c in zip(parent, change)]


@pytest.mark.parametrize(
    "parent, change, better, within_bound, claim_rule_met",
    [
        # ten pairs, lower is better: 10 % faster in every pair, IQR 0.45
        ([10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9],
         [9.0, 9.1, 9.2, 9.3, 9.4, 9.5, 9.6, 9.7, 9.8, 9.9], "lower", True, True),
        # wins 9 of 10 but by less than the parent's IQR
        ([10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9],
         [9.9, 10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 11.0], "lower", True, False),
        # a wide gap, but only 8 of 10 pairs won
        ([10.0] * 10, [8.0] * 8 + [10.5, 10.5], "lower", True, False),
        # 15 % worse against a bound of 20 %: within bound, no claim
        ([10.0] * 10, [11.5] * 10, "lower", True, False),
        # 25 % worse: out of bound
        ([10.0] * 10, [12.5] * 10, "lower", False, False),
        # higher is better: 25 % fewer trials/s is out of bound, 25 % more is a claim
        ([100.0] * 10, [75.0] * 10, "higher", False, False),
        ([100.0, 101.0] * 5, [125.0] * 10, "higher", True, True),
    ],
)
def test_bench_pairs_states_the_acceptance_rule(parent, change, better, within_bound, claim_rule_met):
    summary = _load("bench_pairs").summarise(
        _pairs(parent, change), {"wall_s": {"name": "wall_s", "better": better, "bound": 0.2}})
    got = summary["wall_s"]
    assert got["bound"] == 0.2 and got["pairs"] == len(parent)
    assert got["within_bound"] is within_bound
    assert got["claim_rule_met"] is claim_rule_met
