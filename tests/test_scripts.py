"""The scripts under scripts/: the figure datasets, the paired benchmark runner
and the output comparison of two checkouts."""

import importlib.util
import json
import pathlib
import textwrap

import pytest

from cachematch.config import load_config
from cachematch.hcm import compute_chi
from cachematch.pam_shallow import memory_threshold

REPO = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = REPO / "scripts"
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


SCALED_RUN = textwrap.dedent("""
    import json
    names = ("wall_s", "setup_s", "trials_per_s.pcd", "trials_per_s.other", "peak_rss_mb")
    metrics = {name: {"value": SCALE * (i + 1), "unit": ""} for i, name in enumerate(names)}
    print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}))
""")


def test_bench_pairs_progress_line_shows_every_end_to_end_metric(tmp_path, capsys):
    sides = {}
    for side, scale in (("parent", 1.0), ("change", 10.0)):
        sides[side] = tmp_path / side
        (sides[side] / "perfbench").mkdir(parents=True)
        (sides[side] / "perfbench" / "run.py").write_text(SCALED_RUN.replace("SCALE", str(scale)),
                                                         encoding="utf-8")
    argv = ["--parent", str(sides["parent"]), "--change", str(sides["change"]), "--workload",
            "dense-shallow", "--seeds", "5-6", "--seconds", "1", "--out", str(tmp_path / "bench.json")]
    assert _load("bench_pairs").main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    names = ("wall_s", "setup_s", "trials_per_s.pcd", "trials_per_s.other", "peak_rss_mb")
    for line, seed, first in zip(lines, (5, 6), ("parent", "change")):
        workload, shown_seed, shown = line.split(" ", 2)
        assert (workload, int(shown_seed)) == ("dense-shallow", seed)
        shown = json.loads(shown)
        assert list(shown)[0] == first
        for side, scale in (("parent", 1.0), ("change", 10.0)):
            assert shown[side] == {name: scale * (i + 1) for i, name in enumerate(names)}
    assert len(lines) == 2


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


@pytest.mark.parametrize(
    "parent, change, better, unresolved",
    [
        # the parent's IQR is 3.0 on a median of 10.5, 29 % against a bound of
        # 20 %, and the change's runs fall inside its spread
        ([9.0, 12.0] * 5, [10.5] * 10, "lower", True),
        # the same spread, but every run of the change reads better than every
        # run of the parent, in either direction
        ([9.0, 12.0] * 5, [8.5] * 10, "lower", False),
        ([9.0, 12.0] * 5, [12.5] * 10, "higher", False),
        # a parent IQR of 1 % of its median resolves even a change that is worse
        ([10.0, 10.1] * 5, [11.0] * 10, "lower", False),
    ],
)
def test_bench_pairs_flags_a_metric_the_parents_spread_cannot_resolve(parent, change, better, unresolved):
    summary = _load("bench_pairs").summarise(
        _pairs(parent, change), {"wall_s": {"name": "wall_s", "better": better, "bound": 0.2}})
    assert summary["wall_s"]["unresolved"] is unresolved


def test_same_outputs_finds_a_checkout_the_same_as_itself(monkeypatch, capsys):
    same_outputs = _load("same_outputs")
    monkeypatch.setattr(same_outputs, "COMMANDS", same_outputs.COMMANDS[:1])
    assert same_outputs.main(["--parent", str(REPO), "--change", str(REPO)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["same    -m cachematch.cli simulate configs/default.json --scheme pcd --seed 5 --trials 200 "
                     "--workers 1", "0 of 1 commands differ"]


def test_same_outputs_extra_config_has_four_colors_and_replicates(monkeypatch, capsys, tmp_path):
    same_outputs = _load("same_outputs")
    path = tmp_path / "hybrid.json"
    path.write_text(json.dumps(same_outputs.EXTRA_CONFIG))
    config = load_config(str(path))
    assert compute_chi(config, config.t0) == 4
    assert 0 < config.beta < 1 and config.M > memory_threshold(config)
    # both checkouts read the one written config
    hcm = [c for c in same_outputs.COMMANDS if same_outputs.EXTRA in c and "hcm" in c]
    monkeypatch.setattr(same_outputs, "COMMANDS", hcm[:1])
    assert same_outputs.main(["--parent", str(REPO), "--change", str(REPO)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "same    -m cachematch.cli simulate {extra}/hybrid.json --scheme hcm --seed 5 --trials 200 --workers 1",
        "0 of 1 commands differ"]


def test_same_outputs_reports_what_differs(monkeypatch, capsys):
    same_outputs = _load("same_outputs")
    results = {
        "parent": {"stdout": b"1", "stderr": b"", "exit code": 0, "files": {"a.json": b"{}", "b.csv": b"x"}},
        "change": {"stdout": b"2", "stderr": b"", "exit code": 1, "files": {"a.json": b"[]", "c.csv": b"x"}},
    }
    monkeypatch.setattr(same_outputs, "COMMANDS", [["-m", "tool", "{checkout}/in.json"], ["-m", "other"]])
    monkeypatch.setattr(same_outputs, "run", lambda command, checkout: results[checkout.name]
                        if command[1] == "tool" else results["parent"])
    assert same_outputs.main(["--parent", "parent", "--change", "change"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "DIFFERS -m tool in.json: stdout, exit code, file a.json, b.csv not written, c.csv newly written",
        "same    -m other",
        "1 of 2 commands differ",
    ]
