import hashlib
import json
import math
from collections import Counter

import pytest

from cachematch import cli, traffic
from cachematch.cli import main
from cachematch.config import SystemConfig
from cachematch.errors import DomainError
from cachematch.hcm import hcm_rate
from cachematch.pam_shallow import pam_shallow_rate
from cachematch.pam_steep import steep_order_value
from cachematch.pcd import pcd_rate_shallow, pcd_rate_steep, unmatched_tail_term

VALID = {"k": 20, "d": 10, "n": 20, "m": 2.0, "rho": 0.25, "beta": 0.0, "t0": 1.0}


def _write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps({**VALID, **overrides}), encoding="utf-8")
    return str(path)


def test_simulate_writes_report(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "report.json"
    code = main(
        ["simulate", cfg, "--scheme", "pcd", "--trials", "5", "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out.strip()
    payload = json.loads(stdout)
    assert payload["scheme"] == "pcd"
    assert payload["trials"] == 5
    assert out.read_text(encoding="utf-8") == stdout + "\n"


def test_simulate_flags_violated_bound(tmp_path):
    # full memory plus a very aggressive tail exponent: the analytic tail
    # K^(-3)/sqrt(2*pi) is far below the occasional overflow the simulation
    # does see, so the 3-sigma check must fail
    cfg = _write_config(tmp_path, m=20.0, rho=0.45, t0=3.0)
    code = main(["simulate", cfg, "--scheme", "pcd", "--trials", "2500"])
    assert code == 1


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
@pytest.mark.parametrize(
    "command",
    [["simulate", "--scheme", "pcd", "--trials", "3"], ["verify-bounds", "--trials", "3"]],
)
def test_seed_outside_64_bits_exits_2(tmp_path, command, seed):
    cfg = _write_config(tmp_path)
    assert main([command[0], cfg, *command[1:], "--seed", seed]) == 2


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "{cfg}", "--scheme", "pcd", "--trials", "3"],
        ["rate-curve", "{cfg}", "--param", "M", "--start", "2", "--stop", "4", "--step", "1",
         "--trials", "3", "--out", "{out}"],
        ["rate-curve", "{cfg}", "--param", "M", "--start", "2", "--stop", "4", "--step", "1",
         "--out", "{out}"],
    ],
)
def test_workers_below_one_exits_2(tmp_path, command):
    cfg, out = _write_config(tmp_path), tmp_path / "rates.csv"
    argv = [a.format(cfg=cfg, out=out) for a in command]
    assert main(argv + ["--workers", "0"]) == 2
    assert not out.exists()


SCHEME_CONFIGS = {
    "pcd": {},
    "pam-shallow": {},  # M = 2 meets the replication threshold N / d = 2
    "pam-steep": {"beta": 2.0},
}


@pytest.mark.parametrize("t_param", ["99", "nan", "-0.5", "1.0000001"])
@pytest.mark.parametrize("scheme", list(SCHEME_CONFIGS))
def test_simulate_rejects_slack_outside_zero_to_t0(tmp_path, capsys, scheme, t_param):
    # only hcm reads the slack, but every scheme refuses one it could not take
    cfg = _write_config(tmp_path, **SCHEME_CONFIGS[scheme])
    argv = ["simulate", cfg, "--scheme", scheme, "--trials", "3", "--t-param", t_param]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must lie in [0, t0 = 1.0]" in captured.err


@pytest.mark.parametrize("scheme", list(SCHEME_CONFIGS))
def test_simulate_report_ignores_a_slack_in_range(tmp_path, capsys, scheme):
    cfg = _write_config(tmp_path, **SCHEME_CONFIGS[scheme])
    reports = []
    for extra in ([], ["--t-param", "0"], ["--t-param", "0.5"], ["--t-param", "1"]):
        assert main(["simulate", cfg, "--scheme", scheme, "--trials", "4", *extra]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[1:] == reports[:1] * 3


def test_simulate_hcm_slack_report_bytes(tmp_path, capsys):
    # chi is 4 at t = 0.5 and 3 at t0 = 1; both digests were recorded before
    # collect_trials checked the slack for every scheme
    cfg = _write_config(tmp_path, k=2000, d=1000, n=2000)
    digests = []
    for extra in (["--t-param", "0.5"], []):
        assert main(["simulate", cfg, "--scheme", "hcm", "--trials", "20", "--seed", "5", *extra]) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest())
    assert digests == [
        "66a2d1c3cc2448bc7095d0689db43fd304e84fb8b3be91281a5f30f398115d64",
        "c4a1e349d30cbb63b865cb3e0f674ef629bdb1ea0efae57e3f108e80efc9b3c8",
    ]


def test_simulate_rejects_bad_scheme(tmp_path):
    cfg = _write_config(tmp_path)
    with pytest.raises(SystemExit):
        main(["simulate", cfg, "--scheme", "warehouse"])


def test_rate_curve_analytic_columns(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "curve.csv"
    code = main(
        [
            "rate-curve", cfg,
            "--param", "beta",
            "--start", "0", "--stop", "2", "--step", "0.25",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "beta,rate_pcd,rate_pam,rate_hcm,lower_bound"
    # beta = 1 is unclassifiable and is skipped, leaving 8 of the 9 grid rows
    assert len(lines) == 1 + 8
    by_beta = {row.split(",")[0]: row.split(",") for row in lines[1:]}
    assert "1" not in by_beta
    # steep rows leave the shallow-only columns empty
    assert by_beta["2"][3] == ""
    assert by_beta["2"][4] == ""
    assert by_beta["0"][3] != ""
    assert float(by_beta["0"][1]) > 0
    # each analytic cell is its scheme's rate, written to 12 digits
    shallow = SystemConfig(K=20, d=10, N=20, M=2.0, rho=0.25, beta=0.0, t0=1.0)
    steep = SystemConfig(K=20, d=10, N=20, M=2.0, rho=0.25, beta=2.0, t0=1.0)
    cells = [pcd_rate_shallow(shallow), pam_shallow_rate(shallow), hcm_rate(shallow, 1.0)]
    assert by_beta["0"][1:4] == [f"{x:.12g}" for x in cells]
    steep_cells = [pcd_rate_steep(steep), steep_order_value(steep)]
    assert by_beta["2"][1:3] == [f"{x:.12g}" for x in steep_cells]


def test_rate_curve_hcm_column_is_the_color_plan_rate(tmp_path):
    # rho = 0.05 at d = 60 gives chi = 2, so the color plan beats pcd by 1
    cfg = _write_config(tmp_path, k=600, d=60, n=600, m=40.0, rho=0.05, t0=0.2)
    out = tmp_path / "curve.csv"
    argv = ["rate-curve", cfg, "--param", "M", "--start", "40", "--stop", "40", "--step", "1"]
    assert main(argv + ["--out", str(out)]) == 0
    row = out.read_text(encoding="utf-8").splitlines()[1].split(",")
    config = SystemConfig(K=600, d=60, N=600, M=40.0, rho=0.05, beta=0.0, t0=0.2)
    assert row[3] == f"{hcm_rate(config, 0.2):.12g}"
    assert float(row[1]) - float(row[3]) == pytest.approx(1.0)


def test_rate_curve_simulated_columns(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "curve.csv"
    code = main(
        [
            "rate-curve", cfg,
            "--param", "M",
            "--start", "0", "--stop", "20", "--step", "10",
            "--trials", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "M,rate_pcd,rate_pam,rate_hcm,lower_bound,sim_pcd,sim_pam,sim_hcm"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert set(rows) == {"0", "10", "20"}
    # below the replication threshold there is nothing to simulate
    assert rows["0"][6] == ""
    assert rows["10"][6] != ""
    assert all(r[5] != "" and r[7] != "" for r in rows.values())


@pytest.mark.parametrize("workers", ["1", "2"])
def test_rate_curve_leaves_cell_empty_without_whole_file_slots(tmp_path, workers):
    # M = 3.6 clears the threshold 3.51, but 30 * floor(3.6) = 90 slots < N = 100
    cfg = _write_config(tmp_path, k=30, d=30, n=100, m=3.6, rho=0.1, beta=0.05)
    out = tmp_path / "curve.csv"
    code = main(
        [
            "rate-curve", cfg,
            "--param", "M",
            "--start", "3.6", "--stop", "5.6", "--step", "1",
            "--trials", "2", "--workers", workers,
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert set(rows) == {"3.6", "4.6", "5.6"}
    assert rows["3.6"][6] == ""
    assert rows["4.6"][6] != ""
    assert all(r[5] != "" and r[7] != "" for r in rows.values())


def test_second_rate_curve_still_leaves_cell_empty(tmp_path, cold_prepared):
    # the refused placement is not kept: the second run is refused again
    cfg = _write_config(tmp_path)
    texts = []
    for run in range(2):
        out = tmp_path / f"curve{run}.csv"
        argv = ["rate-curve", cfg, "--param", "M", "--start", "0", "--stop", "0", "--step", "1",
                "--trials", "2", "--out", str(out)]
        assert main(argv) == 0
        texts.append(out.read_text(encoding="utf-8"))
    assert texts[0] == texts[1]
    header, row = [line.split(",") for line in texts[1].splitlines()]
    assert header[6] == "sim_pam" and row[6] == "" and row[5] != "" and row[7] != ""
    # pcd and hcm prepare once; pam-shallow is refused, and tried, in each run
    info = cold_prepared.cache_info()
    assert (info.misses, info.hits, info.currsize) == (4, 2, 2)


@pytest.mark.filterwarnings("ignore:split points crossed")
@pytest.mark.parametrize("workers", ["1", "2"])
def test_rate_curve_leaves_cell_empty_where_pam_steep_does_not_apply(tmp_path, workers):
    # pam-steep requires d >= 2, so the d = 1 row has neither rate_pam nor
    # sim_pam; d = 3 does not divide K
    analytic, out = tmp_path / "analytic.csv", tmp_path / "curve.csv"
    argv = ["rate-curve", "configs/steep.json", "--param", "d", "--start", "1", "--stop", "4",
            "--step", "1"]
    assert main(argv + ["--out", str(analytic)]) == 0
    assert main(argv + ["--trials", "2", "--workers", workers, "--out", str(out)]) == 0
    header, *rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()]
    assert header == ["d", "rate_pcd", "rate_pam", "sim_pcd", "sim_pam"]
    assert [r[:3] for r in rows] == [
        line.split(",") for line in analytic.read_text(encoding="utf-8").splitlines()[1:]
    ]
    assert [r[0] for r in rows] == ["1", "2", "4"]
    assert rows[0][1] != "" and rows[0][2] == ""
    assert rows[0][3] != "" and rows[0][4] == ""
    assert all(r[3] != "" and r[4] != "" for r in rows[1:])


@pytest.mark.filterwarnings("ignore:split points crossed")
def test_rate_curve_runs_each_scheme_once_per_row(tmp_path, monkeypatch):
    # the benchmark times rate-curve's simulations through the name cli.run_experiment
    calls = []
    original = cli.run_experiment

    def recording(spec, workers=1):
        calls.append((spec.config.beta, spec.config.d, spec.scheme, spec.trials, spec.seed, workers))
        return original(spec, workers=workers)

    monkeypatch.setattr(cli, "run_experiment", recording)
    cfg = _write_config(tmp_path, m=10.0)
    out = tmp_path / "curve.csv"
    code = main(
        [
            "rate-curve", cfg,
            "--param", "beta",
            "--start", "0.5", "--stop", "1.5", "--step", "0.5",  # beta = 1 is dropped
            "--trials", "3", "--seed", "4",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert calls == [
        (0.5, 10, "pcd", 3, 4, 1),
        (0.5, 10, "pam-shallow", 3, 4, 1),
        (0.5, 10, "hcm", 3, 4, 1),
        (1.5, 10, "pcd", 3, 4, 1),
        (1.5, 10, "pam-steep", 3, 4, 1),
    ]
    # pam-steep refuses d = 1, so that row simulates pcd alone; d = 3 does not divide K
    calls.clear()
    argv = ["rate-curve", "configs/steep.json", "--param", "d", "--start", "1", "--stop", "4",
            "--step", "1", "--trials", "2", "--seed", "4", "--out", str(out)]
    assert main(argv) == 0
    assert calls == [
        (2.0, 1, "pcd", 2, 4, 1),
        (2.0, 2, "pcd", 2, 4, 1),
        (2.0, 2, "pam-steep", 2, 4, 1),
        (2.0, 4, "pcd", 2, 4, 1),
        (2.0, 4, "pam-steep", 2, 4, 1),
    ]


def test_rate_curve_draws_each_profile_once(tmp_path, monkeypatch, cold_memo):
    # three rows and up to three schemes a row share the same five profiles
    draws = Counter()
    original = traffic.reseat

    def counting(seed, trial, role=traffic.PROFILE_ROLE):
        if role == traffic.PROFILE_ROLE:
            draws[seed, trial] += 1
        return original(seed, trial, role)

    monkeypatch.setattr(traffic, "reseat", counting)
    cfg = _write_config(tmp_path)
    argv = ["rate-curve", cfg, "--param", "M", "--start", "0", "--stop", "20", "--step", "10",
            "--trials", "5", "--seed", "4", "--workers", "1", "--out", str(tmp_path / "c.csv")]
    assert main(argv) == 0
    assert draws == {(4, trial): 1 for trial in range(5)}


def test_rate_curve_bytes_match_across_warm_memos_and_workers(tmp_path, cold_memo, pool_path):
    cfg = _write_config(tmp_path)
    texts = []
    for run, workers in enumerate(["1", "2", "2", "1"]):  # later runs start warm
        out = tmp_path / f"curve{run}.csv"
        argv = ["rate-curve", cfg, "--param", "M", "--start", "0", "--stop", "20",
                "--step", "5", "--trials", "6", "--seed", "3", "--workers", workers,
                "--out", str(out)]
        assert main(argv) == 0
        texts.append(out.read_bytes())
    assert texts.count(texts[0]) == 4


def test_rate_curve_drops_fractional_d_rows(tmp_path, capsys):
    # rounding used to give 9.5, 9.75, 10.25 and 10.5 the rates of d = 10
    cfg = _write_config(tmp_path, k=40, n=40)
    out = tmp_path / "curve.csv"
    argv = ["rate-curve", cfg, "--param", "d", "--start", "9.5", "--stop", "10.5",
            "--step", "0.25", "--out", str(out)]
    assert main(argv) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["10"]
    captured = capsys.readouterr()
    assert captured.out == f"wrote 1 rows to {out}\n"
    assert captured.err.splitlines() == [
        f"skipped d = {v}: cluster size d = {v} is not an integer" for v in ("9.5", "9.75", "10.25", "10.5")
    ]


def test_rate_curve_negative_trials_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "curve.csv"
    argv = ["rate-curve", cfg, "--param", "M", "--start", "2", "--stop", "4", "--step", "1",
            "--trials", "-4", "--out", str(out)]
    assert main(argv) == 2
    assert "trials" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("trials", ["0", "-4"])
def test_verify_bounds_without_trials_exits_2(tmp_path, capsys, trials):
    # used to report the Monte Carlo checks as FAIL and exit 1
    cfg = _write_config(tmp_path)
    out = tmp_path / "verify.json"
    assert main(["verify-bounds", cfg, "--trials", trials, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "trials" in captured.err and "FAIL" not in captured.out
    assert not out.exists()


def test_rate_curve_rejects_empty_sweep(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "curve.csv"
    code = main(
        [
            "rate-curve", cfg,
            "--param", "beta",
            "--start", "1", "--stop", "1", "--step", "1",
            "--out", str(out),
        ]
    )
    assert code == 2
    assert not out.exists()


NON_FINITE_SWEEPS = [
    ("1", "3", "nan"),
    ("1", "inf", "1"),
    ("1", "nan", "1"),
    ("nan", "3", "1"),
    ("-inf", "3", "1"),
]


@pytest.mark.parametrize("start, stop, step", NON_FINITE_SWEEPS)
def test_sweep_values_rejects_non_finite_bounds(start, stop, step):
    with pytest.raises(DomainError, match="finite"):
        cli._sweep_values(float(start), float(stop), float(step))


@pytest.mark.parametrize("start, stop, step", NON_FINITE_SWEEPS)
def test_rate_curve_non_finite_sweep_exits_2(tmp_path, start, stop, step):
    cfg = _write_config(tmp_path)
    out = tmp_path / "curve.csv"
    argv = ["rate-curve", cfg, "--param", "M", f"--start={start}", f"--stop={stop}",
            f"--step={step}", "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "exponents",
    [["--beta", "nan"], ["--beta", "inf"], ["--beta", "-0.5"],
     ["--beta", "2", "--nu", "nan"], ["--beta", "0.5", "--nu", "0.5"]],
)
def test_regime_map_bad_exponents_exit_2(tmp_path, capsys, exponents):
    out = tmp_path / "map.csv"
    assert main(["regime-map", *exponents, "--resolution", "2", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_regime_map_csv(tmp_path):
    out = tmp_path / "map.csv"
    code = main(["regime-map", "--beta", "0.5", "--resolution", "4", "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "delta,mu,winner,sigma_pcd,sigma_pam"
    assert len(lines) == 1 + 16
    first = lines[1].split(",")
    assert (first[0], first[1]) == ("0.125", "0.125")
    assert {line.split(",")[2] for line in lines[1:]} <= {"PCD", "PAM", "BOUNDARY"}


def test_regime_map_steep_winners(tmp_path):
    out = tmp_path / "map.csv"
    assert main(["regime-map", "--beta", "2", "--resolution", "2", "--out", str(out)]) == 0
    winners = [
        line.split(",")[2]
        for line in out.read_text(encoding="utf-8").splitlines()[1:]
    ]
    assert winners == ["PCD", "PAM", "PAM", "PAM"]


def test_verify_bounds_cli(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "verify.json"
    code = main(["verify-bounds", cfg, "--trials", "5", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "PASS" in stdout
    assert "SKIPPED" in stdout  # this config misses the cluster floor
    assert "0 failed" in stdout
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["failed"] == 0
    assert payload["passed"] + payload["skipped"] == len(payload["checks"])


def _reject_constant(name):
    raise ValueError(f"non-finite {name} in the report")


@pytest.mark.parametrize("beta", [400.0, 1e300])
def test_steep_formulas_take_the_limit_of_huge_beta(tmp_path, capsys, beta):
    # N**beta and (d*M)**(beta - 1) overflow a double: the steep pcd threshold
    # becomes infinite and the pam-steep head term K / (d*M)**(beta - 1) zero
    cfg = _write_config(tmp_path, beta=beta)
    limits = {"pcd": unmatched_tail_term(20, 1.0), "pam-steep": 0.0}  # K = 20, t0 = 1
    for scheme in limits:
        assert main(["simulate", cfg, "--scheme", scheme, "--trials", "5", "--seed", "2"]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert report["bound_satisfied"]
        assert report["analytic_rate"] == limits[scheme]
    out = tmp_path / "curve.csv"
    argv = ["rate-curve", cfg, "--param", "M", "--start", "0", "--stop", "4", "--step", "2",
            "--trials", "3", "--out", str(out)]
    assert main(argv) == 0
    for line in out.read_text(encoding="utf-8").splitlines()[1:]:
        assert all(math.isfinite(float(cell)) for cell in line.split(","))
    capsys.readouterr()
    assert main(["verify-bounds", cfg, "--trials", "5"]) == 0
    stdout = capsys.readouterr().out
    assert "0 failed" in stdout and "PASS    steep-envelope" in stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "{cfg}", "--scheme", "pcd", "--trials", "2"],
        [
            "rate-curve", "{cfg}",
            "--param", "M",
            "--start", "0", "--stop", "4", "--step", "2",
            "--out", "{tmp}/x.csv",
        ],
        ["verify-bounds", "{cfg}", "--trials", "2"],
    ],
)
def test_invalid_intensity_exits_2(tmp_path, argv):
    cfg = _write_config(tmp_path, rho=0.6)
    argv = [a.format(cfg=cfg, tmp=tmp_path) for a in argv]
    assert main(argv) == 2


def test_every_broken_invariant_is_named_on_stderr(tmp_path, capsys):
    cfg = _write_config(tmp_path, d=7, rho=0.6)  # 7 does not divide K = 20
    assert main(["simulate", cfg, "--scheme", "pcd", "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: hard invariant(s) failed: cluster_divides, intensity_range\n"


@pytest.mark.parametrize(
    "overrides",
    [
        {"k": 600.9},
        {"k": True, "d": 1},
        {"k": "600"},
        {"t0": float("inf")},
        {"beta": float("inf")},
    ],
)
def test_config_that_used_to_be_coerced_exits_2(tmp_path, capsys, overrides):
    cfg = _write_config(tmp_path, **overrides)
    assert main(["simulate", cfg, "--scheme", "pcd", "--trials", "2"]) == 2
    assert capsys.readouterr().out == ""  # no report, so no Infinity token either


def test_missing_config_exits_2(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["simulate", missing, "--scheme", "pcd", "--trials", "2"]) == 2


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all", encoding="utf-8")
    assert main(["simulate", str(bad), "--scheme", "pcd", "--trials", "2"]) == 2
    arr = tmp_path / "arr.json"
    arr.write_text("[1,2,3]", encoding="utf-8")
    assert main(["simulate", str(arr), "--scheme", "pcd", "--trials", "2"]) == 2
