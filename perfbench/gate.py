"""Correctness gate: each experiment or command of a pass against reference.json.

- Analytic values, and the analytic columns of a CSV, must equal the
  reference exactly.
- A simulated mean must lie within K_SIGMA combined standard errors of the
  recorded mean.  It is not compared byte for byte, so a declared change of
  the sampler does not count as a failure.  The rows of one rate-curve share
  their seed and so are correlated; the test is made on each simulated
  column's sum over rows, whose per-trial spread was recorded as such.
- verify-bounds must report no FAIL and no more SKIPPED checks than recorded.
- pam-steep's bound_satisfied is an order-level envelope: it is recorded, and
  never counted as a failure.  The other schemes' analytic rates are upper
  bounds, so there it must hold.

Byte identity with the digests recorded at workloads.REFERENCE_SEED is
reported as information only.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib

K_SIGMA = 6.0

REFERENCE = pathlib.Path(__file__).resolve().parent / "reference.json"


def reference_for(name: str, smoke: bool) -> dict:
    data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return data["smoke" if smoke else "full"][name]


def digest(blobs) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(hashlib.sha256(blob).digest())
    return h.hexdigest()


def within(mean: float, ref: dict, trials: int) -> bool:
    """|mean - reference mean| <= K_SIGMA combined standard errors."""
    se = math.sqrt(ref["sd"] ** 2 / trials + ref["sd"] ** 2 / ref["n"])
    return abs(mean - ref["mean"]) <= K_SIGMA * se + 1e-9 * max(1.0, abs(ref["mean"]))


def check_report(report, ref: dict) -> list[str]:
    problems = []
    if repr(report.analytic_rate) != ref["analytic_rate"]:
        problems.append(f"analytic rate {report.analytic_rate!r} != {ref['analytic_rate']}")
    if report.trials != ref["trials"]:
        problems.append(f"{report.trials} trials, expected {ref['trials']}")
    if not within(report.mean_rate, ref, report.trials):
        problems.append(f"mean rate {report.mean_rate:.6g} outside {K_SIGMA} combined "
                        f"standard errors of {ref['mean']:.6g}")
    if ref["bound_required"] and not report.bound_satisfied:
        problems.append("analytic upper bound not satisfied")
    return problems


def _check_curve(text: str, ref: dict) -> list[str]:
    lines = text.splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    if header != ref["header"]:
        return [f"header {header} != {ref['header']}"]
    if len(rows) != len(ref["analytic"]):
        return [f"{len(rows)} rows, expected {len(ref['analytic'])}"]
    problems = []
    analytic = [i for i, h in enumerate(header) if not h.startswith("sim_")]
    for r, (row, expected) in enumerate(zip(rows, ref["analytic"])):
        if [row[i] for i in analytic] != expected:
            problems.append(f"row {r}: analytic cells {[row[i] for i in analytic]} != {expected}")
    for col, name in enumerate(header):
        if not name.startswith("sim_"):
            continue
        stats = ref["sim"][name]
        present = [r for r, row in enumerate(rows) if row[col] != ""]
        if present != stats["rows"]:
            problems.append(f"{name}: simulated rows {present} != {stats['rows']}")
            continue
        total = sum(float(rows[r][col]) for r in present)
        if not within(total, stats, ref["trials"]):
            problems.append(f"{name}: column sum {total:.6g} outside {K_SIGMA} combined "
                            f"standard errors of {stats['mean']:.6g}")
    return problems


def _check_verify(text: str, ref: dict) -> list[str]:
    data = json.loads(text)
    names = [c["name"] for c in data["checks"]]
    problems = []
    if names != ref["checks"]:
        problems.append(f"checks {names} != {ref['checks']}")
    problems += [f"FAIL {c['name']}: {c['detail']}" for c in data["checks"] if c["status"] == "FAIL"]
    if data["skipped"] > ref["max_skipped"]:
        problems.append(f"{data['skipped']} checks skipped, at most {ref['max_skipped']} expected")
    return problems


def check_output(blob: bytes, ref: dict) -> list[str]:
    if ref["kind"] == "digest":
        same = hashlib.sha256(blob).hexdigest() == ref["sha256"]
        return [] if same else ["output differs from the recorded analytic output"]
    text = blob.decode("utf-8")
    return _check_curve(text, ref) if ref["kind"] == "curve" else _check_verify(text, ref)
