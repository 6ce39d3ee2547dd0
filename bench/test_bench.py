"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest bench/test_bench.py

Run from the root of the checkout.  Checks that every metric that
BENCHMARK.json names is reported with its unit, that the output checks
run (and fail on a wrong answer), and that the deterministic counts of
two traced runs with the same seed are identical.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

import run

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
# counts and ratios that depend only on the inputs, never on timing
DETERMINISTIC = [
    "compile_fail_frac", "qa_mismatch_frac", "qa.dropped_compilations",
    "qa.repeat_frac", "check.undecided", "normal_forms.to_dnf.terms",
    "pi.compile.calls", "pi.candidates.count", "pi.minimize.entail_calls",
    "pi.theta_per_candidate", "pi.fail.capacity", "pi.fail.budget",
    "qa.fail.budget", "semantics.sat.calls", "semantics.sat.true_frac",
    "semantics.find_model.calls", "qa.compiled.calls",
    "qa.compiled.entail_calls_per_query", "qa.compiled.omega_size",
    "qa.direct.calls", "formula.parse.calls",
]


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    for name, spec in run.WORKLOADS.items():
        small = dict(spec, queries=150)
        if spec["compile"]:
            small["compile"] = dict(spec["compile"], count=15)
        if spec["pool"]:
            small["pool"] = dict(spec["pool"], count=4)
        if spec["hot"]:
            small["hot"] = 2
        monkeypatch.setitem(run.WORKLOADS, name, small)
    monkeypatch.setattr(run, "MIN_ROUNDS", 2)


def bench(workload, trace, seed=3):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.run(workload, seed, 0.01, trace)
    return code, out.getvalue(), json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_end_to_end_metric_with_its_unit(workload):
    code, text, result = bench(workload, False)
    assert code == 0 and result["correct"] and "checks passed" in text
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        n: v["unit"] for n, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    _, _, first = bench(workload, True)
    code, _, second = bench(workload, True)
    assert code == 0 and first["correct"] and second["correct"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        n: v["unit"] for n, v in first["metrics"].items()}
    for name in DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["trace.nesting_gap_s"]["value"] < 1e-6


def test_wrong_answer_fails_the_run(monkeypatch):
    real = run.Q.answer_query

    def flipped(comp, q, *args, **kwargs):
        v = real(comp, q, *args, **kwargs)
        return run.Q.QueryVerdict(v.query, not v.answer, None, v.method)

    monkeypatch.setattr(run.Q, "answer_query", flipped)
    code, text, result = bench("qa-distinct", False)
    assert code == 1 and not result["correct"] and "K mismatch" in text


def test_workloads_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: spec["why"] for name, spec in run.WORKLOADS.items()}
