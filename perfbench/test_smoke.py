"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every metric BENCHMARK.json names is printed with its unit,
that no command fails on the current code, that a wrong output is counted as
a failure, and that the benchmark refuses to run outside an rrkit checkout.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "mc_small_n": dict(replicates=50),
    "mc_large_n": dict(n=2000, replicates=20),
    "verify_fine_grid": dict(grid_step=0.05),
    "cli_session": {},
}
# the six end-to-end figures the report prints by name, with their units
REPORTED = ("setup_s", "op_s_p50", "op_s_tail", "replicates_per_s", "error_rate", "peak_rss_mb")


@pytest.fixture(autouse=True)
def few_setup_samples(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)


def tiny(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], **TINY[name])


def run_tiny(name: str, trace: bool) -> tuple[dict, list[str]]:
    lines: list[str] = []
    result = run.run(tiny(name), seed=7, seconds=0.2, trace=trace, report=lines.append)
    return result, lines


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(TINY))
def test_end_to_end_metrics_are_printed_and_nothing_fails(name):
    result, lines = run_tiny(name, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert result["metrics"].keys() == run.END_TO_END.keys()
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == run.END_TO_END[metric]
        assert entry["value"] > 0 and math.isfinite(entry["value"])
    text = "\n".join(lines)
    for metric in REPORTED:
        if metric == "replicates_per_s" and not name.startswith("mc_"):
            continue
        assert any(line.startswith(metric + " ") for line in lines), metric
    assert any(line.split()[:2] == ["error_rate", "0"] for line in lines)
    assert f"of {result['attempted']} commands failed" in text
    assert "median of" in text and "commands" in text  # sample counts accompany the timings


@pytest.mark.parametrize("name", list(TINY))
def test_per_layer_metrics_are_printed_and_nothing_fails(name):
    result, lines = run_tiny(name, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"].keys() == run.PER_LAYER.keys()
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == run.PER_LAYER[metric]
        assert math.isfinite(entry["value"]), metric
        assert any(line.startswith(metric + " ") and run.PER_LAYER[metric] in line for line in lines)
    assert (run.WORK / f"spans-{name}.csv").is_file()


def test_traced_simulate_counts():
    result, _ = run_tiny("mc_large_n", trace=True)
    assert result["metrics"]["simulation.pool_speedup"]["value"] > 0
    replicates, n = TINY["mc_large_n"]["replicates"], TINY["mc_large_n"]["n"]
    workers = min(os.cpu_count() or 1, replicates)
    assert result["metrics"]["simulation.workers"]["value"] == workers
    assert result["metrics"]["simulation.replicates"]["value"] == replicates
    assert result["metrics"]["device.respondents"]["value"] == n * replicates


def test_a_perturbed_p_counts_as_a_failure(monkeypatch):
    from rrkit import design

    exact = design.p0_all_stigmatizing
    monkeypatch.setattr(design, "p0_all_stigmatizing", lambda m, xi: exact(m, xi) * (1 + 1e-9))
    tally = run.Tally()
    ops = run.make_ops(tiny("mc_small_n"), seed=3)
    assert tally.run(next(ops), run.run_in_process) is None
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "closed-form p0" in tally.reasons[0]


def test_a_fail_line_counts_as_a_failure(monkeypatch):
    from rrkit import privacy

    exact = privacy.revealing_probabilities
    monkeypatch.setattr(privacy, "revealing_probabilities", lambda d, p: exact(d, p) + 1e-9)
    tally = run.Tally()
    ops = run.make_ops(tiny("verify_fine_grid"), seed=3)
    assert tally.run(next(ops), run.run_in_process) is None
    assert tally.failed == 1 and "FAIL" in tally.reasons[0]


def test_checks_reject_wrong_outputs():
    survey = checks.Survey.load(run.survey_path(run.SURVEY_FILES[0]))
    rc, out, _ = run.run_in_process(
        ["simulate", "--survey", run.survey_path(run.SURVEY_FILES[0]), "--n", "10",
         "--replicates", "50", "--seed", "5"])
    assert checks.check_simulate(rc, out, survey, 10, 50, 5) is None
    doc = json.loads(out)
    for key, wrong in (("p", doc["p"] + 1e-9), ("mean_mu_hat", doc["mu_x"] + 6 * doc["mc_se_mean"]),
                       ("variance_ratio", 3.0)):
        assert checks.check_simulate(0, json.dumps({**doc, key: wrong}), survey, 10, 50, 5)
    assert checks.check_verify(1, "PASS a: x\n" * 7 + "FAIL b: y\nverification FAILED\n")
    assert checks.check_table(0, checks.README_TABLE.replace("0.1413", "0.1414"))


def test_probes_nest_replicates_under_run_replicates_and_are_restored():
    from rrkit import privacy, simulation

    originals = (simulation.draw_responses, simulation.ResponseSample, privacy.alpha_measure)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        tracer.begin_op(1)
        run.run_in_process(["simulate", "--survey", run.survey_path(run.SURVEY_FILES[0]),
                            "--n", "10", "--replicates", "40"])
    finally:
        tracer.restore()
    assert (simulation.draw_responses, simulation.ResponseSample, privacy.alpha_measure) == originals
    spans = tracer.drain()
    runs = [s for s in spans if s[tracing.NAME] == "simulation.run_replicates"]
    assert len(runs) == 1
    replicates = [s for s in spans if s[tracing.NAME] == "simulation.simulate_survey"]
    assert len(replicates) == 40
    assert {s[tracing.PARENT] for s in replicates} == {runs[0][tracing.ID]}


def test_command_line_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli_session", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["metrics"].keys() == run.END_TO_END.keys()


def test_refuses_to_run_without_the_rrkit_sources():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "mc_small_n", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
