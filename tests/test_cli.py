"""End-to-end CLI behavior: outputs, exit codes, structured errors, determinism."""

import ast
import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rrkit.cli as cli
import rrkit.estimation as estimation
import rrkit.privacy as privacy
import rrkit.simulation as simulation
from rrkit.cli import main

from conftest import SURVEY_DIR, variance_and_unweighted_mean

CANONICAL_CSV = (
    "m,0.1,0.2,0.3,0.4\n"
    "3,0.1413,0.2941,0.4494,0.5970\n"
    "4,0.1099,0.2381,0.3797,0.5263\n"
    "5,0.0899,0.2000,0.3288,0.4706\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr_code(err):
    return json.loads(err)["code"]


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def survey_m2(tmp_path):
    return write_json(
        tmp_path / "m2.json",
        {"values": [0, 1], "stigmatizing": [True, True], "pi": [0.3, 0.7]},
    )


@pytest.fixture
def survey_beta(tmp_path):
    return write_json(
        tmp_path / "beta.json",
        {"values": [0, 1, 2], "stigmatizing": [False, True, True], "pi": [0.5, 0.3, 0.2]},
    )


# --- design -------------------------------------------------------------------


def test_design_worked_example_1(capsys, survey_all_stig_m4):
    code, out, _ = run(capsys, "design", "--survey", str(survey_all_stig_m4))
    assert code == 0
    doc = json.loads(out)
    assert round(doc["p0"], 4) == 0.1099
    assert doc["mode"] == "all_stigmatizing"


def test_design_worked_example_2(capsys, survey_one_nonstig_m3):
    code, out, _ = run(capsys, "design", "--survey", str(survey_one_nonstig_m3))
    assert code == 0
    doc = json.loads(out)
    assert round(doc["p0"], 4) == 0.1639
    assert doc["t"] == 1


def test_design_refuses_a_survey_of_strings(capsys, tmp_path):
    # read as numbers and truthy flags, this document designed p0 = 0.1413
    survey = write_json(tmp_path / "strings.json", {
        "values": ["0", "1", "2"],
        "stigmatizing": ["false", "true", "true"],
        "privacy": {"mode": "all_stigmatizing", "xi": "0.1"},
    })
    code, out, err = run(capsys, "design", "--survey", survey)
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert stderr_code(err) == "BAD_SUPPORT"


def test_design_from_bare_flags(capsys):
    code, out, _ = run(capsys, "design", "--m", "2", "--xi", "0.2")
    assert code == 0
    assert round(json.loads(out)["p0"], 4) == 0.3846


@pytest.mark.parametrize("m", [2, 3, 5, 9])
@pytest.mark.parametrize("xi", ["0.1", "0.35"])
def test_design_m_certificate_equals_the_survey_certificate(capsys, tmp_path, m, xi):
    survey = write_json(
        tmp_path / "all.json",
        {"values": list(range(m)), "stigmatizing": [True] * m,
         "privacy": {"mode": "all_stigmatizing", "xi": float(xi)}},
    )
    by_m = run(capsys, "design", "--m", str(m), "--xi", xi)
    assert by_m[0] == 0 and by_m == run(capsys, "design", "--survey", survey)


def test_design_m_builds_no_support(capsys):
    # a support of a million values once took about 2 s and 106 MB traced
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "design", "--m", "1000000", "--xi", "0.1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["m"] == 10**6
    assert peak < 2**20


@pytest.mark.parametrize("m", [str(2**53 + 1), "1" + "0" * 320], ids=["2**53+1", "10**320"])
@pytest.mark.parametrize("command", ["design", "table"])
def test_m_above_2_53_is_bad_support_at_once(capsys, command, m):
    # 10**320 once overflowed the closed forms' float m: exit 4, INTERNAL_ERROR
    argv = ("design", "--m", m, "--xi", "0.1") if command == "design" else ("table", "--m", f"3,{m}")
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out, stderr_code(err)) == (cli.EXIT_VALIDATION, "", "BAD_SUPPORT")
    largest = ("design", "--m", str(2**53), "--xi", "0.1") if command == "design" else (
        "table", "--m", str(2**53))
    assert run(capsys, *largest)[0] == 0


def test_design_xi_ge_c_is_validation_failure(capsys, tmp_path):
    survey = write_json(
        tmp_path / "bad.json",
        {
            "values": [0, 1, 2],
            "stigmatizing": [False, True, True],
            "privacy": {
                "mode": "nonstigmatizing_subset",
                "xi": 0.2,
                "c": 0.15,
                "nonstigmatizing": [0],
            },
        },
    )
    code, out, err = run(capsys, "design", "--survey", survey)
    assert code == 2
    assert out == ""
    assert stderr_code(err) == "XI_GE_C"


# an all-stigmatizing m = 4 survey at xi = 5e-324, where p0 underflows to 0,
# and a subset survey at xi = 1e-20, c = 0.5, where p0 rounds to 1
P0_ROUNDS_TO_0 = {
    "values": [0, 1, 2, 3],
    "stigmatizing": [True] * 4,
    "pi": [0.4, 0.3, 0.2, 0.1],
    "privacy": {"mode": "all_stigmatizing", "xi": 5e-324},
}
P0_ROUNDS_TO_1 = {
    "values": [0, 1, 2],
    "stigmatizing": [False, True, True],
    "pi": [0.5, 0.3, 0.2],
    "privacy": {"mode": "nonstigmatizing_subset", "xi": 1e-20, "c": 0.5, "nonstigmatizing": [0]},
}


@pytest.mark.parametrize(
    "argv, survey, named",
    [
        (["design", "--m", "4", "--xi", "5e-324"], None, "m=4, xi=5e-324"),
        (["table", "--m", "4", "--xi", "5e-324"], None, "m=4, xi=5e-324"),
        (["design"], P0_ROUNDS_TO_0, "m=4, xi=5e-324"),
        (["privacy"], P0_ROUNDS_TO_0, "m=4, xi=5e-324"),
        (["estimate"], P0_ROUNDS_TO_0, "m=4, xi=5e-324"),
        (["design"], P0_ROUNDS_TO_1, "m=3, xi=1e-20, c=0.5"),
        (["privacy"], P0_ROUNDS_TO_1, "m=3, xi=1e-20, c=0.5"),
        (["estimate"], P0_ROUNDS_TO_1, "m=3, xi=1e-20, c=0.5"),
    ],
    ids=["design-m", "table", "design-0", "privacy-0", "estimate-0", "design-1", "privacy-1",
         "estimate-1"],
)
def test_a_designed_p0_that_rounds_to_0_or_1_is_xi_out_of_range(capsys, tmp_path, argv, survey, named):
    if survey is not None:
        argv = [*argv, "--survey", write_json(tmp_path / "survey.json", survey)]
        if argv[0] == "estimate":
            counts = [40, 30, 20, 10][: len(survey["values"])]
            argv += ["--counts", write_json(tmp_path / "counts.json", counts)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert stderr_code(err) == "XI_OUT_OF_RANGE"
    assert named in json.loads(err)["message"]


def test_design_without_inputs(capsys):
    code, _, err = run(capsys, "design")
    assert code == 2
    assert stderr_code(err) == "BAD_ARGS"


@pytest.mark.parametrize(
    "flags", [("--m", "10"), ("--xi", "0.3"), ("--m", "10", "--xi", "0.3")],
    ids=["m", "xi", "m-and-xi"],
)
def test_design_refuses_a_survey_together_with_m_or_xi(capsys, survey_one_nonstig_m3, flags):
    # these once printed the survey's m = 3 certificate and dropped the flags
    code, out, err = run(capsys, "design", "--survey", str(survey_one_nonstig_m3), *flags)
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert stderr_code(err) == "BAD_ARGS"


def test_missing_survey_file_is_io_error(capsys, tmp_path):
    code, _, err = run(capsys, "design", "--survey", str(tmp_path / "missing.json"))
    assert code == 3
    assert stderr_code(err) == "IO_ERROR"


# --- table --------------------------------------------------------------------


def test_table_reproduces_canonical_grid(capsys):
    code, out, _ = run(capsys, "table", "--m", "3,4,5", "--xi", "0.1,0.2,0.3,0.4")
    assert code == 0
    assert out == CANONICAL_CSV


def test_table_default_grid_is_the_canonical_one(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    assert out == CANONICAL_CSV


def test_table_byte_identical_across_runs(capsys):
    _, first, _ = run(capsys, "table")
    _, second, _ = run(capsys, "table")
    assert first == second


def test_table_json_format(capsys):
    code, out, _ = run(capsys, "table", "--m", "2", "--xi", "0.2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"xi": [0.2], "rows": [{"m": 2, "p0": [0.3846]}]}


def test_table_empty_grid(capsys):
    code, _, err = run(capsys, "table", "--m", "", "--xi", "0.1")
    assert code == 2
    assert stderr_code(err) == "BAD_GRID"


def test_table_garbage_grid(capsys):
    code, _, err = run(capsys, "table", "--m", "3;4")
    assert code == 2
    assert stderr_code(err) == "BAD_GRID"


# --- simulate -----------------------------------------------------------------


def test_simulate_summary_and_determinism(capsys, survey_m2, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code, _, _ = run(
            capsys,
            "simulate",
            "--survey",
            survey_m2,
            "--n",
            "100",
            "--replicates",
            "50",
            "--seed",
            "5",
            "--p",
            "0.5",
            "--out",
            str(out),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["n"] == 100 and doc["replicates"] == 50 and doc["seed"] == 5
    assert doc["mu_x"] == pytest.approx(0.7)
    assert doc["var_mu_theoretical"] == pytest.approx(0.0096)
    assert abs(doc["mean_mu_hat"] - 0.7) < 0.1


def test_simulate_thread_count_does_not_change_output(capsys, survey_m2, tmp_path, monkeypatch):
    outputs = []
    for threads in ("1", "4"):
        monkeypatch.setenv("RRKIT_THREADS", threads)
        out = tmp_path / f"t{threads}.json"
        csv = tmp_path / f"t{threads}.csv"
        code, _, _ = run(
            capsys,
            "simulate",
            "--survey",
            survey_m2,
            "--n",
            "80",
            "--replicates",
            "30",
            "--seed",
            "123",
            "--p",
            "0.4",
            "--out",
            str(out),
            "--replicate-csv",
            str(csv),
        )
        assert code == 0
        outputs.append((out.read_bytes(), csv.read_bytes()))
    assert outputs[0] == outputs[1]


def test_simulate_replicate_csv_layout(capsys, survey_m2, tmp_path):
    csv = tmp_path / "reps.csv"
    run(
        capsys,
        "simulate",
        "--survey",
        survey_m2,
        "--n",
        "50",
        "--replicates",
        "4",
        "--seed",
        "1",
        "--p",
        "0.5",
        "--replicate-csv",
        str(csv),
    )
    lines = csv.read_text().splitlines()
    assert lines[0] == "replicate,mu_hat"
    assert len(lines) == 5
    assert lines[1].startswith("0,")


def test_simulate_single_replicate_has_null_variance(capsys, survey_m2):
    code, out, _ = run(
        capsys,
        "simulate",
        "--survey",
        survey_m2,
        "--n",
        "50",
        "--replicates",
        "1",
        "--seed",
        "1",
        "--p",
        "0.5",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["var_mu_hat_empirical"] is None
    assert doc["variance_ratio"] is None


def test_simulate_requires_pi(capsys, tmp_path):
    survey = write_json(
        tmp_path / "nopi.json", {"values": [0, 1], "stigmatizing": [True, True]}
    )
    code, _, err = run(
        capsys, "simulate", "--survey", survey, "--n", "10", "--p", "0.5"
    )
    assert code == 2
    assert stderr_code(err) == "MISSING_PI"


def test_simulate_refuses_proportions_summing_past_the_largest_float(capsys, tmp_path):
    # once INTERNAL_ERROR and exit 4, from math.fsum's OverflowError
    doc = {"values": [0, 1], "stigmatizing": [True, True], "pi": [1e308, 1e308]}
    survey = write_json(tmp_path / "huge.json", doc)
    code, out, err = run(capsys, "simulate", "--survey", survey, "--n", "10", "--p", "0.5")
    assert (code, out) == (2, "")
    assert stderr_code(err) == "BAD_PI"


def test_simulate_requires_some_device_parameter(capsys, survey_m2):
    code, _, err = run(capsys, "simulate", "--survey", survey_m2, "--n", "10")
    assert code == 2
    assert stderr_code(err) == "MISSING_P"


def test_simulate_designed_p_from_policy(capsys, survey_one_nonstig_m3):
    code, out, _ = run(
        capsys,
        "simulate",
        "--survey",
        str(survey_one_nonstig_m3),
        "--n",
        "50",
        "--replicates",
        "3",
        "--seed",
        "0",
    )
    assert code == 0
    assert json.loads(out)["p"] == pytest.approx(0.16393442622950816)


def test_simulate_near_p_one_with_large_m_leaves_stderr_empty(tmp_path):
    # truthful draws score below -2**63 before the cast to an index; the run
    # must not print a cast warning in a fresh interpreter's default filters
    m = 2000
    survey = write_json(
        tmp_path / "m2000.json",
        {"values": list(range(m)), "stigmatizing": [True] * m, "pi": [1.0 / m] * m},
    )
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in ("RRKIT_THREADS", "PYTHONWARNINGS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "rrkit", "simulate", "--survey", survey, "--n", "50",
         "--replicates", "3", "--p", "0.9999999999999999"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["n"] == 50


def test_simulate_unwritable_out_is_io_error(capsys, survey_m2, tmp_path):
    code, _, err = run(
        capsys,
        "simulate",
        "--survey",
        survey_m2,
        "--n",
        "10",
        "--replicates",
        "2",
        "--p",
        "0.5",
        "--out",
        str(tmp_path / "no-such-dir" / "x.json"),
    )
    assert code == 3
    assert stderr_code(err) == "IO_ERROR"


def test_simulate_unwritable_replicate_csv_leaves_stdout_empty(capsys, survey_m2, tmp_path):
    # the summary once reached stdout before the CSV failed
    code, out, err = run(
        capsys, "simulate", "--survey", survey_m2, "--n", "10", "--replicates", "2", "--p", "0.5",
        "--replicate-csv", str(tmp_path / "no-such-dir" / "x.csv"),
    )
    assert (code, out) == (3, "")
    assert stderr_code(err) == "IO_ERROR"


@pytest.mark.parametrize(
    "n, replicates", [("10000000000000", "1"), ("10", "10000000000000")]
)
def test_simulate_over_memory_budget_is_refused_before_allocating(
    capsys, survey_m2, monkeypatch, n, replicates
):
    # no worker pool may start: the refusal comes before any replicate runs
    monkeypatch.setattr(simulation, "ThreadPoolExecutor", None)
    code, out, err = run(
        capsys, "simulate", "--survey", survey_m2, "--n", n, "--replicates", replicates,
        "--p", "0.5",
    )
    assert code == 2
    assert out == ""
    assert stderr_code(err) == "RESOURCE_LIMIT"


@pytest.mark.parametrize("p", ["1e-320", "1e-300", "1e-160"])
def test_p_whose_results_are_not_finite_is_refused(capsys, survey_m2, tmp_path, p):
    # 1e-320: (w - q) / p overflows too; 1e-300: n*p*p underflows to 0;
    # 1e-160: the variances overflow to infinity
    code, out, err = run(
        capsys, "simulate", "--survey", survey_m2, "--n", "10", "--replicates", "5", "--p", p
    )
    assert (code, out) == (2, "")
    assert stderr_code(err) == "NONFINITE_RESULT"
    counts = write_json(tmp_path / "c.json", [4, 6])
    code, out, err = run(capsys, "estimate", "--survey", survey_m2, "--counts", counts, "--p", p)
    assert (code, out) == (2, "")
    assert stderr_code(err) == "NONFINITE_RESULT"


@pytest.mark.filterwarnings("error")
def test_estimate_and_simulate_at_extreme_p_raise_no_warning(capsys, survey_m2, tmp_path):
    # a warning, raised here as an error, would end the command INTERNAL_ERROR
    counts = write_json(tmp_path / "c.json", [4, 6])
    for p, expected in (("1e-320", 2), ("1e-300", 2), ("1e-160", 2), ("1e-100", 0), ("0.9999999999999999", 0)):
        for argv in (
            ("simulate", "--survey", survey_m2, "--n", "10", "--replicates", "5"),
            ("estimate", "--survey", survey_m2, "--counts", counts),
        ):
            code, _, err = run(capsys, *argv, "--p", p)
            assert code == expected, (argv[0], p, err)


def test_small_p_with_finite_results_prints_strict_json(capsys, survey_m2, tmp_path):
    def strict(text):
        return json.loads(text, parse_constant=lambda c: pytest.fail(f"non-JSON {c}"))

    code, out, _ = run(
        capsys, "simulate", "--survey", survey_m2, "--n", "10", "--replicates", "5",
        "--p", "1e-100",
    )
    assert code == 0
    assert strict(out)["var_mu_theoretical"] > 1e190
    counts = write_json(tmp_path / "c.json", [4, 6])
    code, out, _ = run(capsys, "estimate", "--survey", survey_m2, "--counts", counts, "--p", "1e-100")
    assert code == 0
    assert strict(out)["var_mu_plugin"] > 1e190


def test_kernel_self_check_failure_is_internal_error(capsys, survey_m2, monkeypatch):
    original = simulation.replicate_words
    monkeypatch.setattr(
        simulation, "replicate_words", lambda seed, start, stop: original(seed, start + 1, stop + 1)
    )
    code, out, err = run(
        capsys, "simulate", "--survey", survey_m2, "--n", "20", "--replicates", "4", "--p", "0.5"
    )
    assert (code, out) == (cli.EXIT_INTERNAL, "")
    doc = json.loads(err)
    assert doc["code"] == "INTERNAL_ERROR"
    assert doc["message"].startswith("RuntimeError: block kernel disagrees")


# --- estimate -----------------------------------------------------------------


def test_estimate_worked_example(capsys, survey_m2, tmp_path):
    counts = write_json(tmp_path / "c.json", [40, 60])
    code, out, _ = run(capsys, "estimate", "--survey", survey_m2, "--counts", counts, "--p", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["mu_hat"] == pytest.approx(0.7)
    assert doc["flags"] == []


def test_estimate_flags_out_of_range(capsys, survey_m2, tmp_path):
    counts = write_json(tmp_path / "c.json", [10, 90])
    code, out, _ = run(capsys, "estimate", "--survey", survey_m2, "--counts", counts, "--p", "0.5")
    assert code == 0
    doc = json.loads(out)
    np.testing.assert_allclose(doc["pi_hat_raw"], [-0.3, 1.3], atol=1e-12)
    assert doc["flags"] == ["RAW_OUT_OF_RANGE"]


def test_estimate_dimension_mismatch(capsys, survey_m2, tmp_path):
    counts = write_json(tmp_path / "c.json", [10, 20, 30])
    code, _, err = run(capsys, "estimate", "--survey", survey_m2, "--counts", counts, "--p", "0.5")
    assert code == 2
    assert stderr_code(err) == "DIMENSION_MISMATCH"


def test_estimate_bad_counts_file(capsys, survey_m2, tmp_path):
    counts = tmp_path / "c.json"
    counts.write_text("not json")
    code, _, err = run(
        capsys, "estimate", "--survey", survey_m2, "--counts", str(counts), "--p", "0.5"
    )
    assert code == 2
    assert stderr_code(err) == "BAD_COUNTS"


# files that are not UTF-8, hold an integer past Python's 4 300-digit limit,
# or nest arrays past the recursion limit; each once ended INTERNAL_ERROR
HOSTILE_JSON_FILES = {
    "utf16_bom": b"\xff\xfe[1, 2]",
    "5000_digits": b"[" + b"9" * 5000 + b", 1]",
    "deep_nesting": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("content", HOSTILE_JSON_FILES.values(), ids=HOSTILE_JSON_FILES)
@pytest.mark.parametrize("kind", ["survey", "counts"])
def test_a_file_that_does_not_read_as_json_is_refused_with_its_code(
    capsys, survey_beta, tmp_path, kind, content
):
    path = tmp_path / "hostile.json"
    path.write_bytes(content)
    if kind == "survey":
        expected = "BAD_SURVEY"
        counts = write_json(tmp_path / "c.json", [4, 6, 5])
        argvs = [
            ["design", "--survey", str(path)],
            ["privacy", "--survey", str(path)],
            ["simulate", "--survey", str(path), "--n", "5", "--replicates", "2"],
            ["estimate", "--survey", str(path), "--counts", counts],
        ]
    else:
        expected = "BAD_COUNTS"
        argvs = [["estimate", "--survey", survey_beta, "--counts", str(path), "--p", "0.5"]]
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        doc = json.loads(err)
        assert doc["code"] == expected and str(path) in doc["message"], argv


@pytest.mark.parametrize(
    "counts",
    # the first once ended INTERNAL_ERROR (int too large to convert to float);
    # the second printed a variance computed from an n that float64 rounds
    ["[" + "9" * 400 + ", 1, 1]", "[18446744073709551616, 1, 1]"],
    ids=["400_digits", "2_64"],
)
def test_estimate_refuses_a_sample_size_past_2_53(capsys, survey_beta, tmp_path, counts):
    path = tmp_path / "c.json"
    path.write_text(counts)
    code, out, err = run(capsys, "estimate", "--survey", survey_beta, "--counts", str(path), "--p", "0.5")
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert doc["code"] == "BAD_COUNTS" and "2**53" in doc["message"]


def test_estimate_where_every_raw_estimate_rounds_to_zero_is_refused(capsys, survey_m2, tmp_path):
    # at p = 1e-17, 1 - p rounds to 1, so equal counts leave every raw
    # estimate 0 and no truncated estimate; this once ended INTERNAL_ERROR
    counts = write_json(tmp_path / "c.json", [5, 5])
    code, out, err = run(capsys, "estimate", "--survey", survey_m2, "--counts", counts, "--p", "1e-17")
    assert (code, out) == (2, "")
    assert stderr_code(err) == "NONFINITE_RESULT" and "pi_hat_truncated" in err


@pytest.mark.parametrize(
    "values, counts, what",
    [([1e308, 1.5e308], [0, 5], "mu_hat"), ([0, 1e200], [2, 3], "var_mu_plugin")],
    ids=["mean", "square"],
)
def test_estimate_on_a_support_too_wide_names_its_scale(capsys, tmp_path, values, counts, what):
    # at p = 0.5 every raw proportion is finite: the mean's sum overflows, or
    # the plug-in variance's squares do, and neither reads p
    survey = write_json(
        tmp_path / "wide.json", {"values": values, "stigmatizing": [True, True], "pi": [0.5, 0.5]}
    )
    path = write_json(tmp_path / "c.json", counts)
    code, out, err = run(capsys, "estimate", "--survey", survey, "--counts", path, "--p", "0.5")
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert doc["code"] == "NONFINITE_RESULT" and doc["message"].startswith(f"{what} is inf")
    assert "scale" in doc["message"] and "p is too close" not in doc["message"]


def test_estimate_at_a_p_near_0_names_p(capsys, survey_m2, tmp_path):
    # the raw proportions and the mean are finite; n * p * p underflows to 0
    counts = write_json(tmp_path / "c.json", [4, 6])
    code, out, err = run(capsys, "estimate", "--survey", survey_m2, "--counts", counts, "--p", "1e-300")
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert doc["code"] == "NONFINITE_RESULT" and doc["message"].startswith("var_mu_plugin is inf")
    assert "p is too close to 0" in doc["message"] and "scale" not in doc["message"]


# --- privacy ------------------------------------------------------------------


def test_privacy_alpha_example(capsys, survey_m2):
    code, out, _ = run(capsys, "privacy", "--survey", survey_m2, "--p", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "all_stigmatizing"
    assert doc["alpha"] == pytest.approx(0.2625)
    assert doc["posterior"][0][0] == pytest.approx(0.5625)


def test_privacy_beta_example(capsys, survey_beta):
    code, out, _ = run(capsys, "privacy", "--survey", survey_beta, "--p", "0.2")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "nonstigmatizing_subset"
    assert doc["beta"] == pytest.approx(0.408163, abs=5e-7)
    assert doc["beta_argmin"] == [1]
    assert doc["guaranteed_bound"] is None  # no prior mass floor without a policy


def test_privacy_degenerate_population(capsys, tmp_path):
    survey = write_json(
        tmp_path / "deg.json",
        {"values": [0, 1], "stigmatizing": [True, True], "pi": [1.0, 0.0]},
    )
    code, out, _ = run(capsys, "privacy", "--survey", survey, "--p", "0.5")
    assert code == 0
    assert json.loads(out)["alpha"] == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("p", ["1e-160", "6.9e-155", "1e-300"])
def test_privacy_at_a_p_whose_bound_squares_past_overflow(capsys, survey_all_stig_m4, p):
    # k = 4(1 - p)/(mp) makes (2 + k)**2 overflow a float; the bound is ~mp/4
    code, out, err = run(capsys, "privacy", "--survey", str(survey_all_stig_m4), "--p", p)
    assert (code, err) == (0, "")
    assert json.loads(out)["guaranteed_bound"] == pytest.approx(float(p), rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "values", [[0, 1e200, -1e200], [1e308, 1.7e308, -1e308]], ids=["square", "mean"]
)
def test_simulate_on_a_support_too_wide_for_its_variance_is_refused(capsys, tmp_path, values):
    survey = write_json(
        tmp_path / "wide.json",
        {"values": values, "stigmatizing": [True] * 3, "pi": [0.2, 0.5, 0.3]},
    )
    code, out, err = run(
        capsys, "simulate", "--survey", survey, "--n", "5", "--replicates", "3", "--p", "0.3"
    )
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert doc["code"] == "NONFINITE_RESULT"
    assert "scale" in doc["message"] and "p is too close" not in doc["message"]


@pytest.mark.parametrize("subset", [False, True], ids=["alpha", "beta"])
def test_privacy_over_memory_budget_is_refused_before_allocating(
    capsys, tmp_path, monkeypatch, subset
):
    # a budget of exactly a 10 x 10 posterior: m = 10 runs, m = 11 is refused
    monkeypatch.setattr(privacy, "MEMORY_BUDGET_BYTES", 10**2 * privacy.BYTES_PER_POSTERIOR_ENTRY)

    def survey(m):
        return write_json(tmp_path / f"m{m}.json", {
            "values": list(range(m)),
            "stigmatizing": [not subset or i > 0 for i in range(m)],
            "pi": [1 / m] * m,
        })

    code, out, err = run(capsys, "privacy", "--survey", survey(10), "--p", "0.3")
    assert (code, err) == (0, "") and out
    code, out, err = run(capsys, "privacy", "--survey", survey(11), "--p", "0.3")
    assert (code, out, stderr_code(err)) == (cli.EXIT_VALIDATION, "", "RESOURCE_LIMIT")


def test_privacy_bad_p(capsys, survey_m2):
    code, _, err = run(capsys, "privacy", "--survey", survey_m2, "--p", "1.5")
    assert code == 2
    assert stderr_code(err) == "BAD_DEVICE_P"


# --- verify -------------------------------------------------------------------


def test_verify_passes_and_prints_per_check_lines(capsys):
    code, out, _ = run(capsys, "verify", "--grid-step", "0.2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "verification passed"
    assert len([ln for ln in lines if ln.startswith("PASS ")]) == 8


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "--grid-step", "0.25", "--format", "json")
    assert code == 0
    assert json.loads(out)["passed"] is True


GOLDEN_M4 = str(SURVEY_DIR / "all_stigmatizing_m4.json")
GOLDEN_M3 = str(SURVEY_DIR / "one_nonstigmatizing_m3.json")

# SHA-256 of stdout. These commands compute on Python floats and never load
# numpy, so their bits do not depend on the numpy or BLAS build.
GOLDEN_STDOUT = {
    ("design", "--m", "4", "--xi", "0.1"):
        "276a227a0e2794a03ea8e98f518bffd10cd14f13687068de5b0b6cdbc4d7aff4",
    ("design", "--survey", GOLDEN_M4):
        "276a227a0e2794a03ea8e98f518bffd10cd14f13687068de5b0b6cdbc4d7aff4",
    ("design", "--survey", GOLDEN_M3):
        "a20d42c874f1c52c01df3e2b048f6b25a441d85e815425681b4e4264026324c5",
    ("table",):
        "6ac74af7b4014d12438485ed9c55dc6be1652447ca9a8f5ef62d539d27d879f9",
    ("table", "--format", "json"):
        "0d359959a90c74741b8ba82750a1b283b44c0fd9eef6e9b488619e4848c16c61",
    ("table", "--m", "2,3,17", "--xi", "0.05,0.3"):
        "b948e4ada3ae5bfcaa35a378c3845fa5f35b08e88c106d3249aaf07670d235ed",
    ("privacy", "--survey", GOLDEN_M4):
        "7d2cd9b13f1d482aaf95361d6935eaccb46dee9c4cef16eb399359f5e207c832",
    ("privacy", "--survey", GOLDEN_M3):
        "81ff9fa52a625b3d5cf97a62d8be1a7c4b600c9eafcd64064b42e561de9826fd",
    ("privacy", "--survey", GOLDEN_M4, "--p", "0.3"):
        "f9836e146ec2b2a3055ab7c054b77c881e5252bdbda9921065584a870df3d33d",
    ("privacy", "--survey", GOLDEN_M3, "--p", "1e-4"):
        "f4d7b4b58206e67f9e14cf8a1df0c62db13428fc2ff48703a1937d77981d7610",
    ("estimate", "--survey", GOLDEN_M4, "--counts", "[30, 25, 25, 20]"):
        "8d55ae29802020369c3074cde7725891de69fd913bb6c3ff1a41e7c3cbd8d2f7",
    ("estimate", "--survey", GOLDEN_M3, "--counts", "[50, 30, 20]", "--p", "0.3"):
        "d71c49ccd40cd82c3562ecc33056f7d6a68e68ba2ea0f2773273aa40c36c0d2b",
}


@pytest.mark.parametrize(
    "argv, digest", GOLDEN_STDOUT.items(),
    ids=[" ".join(a.replace(str(SURVEY_DIR) + os.sep, "") for a in argv) for argv in GOLDEN_STDOUT],
)
def test_command_stdout_is_pinned_byte_for_byte(capsys, tmp_path, argv, digest):
    # a JSON array after --counts is the content of the counts file
    argv = list(argv)
    if "--counts" in argv:
        at = argv.index("--counts") + 1
        argv[at] = write_json(tmp_path / "counts.json", json.loads(argv[at]))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_simulate_and_verify_documents_keep_their_key_order(capsys):
    # their values go through BLAS dots, so only the layout is pinned
    code, out, _ = run(
        capsys, "simulate", "--survey", GOLDEN_M4, "--n", "10", "--replicates", "20", "--seed", "5"
    )
    assert code == 0
    assert list(json.loads(out)) == [
        "n", "replicates", "seed", "mu_x", "mean_mu_hat", "var_mu_hat_empirical",
        "var_mu_theoretical", "variance_ratio", "mc_se_mean", "p",
    ]
    code, out, _ = run(capsys, "verify", "--grid-step", "0.25", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["passed", "checks"]
    assert [list(check) for check in doc["checks"]] == [["name", "passed", "detail"]] * 8


def test_verify_bad_grid_step(capsys):
    code, _, err = run(capsys, "verify", "--grid-step", "0.07")
    assert code == 2
    assert stderr_code(err) == "BAD_GRID"


@pytest.mark.parametrize("step", ["0.0001", "1e-300", "0"])
def test_verify_too_fine_or_zero_grid_step(capsys, step):
    # 0.0001 would put ~5e7 points on the simplex, over oracle.MAX_GRID_POINTS,
    # and 1e-300 a count of 600 digits, which the message leaves out
    code, out, err = run(capsys, "verify", "--grid-step", step)
    assert code == 2
    assert out == ""
    assert stderr_code(err) == "BAD_GRID"
    assert len(err) < 150


def test_verify_detects_corrupted_build(capsys, monkeypatch):
    # sign-flipped final variance term: the harness must exit 1, not 0
    def corrupted(device, support, population, n):
        p = device.p
        x = support.values_array
        mu = population.mean(support)
        sigma2, xbar = variance_and_unweighted_mean(population, support)
        spread = float(np.mean((x - xbar) ** 2))
        return (p * sigma2 + (1 - p) * spread + p * (p - 1) * (mu - xbar) ** 2) / (n * p * p)

    monkeypatch.setattr(estimation, "variance_mean_theoretical", corrupted)
    code, out, _ = run(capsys, "verify", "--grid-step", "0.2")
    assert code == 1
    assert "FAIL mean_variance_identity" in out
    assert out.strip().splitlines()[-1] == "verification FAILED"


# --- argument handling ----------------------------------------------------------


@pytest.mark.parametrize("exc", [RuntimeError("boom"), MemoryError("boom")])
def test_unexpected_exception_is_internal_error(capsys, monkeypatch, exc):
    def broken(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_table", broken)
    code, out, err = run(capsys, "table")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    doc = json.loads(err)
    assert doc["code"] == "INTERNAL_ERROR"
    assert doc["message"] == f"{type(exc).__name__}: boom"
    assert "in broken" in doc["traceback"]


def test_nan_in_output_is_an_internal_error_not_json(capsys, monkeypatch):
    class NanTable:
        def to_json_dict(self):
            return {"p0": float("nan")}

    monkeypatch.setattr(cli.design_mod, "p0_table", lambda ms, xis: NanTable())
    code, out, err = run(capsys, "table", "--format", "json")
    assert (code, out) == (cli.EXIT_INTERNAL, "")
    assert json.loads(err)["message"].startswith("ValueError")


def test_no_subcommand_is_bad_args(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert stderr_code(err) == "BAD_ARGS"


def test_unknown_flag_is_bad_args(capsys):
    code, _, err = run(capsys, "table", "--bogus")
    assert code == 2
    assert stderr_code(err) == "BAD_ARGS"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["design", "--m", "4", "--xi", "-inf"], "XI_OUT_OF_RANGE"),
        (["design", "--m", "4", "--xi", "-1e-3"], "XI_OUT_OF_RANGE"),
        (["privacy", "--survey", "SURVEY", "--p", "-1e-3"], "BAD_DEVICE_P"),
        (["simulate", "--survey", "SURVEY", "--n", "5", "--p", "-inf"], "BAD_DEVICE_P"),
        (["verify", "--grid-step", "-1e-2"], "BAD_GRID"),
    ],
)
def test_a_negative_number_is_the_value_of_its_option(capsys, survey_m2, argv, expected):
    # these once read as options and ended BAD_ARGS "expected one argument"
    code, out, err = run(capsys, *[survey_m2 if arg == "SURVEY" else arg for arg in argv])
    assert (code, out) == (2, "")
    assert stderr_code(err) == expected


def test_readme_error_table_lists_every_code_the_source_can_return():
    # a code reaches a user as a literal given to ValidationError or to a
    # validator that raises it (_as_int, _unit_interval, ...), or as the
    # "code" of an error the CLI builds itself
    shape = re.compile(r"[A-Z]+(?:_[A-Z]+)+")
    src = pathlib.Path(cli.__file__).parent
    codes, literal = set(), set()
    for path in src.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        literal.update(re.findall(r'ValidationError\(\s*"([A-Z_]+)"', text))
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                found = node.args
            elif isinstance(node, ast.Dict):
                found = [v for k, v in zip(node.keys, node.values) if getattr(k, "value", None) == "code"]
            else:
                continue
            codes.update(
                c.value for c in found
                if isinstance(c, ast.Constant) and isinstance(c.value, str) and shape.fullmatch(c.value)
            )
    assert literal and literal <= codes
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"^\| `([A-Z_]+)` \| \d \|", readme, flags=re.MULTILINE))
    assert sorted(codes - documented) == []
    assert sorted(documented - codes) == []


# --- fuzz ---------------------------------------------------------------------

# finite floats out to the largest doubles, with the extremes drawn often
FUZZ_VALUE = st.one_of(
    st.floats(-1e308, 1e308),
    st.integers(-3, 3),
    st.sampled_from([1e308, -1e308, 1e200, -1e200, 5e-324]),
)
# numbers in (0, 1) down to the smallest subnormal, for p, xi and c
FUZZ_UNIT = st.one_of(
    st.floats(5e-324, 1.0, exclude_max=True),
    st.sampled_from([5e-324, 1e-320, 1e-300, 1e-160, 1e-100, 0.5, 1.0 - 2**-53]),
)
FUZZ_P = st.one_of(st.none(), FUZZ_UNIT, FUZZ_UNIT, st.floats())
# verify's grid steps: hostile ones, among them steps whose lattice on the
# 3-value simplex has more than oracle.MAX_GRID_POINTS points, and valid ones
# no finer than 0.05, so that each example stays fast
HOSTILE_GRID_STEPS = [math.nan, math.inf, -math.inf, 0.0, -0.05, 5e-324, 1e308, 0.3, 2e-4, 1e-5]
FUZZ_GRID_STEP = st.one_of(
    st.sampled_from(HOSTILE_GRID_STEPS),
    st.sampled_from([0.05, 0.1, 0.125, 0.2, 0.25, 1 / 3, 0.5, 1.0]),
    st.floats(min_value=0.05),
    st.floats(max_value=0.0),
)


def raw_or(doc):
    """``doc``, or once in six draws a raw file that does not read as JSON."""
    return st.one_of(*[st.just(doc)] * 5, st.sampled_from(list(HOSTILE_JSON_FILES.values())))


@st.composite
def survey_documents(draw):
    """Survey documents, mostly valid, with supports and proportions out to
    the extremes of a float."""
    m = draw(st.integers(2, 5))
    stigma = draw(st.one_of(st.just([True] * m), st.lists(st.booleans(), min_size=m, max_size=m)))
    values = draw(st.lists(FUZZ_VALUE, min_size=m, max_size=m, unique=True))
    doc = {"values": values, "stigmatizing": stigma}
    if draw(st.sampled_from([True, True, True, False])):
        weights = draw(
            st.lists(st.one_of(st.floats(0.0, 1.0), st.just(5e-324)), min_size=m, max_size=m)
        )
        total = math.fsum(weights)
        doc["pi"] = [w / total for w in weights] if total else weights
    nonstigmatizing = [i for i, s in enumerate(stigma) if not s]
    matching = "nonstigmatizing_subset" if nonstigmatizing else "all_stigmatizing"
    mode = draw(
        st.sampled_from([matching, matching, None, "all_stigmatizing", "nonstigmatizing_subset", "bogus"])
    )
    if mode == "all_stigmatizing":
        doc["privacy"] = {"mode": mode, "xi": draw(FUZZ_UNIT)}
    elif mode is not None:
        xi, c = draw(st.lists(FUZZ_UNIT, min_size=2, max_size=2))
        if draw(st.sampled_from([True, True, False])):
            xi, c = min(xi, c), max(xi, c)  # mostly the xi < c that subset mode needs
        doc["privacy"] = {"mode": mode, "xi": xi, "c": c, "nonstigmatizing": nonstigmatizing}
    return doc


@st.composite
def cli_invocations(draw):
    """An argument list for one command, with the survey and counts
    documents it reads; "SURVEY" and "COUNTS" stand for their paths."""
    command = draw(st.sampled_from(["design", "table", "privacy", "estimate", "simulate", "verify"]))
    survey = draw(survey_documents())
    counts = None
    if command == "verify":
        argv = ["verify", "--grid-step", repr(draw(FUZZ_GRID_STEP))]
        argv += ["--format", draw(st.sampled_from(["text", "json"]))]
    elif command == "design":
        if draw(st.booleans()):
            argv = ["design", "--survey", "SURVEY"]
        else:
            m = draw(st.one_of(st.integers(-1, 6), st.sampled_from([2**53, 2**53 + 1])))
            argv = ["design", "--m", str(m), "--xi", repr(draw(FUZZ_UNIT))]
    elif command == "table":
        ms = draw(st.lists(st.integers(-1, 2**53), min_size=1, max_size=3))
        xis = draw(st.lists(FUZZ_UNIT, min_size=1, max_size=3))
        argv = ["table", "--m", ",".join(map(str, ms)), "--xi", ",".join(map(repr, xis))]
        argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    else:
        argv = [command, "--survey", "SURVEY"]
        if command == "estimate":
            m = len(survey["values"]) + draw(st.sampled_from([0, 0, 0, -1, 1]))
            counts = draw(st.lists(st.integers(0, 10**6), min_size=m, max_size=m))
            if counts and draw(st.sampled_from([False, False, False, True])):
                counts[-1] = 2**53  # past the cap on n unless every other count is 0
            counts = draw(raw_or(counts))
            argv += ["--counts", "COUNTS"]
        elif command == "simulate":
            argv += ["--n", str(draw(st.integers(0, 5))), "--replicates", str(draw(st.integers(0, 3)))]
            argv += ["--seed", str(draw(st.integers(-1, 2**64)))]
            if draw(st.sampled_from([False, False, False, True])):
                argv += ["--replicate-csv", "UNWRITABLE"]
        p = draw(FUZZ_P)
        if p is not None:
            argv += ["--p", repr(p)]
    survey = draw(raw_or(survey))
    return argv, survey, counts


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(invocation=cli_invocations())
def test_any_invocation_exits_with_a_contract_code_and_structured_error(tmp_path, invocation):
    # each example rewrites the two files it reads
    argv, survey, counts = invocation
    paths = {"UNWRITABLE": str(tmp_path / "no-such-dir" / "x.csv")}
    for key, doc in (("SURVEY", survey), ("COUNTS", counts)):
        path = tmp_path / f"{key.lower()}.json"
        if isinstance(doc, bytes):
            path.write_bytes(doc)
            paths[key] = str(path)
        elif doc is not None:
            paths[key] = write_json(path, doc)
    assert_exit_contract([paths.get(arg, arg) for arg in argv])


@pytest.mark.parametrize("step", HOSTILE_GRID_STEPS, ids=repr)
def test_verify_keeps_the_exit_contract_on_every_hostile_grid_step(step):
    # the fuzz property draws these too, but not each of them in its examples
    assert_exit_contract(["verify", "--grid-step", repr(step)])


def assert_exit_contract(argv):
    """``main(argv)`` exits 0 to 3, with one JSON object holding ``code`` and
    ``message`` on stderr on failure, nothing on stderr on success and
    nothing on stdout on exit 2 or 3."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        # a warning, which a user would see on stderr, fails the command instead
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 1, 2, 3), err.getvalue()
    if code in (2, 3):
        # a refused command prints nothing
        assert out.getvalue() == ""
    if code:
        doc = json.loads(err.getvalue())
        assert isinstance(doc, dict) and {"code", "message"} <= set(doc), doc
    else:
        assert err.getvalue() == "" and out.getvalue()
