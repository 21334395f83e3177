"""Acceptance gate: ten end-to-end criteria, each with stated tolerance and budget.

Every test records exactly one ``PASS criterion N: ...`` / ``FAIL criterion N: ...``
line through the ``verdict`` fixture; the collected lines are printed in an
"acceptance criteria" section at the end of the pytest run.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import numpy as np

from rrkit import (
    Device,
    PopulationModel,
    ResponseSample,
    SupportSpec,
    design,
    estimation,
    oracle,
    privacy,
    simulation,
)
from rrkit.cli import main as cli_main

from conftest import simplex_grid_points, variance_and_unweighted_mean

CANONICAL_TABLE_CSV = (
    "m,0.1,0.2,0.3,0.4\n"
    "3,0.1413,0.2941,0.4494,0.5970\n"
    "4,0.1099,0.2381,0.3797,0.5263\n"
    "5,0.0899,0.2000,0.3288,0.4706\n"
)

GRID_MS = (2, 3, 4)
GRID_PS = tuple(round(0.1 * i, 1) for i in range(1, 10))
GRID_STEP = 0.05


def _run_cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


def _unit_support(m: int) -> SupportSpec:
    return SupportSpec(values=tuple(float(i) for i in range(m)), stigma=(True,) * m)


def _grid_cases():
    for m in GRID_MS:
        support = _unit_support(m)
        points = list(simplex_grid_points(m, GRID_STEP))
        for p in GRID_PS:
            device = Device(p=p, m=m)
            for point in points:
                yield device, support, PopulationModel(pi=tuple(point))


def test_criterion_01_design_table(verdict):
    t0 = time.perf_counter()
    code, out = _run_cli("table", "--m", "3,4,5", "--xi", "0.1,0.2,0.3,0.4")
    elapsed = time.perf_counter() - t0
    ok = code == 0 and out == CANONICAL_TABLE_CSV and elapsed < 0.1
    verdict(
        1,
        ok,
        f"design table matches all 12 canonical 4-decimal entries in {elapsed * 1000:.1f} ms",
    )


def test_criterion_02_worked_design_examples(verdict):
    t0 = time.perf_counter()
    p0_a = design.p0_all_stigmatizing(4, 0.1)
    p0_b = design.p0_nonstigmatizing(3, 0.10, 0.15)
    elapsed = time.perf_counter() - t0
    ok = round(p0_a, 4) == 0.1099 and round(p0_b, 4) == 0.1639 and elapsed < 0.1
    verdict(
        2,
        ok,
        f"p0(m=4, xi=0.1) = {p0_a:.4f}, p0(m=3, xi=0.10, c=0.15) = {p0_b:.4f} "
        f"in {elapsed * 1000:.1f} ms",
    )


def test_criterion_03_posterior_oracle_equivalence(verdict):
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for device, _, population in _grid_cases():
        closed = privacy.revealing_probabilities(device, population)
        reference = oracle.bayes_posterior_oracle(device, population)
        worst = max(worst, float(np.abs(closed - reference).max()))
        cases += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 30.0
    verdict(
        3,
        ok,
        f"max |closed posterior - joint-table posterior| = {worst:.3e} "
        f"over {cases} cases in {elapsed:.2f} s",
    )


def test_criterion_04_mean_variance_oracle_equivalence(verdict):
    t0 = time.perf_counter()
    n = 100
    worst = 0.0
    cases = 0
    for device, support, population in _grid_cases():
        closed = estimation.variance_mean_theoretical(device, support, population, n)
        reference = oracle.multinomial_variance_oracle(device, support.values, population, n)
        worst = max(worst, abs(closed - reference) / abs(reference))
        cases += 1

    # exact full-enumeration agreement at n=3, m=2
    device = Device(p=0.5, m=2)
    population = PopulationModel(pi=(0.3, 0.7))
    support = _unit_support(2)
    lam = oracle.response_distribution_oracle(device, population)

    def mu_hat(counts):
        return estimation.estimate_mean(ResponseSample(counts=counts), device, support)

    _, enum_var = oracle.enumeration_moments(3, lam, mu_hat)
    closed_small = estimation.variance_mean_theoretical(device, support, population, 3)
    enum_gap = abs(enum_var - closed_small) / abs(closed_small)

    # the sign-flipped final term (a transcription hazard) must fail detectably
    p, mu = device.p, population.mean(support)
    sigma2, xbar = variance_and_unweighted_mean(population, support)
    spread = float(np.mean((support.values_array - xbar) ** 2))
    wrong = (p * sigma2 + (1 - p) * spread + p * (p - 1) * (mu - xbar) ** 2) / (n * p * p)
    correct = estimation.variance_mean_theoretical(device, support, population, n)
    wrong_detected = abs(wrong - 0.0088) < 5e-5 and abs(correct - 0.0096) < 5e-5

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and enum_gap <= 1e-12 and wrong_detected and elapsed < 30.0
    verdict(
        4,
        ok,
        f"max relative gap = {worst:.3e} over {cases} cases; enumeration gap = "
        f"{enum_gap:.3e}; sign-flipped variant gives {wrong:.4f} != {correct:.4f} "
        f"(pinned); {elapsed:.2f} s",
    )


def test_criterion_05_total_proportion_variance_equivalence(verdict):
    t0 = time.perf_counter()
    n = 100
    worst = 0.0
    cases = 0
    for device, _, population in _grid_cases():
        closed = estimation.total_variance_proportions_theoretical(device, population, n)
        lam = oracle.response_distribution_oracle(device, population)
        reference = float(np.sum(lam * (1.0 - lam)) / (n * device.p**2))
        worst = max(worst, abs(closed - reference) / abs(reference))
        cases += 1

    device = Device(p=0.5, m=2)
    population = PopulationModel(pi=(0.3, 0.7))
    canonical = estimation.total_variance_proportions_theoretical(device, population, n)
    # sign-flipped uniformity term: + instead of -
    p, m = device.p, device.m
    pi2 = float(np.sum(population.pi_array**2))
    wrong = (1 / p**2 - pi2 + (1 / p**2 - 1) / m) / n
    pinned = abs(canonical - 0.0192) < 5e-5 and abs(wrong - 0.0492) < 5e-5

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and pinned
    verdict(
        5,
        ok,
        f"max relative gap vs per-response moment sum = {worst:.3e} over {cases} cases; "
        f"canonical value {canonical:.4f}, sign-flipped variant {wrong:.4f} (pinned); "
        f"{elapsed:.2f} s",
    )


def test_criterion_06_exact_unbiasedness(verdict):
    t0 = time.perf_counter()
    support = _unit_support(2)
    worst_mu = 0.0
    worst_pi = 0.0
    for n in (1, 2, 3, 4):
        for p in (0.3, 0.5, 0.8):
            device = Device(p=p, m=2)
            for pi in ((0.1, 0.9), (0.3, 0.7), (0.5, 0.5)):
                population = PopulationModel(pi=pi)
                lam = oracle.response_distribution_oracle(device, population)

                def mean_stat(counts):
                    return estimation.estimate_mean(
                        ResponseSample(counts=counts), device, support
                    )

                e_mu = oracle.enumeration_expectation(n, lam, mean_stat)
                worst_mu = max(worst_mu, abs(e_mu - population.mean(support)))
                for i in range(2):

                    def prop_stat(counts, i=i):
                        raw, _ = estimation.estimate_proportions(
                            ResponseSample(counts=counts), device
                        )
                        return float(raw[i])

                    e_pi = oracle.enumeration_expectation(n, lam, prop_stat)
                    worst_pi = max(worst_pi, abs(e_pi - pi[i]))
    elapsed = time.perf_counter() - t0
    ok = worst_mu <= 1e-10 and worst_pi <= 1e-10 and elapsed < 5.0
    verdict(
        6,
        ok,
        f"max |E[mu_hat] - mu_X| = {worst_mu:.3e}, max |E[pi_hat] - pi| = {worst_pi:.3e} "
        f"by exact enumeration in {elapsed:.2f} s",
    )


def test_criterion_07_monte_carlo_calibration(verdict):
    t0 = time.perf_counter()
    support = _unit_support(3)
    population = PopulationModel(pi=(0.5, 0.3, 0.2))
    device = Device(p=0.5, m=3)
    n, replicates = 500, 10_000
    config = simulation.SimulationConfig(
        support=support,
        population=population,
        device=device,
        n=n,
        replicates=replicates,
        seed=42,
    )
    summary = simulation.run_replicates(config)
    var_theory = estimation.variance_mean_theoretical(device, support, population, n)
    mean_tol = 4.0 * (var_theory / replicates) ** 0.5
    mean_gap = abs(summary.mean_mu_hat - 0.7)
    ratio_gap = abs(summary.variance_ratio - 1.0)
    elapsed = time.perf_counter() - t0
    ok = mean_gap <= mean_tol and ratio_gap <= 0.05 and elapsed < 10.0
    verdict(
        7,
        ok,
        f"|mean - 0.7| = {mean_gap:.6f} (tol {mean_tol:.6f}), variance ratio "
        f"{summary.variance_ratio:.4f} (within 5%), {replicates} replicates "
        f"in {elapsed:.2f} s",
    )


def test_criterion_08_guarantee_tightness(verdict):
    t0 = time.perf_counter()
    m, xi, c = 3, 0.1, 0.15

    p0_a = design.p0_all_stigmatizing(m, xi)
    device_a = Device(p=p0_a, m=m)

    def alpha_of(point):
        return privacy.alpha_measure(device_a, PopulationModel(pi=tuple(point))).alpha

    witness_a = oracle.adversarial_alpha_population(m, xi)
    search_a = oracle.simplex_grid_search(
        lambda pts: [alpha_of(pt) for pt in pts],
        m,
        0.01,
        minimize=False,
        extra_points=[witness_a.pi],
    )
    loose_a = privacy.alpha_measure(Device(p=p0_a + 1e-6, m=m), witness_a).alpha

    p0_b = design.p0_nonstigmatizing(m, xi, c)
    device_b = Device(p=p0_b, m=m)
    nonstig = (0,)

    def beta_of(point):
        return privacy.beta_measure(device_b, PopulationModel(pi=tuple(point)), nonstig).beta

    witness_b = oracle.adversarial_beta_population(m, c)
    search_b = oracle.simplex_grid_search(
        lambda pts: [beta_of(pt) for pt in pts],
        m,
        0.01,
        minimize=True,
        mass_indices=nonstig,
        mass_floor=c,
        extra_points=[witness_b.pi],
    )
    loose_b = privacy.beta_measure(Device(p=p0_b + 1e-6, m=m), witness_b, nonstig).beta

    elapsed = time.perf_counter() - t0
    ok = (
        search_a.value <= xi + 1e-9
        and loose_a > xi
        and tuple(witness_a.pi) == (0.45, 0.55, 0.0)
        and search_b.value >= xi - 1e-9
        and loose_b < xi
        and tuple(witness_b.pi) == (0.15, 0.85, 0.0)
        and elapsed < 10.0
    )
    verdict(
        8,
        ok,
        f"alpha grid max {search_a.value:.10f} <= {xi} at p0, breaks to "
        f"{loose_a:.10f} at p0+1e-6; beta grid min {search_b.value:.10f} >= {xi}, "
        f"breaks to {loose_b:.10f}; {elapsed:.2f} s",
    )


def test_criterion_09_monotonicity(verdict):
    t0 = time.perf_counter()
    rng = np.random.default_rng(314)
    p_grid = np.arange(0.05, 1.0, 0.05)
    n = 50
    variances_ok = True
    for _ in range(20):
        m = int(rng.integers(2, 6))
        values = tuple(float(v) for v in np.sort(rng.normal(size=m) * 3.0))
        pi = tuple(float(v) for v in rng.dirichlet(np.ones(m)))
        support = SupportSpec(values=values, stigma=(True,) * m)
        population = PopulationModel(pi=pi)
        var_mu = [
            estimation.variance_mean_theoretical(Device(p=float(p), m=m), support, population, n)
            for p in p_grid
        ]
        var_pi = [
            estimation.total_variance_proportions_theoretical(
                Device(p=float(p), m=m), population, n
            )
            for p in p_grid
        ]
        variances_ok &= all(a > b for a, b in zip(var_mu, var_mu[1:]))
        variances_ok &= all(a > b for a, b in zip(var_pi, var_pi[1:]))

    xi_grid = [0.05, 0.1, 0.2, 0.3, 0.4]
    alpha_in_xi = all(
        design.p0_all_stigmatizing(m, a) < design.p0_all_stigmatizing(m, b)
        for m in (2, 3, 4, 5)
        for a, b in zip(xi_grid, xi_grid[1:])
    )
    alpha_in_m = all(
        design.p0_all_stigmatizing(m, xi) > design.p0_all_stigmatizing(m + 1, xi)
        for xi in xi_grid
        for m in (2, 3, 4, 5)
    )
    beta_in_xi = all(
        design.p0_nonstigmatizing(3, a, 0.5) > design.p0_nonstigmatizing(3, b, 0.5)
        for a, b in zip(xi_grid, xi_grid[1:])
    )
    beta_in_c = all(
        design.p0_nonstigmatizing(3, 0.1, a) < design.p0_nonstigmatizing(3, 0.1, b)
        for a, b in zip((0.15, 0.2, 0.4, 0.6, 0.8), (0.2, 0.4, 0.6, 0.8, 0.9))
    )
    elapsed = time.perf_counter() - t0
    ok = variances_ok and alpha_in_xi and alpha_in_m and beta_in_xi and beta_in_c and elapsed < 5.0
    verdict(
        9,
        ok,
        f"both variances strictly decreasing in p for 20 random configurations; "
        f"p0 monotone in xi, m, and c in {elapsed:.2f} s",
    )


def test_criterion_10_thread_count_determinism(verdict, tmp_path):
    survey = tmp_path / "survey.json"
    survey.write_text(
        json.dumps(
            {"values": [0, 1, 2], "stigmatizing": [True, True, True], "pi": [0.5, 0.3, 0.2]}
        )
    )
    outputs = []
    for threads in ("1", "4"):
        out = tmp_path / f"summary_{threads}.json"
        csv = tmp_path / f"replicates_{threads}.csv"
        env = dict(os.environ, RRKIT_THREADS=threads)
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "rrkit",
                "simulate",
                "--survey",
                str(survey),
                "--n",
                "200",
                "--replicates",
                "100",
                "--seed",
                "7",
                "--p",
                "0.4",
                "--out",
                str(out),
                "--replicate-csv",
                str(csv),
            ],
            env=env,
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append((out.read_bytes(), csv.read_bytes()))
    ok = outputs[0] == outputs[1]
    verdict(
        10,
        ok,
        "simulate output byte-identical under RRKIT_THREADS=1 and RRKIT_THREADS=4 "
        "(summary JSON and per-replicate CSV)",
    )
