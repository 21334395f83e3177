"""Self-verification: replay the closed forms against the independent oracles.

Each check recomputes a production quantity along the oracle path (joint-table
posteriors, exact multinomial enumeration, brute-force simplex search) and
compares. The production functions are deliberately resolved through their
modules at call time, so a corrupted implementation — even one patched in
after import — fails verification rather than silently agreeing with itself.
"""

from __future__ import annotations

import numpy as np

from . import design, estimation, oracle, privacy
from .model import Device, PopulationModel, ResponseSample, SupportSpec, ValidationError, _Record

# (p, pi) cases shared by several checks; supports use values 0..m-1
CROSS_CHECK_CASES: tuple[tuple[float, tuple[float, ...]], ...] = (
    (0.5, (0.3, 0.7)),
    (0.2, (0.5, 0.3, 0.2)),
    (0.8, (0.1, 0.2, 0.3, 0.4)),
    (0.3, (0.4, 0.3, 0.2, 0.1)),
)

EXACT_TOL = 1e-12
TIGHTNESS_TOL = 1e-9
# a device slightly looser than designed must break the guarantee by more than this
BREAK_MARGIN = 1e-8
# support size of the two tightness checks that search the simplex grid
GRID_M = 3


class CheckResult(_Record):
    """One self-check's name, outcome and a line of detail."""

    _fields = ("name", "passed", "detail")


class VerificationReport(_Record):
    """The outcomes of every self-check, in suite order."""

    _fields = ("checks",)
    _json_fields = ("passed", "checks")

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _unit_support(m: int, offset: float = 0.0) -> SupportSpec:
    return SupportSpec(values=tuple(offset + i for i in range(m)), stigma=(True,) * m)


def _check_posterior_matches_oracle() -> tuple[bool, str]:
    worst = 0.0
    for p, pi in CROSS_CHECK_CASES:
        device = Device(p=p, m=len(pi))
        population = PopulationModel(pi=pi)
        closed = privacy.revealing_probabilities(device, population)
        reference = oracle.bayes_posterior_oracle(device, population)
        worst = max(worst, float(np.abs(closed - reference).max()))
    return (
        worst <= EXACT_TOL,
        f"max |closed - joint-table| = {worst:.3e} over {len(CROSS_CHECK_CASES)} cases",
    )


def _check_alpha_reduced_form() -> tuple[bool, str]:
    worst = 0.0
    for p, pi in CROSS_CHECK_CASES:
        device = Device(p=p, m=len(pi))
        population = PopulationModel(pi=pi)
        full = privacy.alpha_measure(device, population).alpha
        posterior = oracle.bayes_posterior_oracle(device, population)
        reference = float(np.abs(posterior - population.pi_array[:, None]).max())
        worst = max(worst, abs(full - reference))
    return worst <= EXACT_TOL, f"max |alpha - oracle alpha| = {worst:.3e}"


def _check_mean_variance_identity() -> tuple[bool, str]:
    n = 100
    worst = 0.0
    # each case on 0..m-1, and one on a support offset by 1e8, where a closed
    # form that does not centre x cancels
    cases = [(p, pi, 0.0) for p, pi in CROSS_CHECK_CASES] + [(*CROSS_CHECK_CASES[1], 1e8)]
    for p, pi, offset in cases:
        m = len(pi)
        device = Device(p=p, m=m)
        population = PopulationModel(pi=pi)
        support = _unit_support(m, offset)
        closed = estimation.variance_mean_theoretical(device, support, population, n)
        reference = oracle.multinomial_variance_oracle(device, support.values, population, n)
        worst = max(worst, abs(closed - reference) / abs(reference))
    return (
        worst <= EXACT_TOL,
        f"max relative gap closed-form vs moment identity = {worst:.3e} at n={n}, "
        "one support offset by 1e8",
    )


def _check_enumeration_agreement() -> tuple[bool, str]:
    n, p = 3, 0.6
    device = Device(p=p, m=2)
    population = PopulationModel(pi=(0.4, 0.6))
    support = _unit_support(2)
    lam = oracle.response_distribution_oracle(device, population)

    def mu_hat(counts: tuple[int, ...]) -> float:
        return estimation.estimate_mean(ResponseSample(counts=counts), device, support)

    _, enum_var = oracle.enumeration_moments(n, lam, mu_hat)
    closed = estimation.variance_mean_theoretical(device, support, population, n)
    gap = abs(enum_var - closed) / abs(closed)
    return (
        gap <= EXACT_TOL,
        f"relative gap enumeration vs closed form = {gap:.3e} at n={n}, m=2",
    )


def _check_avg_proportion_variance() -> tuple[bool, str]:
    n = 250
    worst = 0.0
    for p, pi in CROSS_CHECK_CASES:
        m = len(pi)
        device = Device(p=p, m=m)
        population = PopulationModel(pi=pi)
        closed = estimation.total_variance_proportions_theoretical(device, population, n)
        lam = oracle.response_distribution_oracle(device, population)
        reference = float(np.sum(lam * (1.0 - lam)) / (n * p * p))
        worst = max(worst, abs(closed - reference) / abs(reference))
    return (
        worst <= EXACT_TOL,
        f"max relative gap vs per-response moments = {worst:.3e} at n={n}",
    )


def _check_alpha_guarantee_tight(grid_step: float) -> tuple[bool, str]:
    m, xi = GRID_M, 0.1
    p0 = design.p0_all_stigmatizing(m, xi)
    device = Device(p=p0, m=m)
    witness = oracle.adversarial_alpha_population(m, xi)
    search = oracle.simplex_grid_search(
        lambda pts: privacy.alpha_values(device, pts),
        m,
        grid_step,
        minimize=False,
        extra_points=[witness.pi],
    )
    at_witness = privacy.alpha_measure(device, witness).alpha
    loose = Device(p=p0 + 1e-6, m=m)
    broken = privacy.alpha_measure(loose, witness).alpha

    bound_holds = search.value <= xi + TIGHTNESS_TOL
    attained = abs(at_witness - xi) <= TIGHTNESS_TOL
    breaks = broken > xi + BREAK_MARGIN
    return bound_holds and attained and breaks, (
        f"grid max alpha = {search.value:.10f} vs xi = {xi} "
        f"({search.points_evaluated} points); witness alpha = {at_witness:.10f}; "
        f"alpha at p0+1e-6 = {broken:.10f}"
    )


def _check_beta_guarantee_tight(grid_step: float) -> tuple[bool, str]:
    m, xi, c = GRID_M, 0.10, 0.15
    nonstig = (0,)
    p0 = design.p0_nonstigmatizing(m, xi, c)
    device = Device(p=p0, m=m)
    witness = oracle.adversarial_beta_population(m, c)
    search = oracle.simplex_grid_search(
        lambda pts: privacy.beta_values(device, pts, nonstig),
        m,
        grid_step,
        minimize=True,
        mass_indices=nonstig,
        mass_floor=c,
        extra_points=[witness.pi],
    )
    at_witness = privacy.beta_measure(device, witness, nonstig).beta
    loose = Device(p=p0 + 1e-6, m=m)
    broken = privacy.beta_measure(loose, witness, nonstig).beta

    bound_holds = search.value >= xi - TIGHTNESS_TOL
    attained = abs(at_witness - xi) <= TIGHTNESS_TOL
    breaks = broken < xi - BREAK_MARGIN
    return bound_holds and attained and breaks, (
        f"grid min beta = {search.value:.10f} vs xi = {xi} "
        f"({search.points_evaluated} points); witness beta = {at_witness:.10f}; "
        f"beta at p0+1e-6 = {broken:.10f}"
    )


def _check_estimator_unbiased() -> tuple[bool, str]:
    n, p = 3, 0.5
    pi = (0.2, 0.3, 0.5)
    values = (0.0, 1.5, 4.0)
    device = Device(p=p, m=3)
    population = PopulationModel(pi=pi)
    support = SupportSpec(values=values, stigma=(True, True, True))
    lam = oracle.response_distribution_oracle(device, population)

    def mu_hat(counts: tuple[int, ...]) -> float:
        return estimation.estimate_mean(ResponseSample(counts=counts), device, support)

    expected = oracle.enumeration_expectation(n, lam, mu_hat)
    truth = population.mean(support)
    gap = abs(expected - truth)
    return (
        gap <= EXACT_TOL,
        f"|E[mu_hat] - mu_X| = {gap:.3e} by exact enumeration (n={n}, m=3)",
    )


def run_verification(grid_step: float = 0.05) -> VerificationReport:
    """Run every self-check and collect the outcomes.

    Each check returns whether it passed and a line of detail, and is
    reported under its name in the suite. A check that raises is recorded as
    failed rather than aborting the suite — a corrupted build may blow up
    anywhere, and the report should still come back. Input errors (a grid
    step that does not divide 1, or a lattice over ``oracle.MAX_GRID_POINTS``)
    are the caller's problem and propagate.
    """
    suite = (
        ("posterior_matches_oracle", _check_posterior_matches_oracle),
        ("alpha_matches_oracle", _check_alpha_reduced_form),
        ("mean_variance_identity", _check_mean_variance_identity),
        ("enumeration_agreement", _check_enumeration_agreement),
        ("total_proportion_variance", _check_avg_proportion_variance),
        ("alpha_guarantee_tight", lambda: _check_alpha_guarantee_tight(grid_step)),
        ("beta_guarantee_tight", lambda: _check_beta_guarantee_tight(grid_step)),
        ("estimator_unbiased", _check_estimator_unbiased),
    )
    # surface a bad or too fine grid step immediately, before any check runs
    oracle.grid_divisions(GRID_M, grid_step)
    checks = []
    for name, fn in suite:
        try:
            passed, detail = fn()
        except ValidationError:
            raise
        except Exception as exc:  # noqa: BLE001 - any crash means the check failed
            passed, detail = False, f"check raised {exc!r}"
        # a check may answer with numpy's bool; the record keeps Python's
        checks.append(CheckResult(name=name, passed=bool(passed), detail=detail))
    return VerificationReport(checks=tuple(checks))
