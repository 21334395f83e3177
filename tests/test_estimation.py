"""Estimators and their exact variances.

The variance closed forms are pinned against independent oracles: the
multinomial moment identity, full outcome enumeration, and two hand-computed
canonical values. Two deliberately wrong variants — sign-flipped final terms
that a careless transcription would produce — are asserted to disagree, so a
regression toward them cannot pass silently.
"""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrkit import Device, PopulationModel, ResponseSample, SupportSpec, ValidationError
from rrkit.estimation import (
    RAW_OUT_OF_RANGE,
    estimate_mean,
    estimate_proportions,
    estimate_report,
    mean_estimates,
    total_variance_proportions_theoretical,
    variance_mean_plugin,
    variance_mean_theoretical,
)
from rrkit.oracle import (
    enumeration_moments,
    multinomial_variance_oracle,
    response_distribution_oracle,
)
from rrkit.simulation import SEED_CHUNK


def test_raw_proportions_by_hand(device_half2):
    raw, truncated = estimate_proportions(ResponseSample(counts=(40, 60)), device_half2)
    np.testing.assert_allclose(raw, [0.3, 0.7], atol=1e-15)
    np.testing.assert_allclose(truncated, [0.3, 0.7], atol=1e-15)


def test_raw_proportions_can_leave_the_simplex(device_half2):
    raw, truncated = estimate_proportions(ResponseSample(counts=(10, 90)), device_half2)
    np.testing.assert_allclose(raw, [-0.3, 1.3], atol=1e-12)
    np.testing.assert_allclose(truncated, [0.0, 1.0], atol=1e-15)


def test_mean_by_hand(device_half2, support2):
    assert estimate_mean(ResponseSample(counts=(40, 60)), device_half2, support2) == pytest.approx(0.7)


def test_mean_plugin_at_expectation_recovers_truth(support3):
    # counts chosen so that w equals lambda exactly: lambda = (11/30, 49/150, 46/150)
    d = Device(p=0.2, m=3)
    sample = ResponseSample(counts=(55, 49, 46))
    assert estimate_mean(sample, d, support3) == pytest.approx(0.7, abs=1e-12)


@given(
    counts=st.lists(st.integers(min_value=0, max_value=10_000), min_size=2, max_size=6).filter(
        lambda c: sum(c) > 0
    ),
    p=st.floats(min_value=0.01, max_value=0.99),
    shift=st.floats(min_value=-1e6, max_value=1e6),
)
def test_mean_is_bitwise_the_report_mean(counts, p, shift):
    # the lean mean path must not drift from the full report path
    m = len(counts)
    support = SupportSpec(values=tuple(shift + 0.7 * i for i in range(m)), stigma=(True,) * m)
    sample = ResponseSample(counts=tuple(counts))
    d = Device(p=p, m=m)
    assert estimate_mean(sample, d, support) == estimate_report(sample, d, support).mu_hat


def _assert_block_estimates_are_each_rows_own(proportions, device, x):
    """The block's estimates, C- or Fortran-ordered, equal byte for byte each
    row's estimated alone, as a 1-D row and as a block of one row."""
    block = mean_estimates(proportions, device, x)
    fortran = mean_estimates(np.asfortranarray(proportions), device, x)
    alone = [mean_estimates(row, device, x) for row in proportions]
    one_row = [mean_estimates(proportions[r:r + 1], device, x)[0] for r in range(len(proportions))]
    assert block.shape == (len(proportions),)
    assert block.tobytes() == fortran.tobytes() == np.array(alone).tobytes() == np.array(one_row).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, SEED_CHUNK),
    # numpy's pairwise sum adds runs of 8 and splits past 128 entries
    m=st.one_of(
        st.integers(2, 20),
        st.sampled_from([7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257, 1023, 1024, 1025]),
        st.integers(2, 2_000),
    ),
    shift=st.sampled_from([0.0, -7.5, 1e6, -1e8, 3e9]),
    scale=st.sampled_from([1.0, 1e-3, 0.25, 7.5]),
    p=st.one_of(st.floats(1e-6, 1.0, exclude_max=True), st.sampled_from([1e-320, 1e-300, 1.0 - 1e-16])),
    special=st.sampled_from([0, 1, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_mean_estimates_are_each_rows_own(k, m, shift, scale, p, special, seed):
    """mean_estimates gives each row of a block the bits it has alone, on
    offset and scaled supports and with infinite or NaN raw entries."""
    rng = np.random.default_rng(seed)
    proportions = rng.multinomial(max(m, 40), np.full(m, 1.0 / m), size=k) / max(m, 40)
    # +-inf and NaN raw proportions, as p near 0 and bad counts give
    rows, cols = rng.integers(0, k, special), rng.integers(0, m, special)
    proportions[rows, cols] = rng.choice([np.inf, -np.inf, np.nan], special)
    x = shift + scale * rng.permutation(m)
    x[rng.integers(0, m)] = 0.0  # a zero value meeting an infinite entry makes NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_block_estimates_are_each_rows_own(proportions, Device(p=p, m=m), x)


def test_block_mean_estimates_are_each_rows_own_at_m_350_000():
    m = 350_000
    rng = np.random.default_rng(5)
    proportions = rng.multinomial(10 * m, np.full(m, 1.0 / m), size=3) / (10 * m)
    x = 1e8 + 0.25 * np.arange(m)
    _assert_block_estimates_are_each_rows_own(proportions, Device(p=0.3, m=m), x)


def test_mean_checks_both_dimensions(device_half2, support2, support3):
    with pytest.raises(ValidationError) as e:
        estimate_mean(ResponseSample(counts=(40, 60)), device_half2, support3)
    assert e.value.code == "DIMENSION_MISMATCH"
    with pytest.raises(ValidationError) as e:
        estimate_mean(ResponseSample(counts=(40, 30, 30)), device_half2, support2)
    assert e.value.code == "DIMENSION_MISMATCH"


def test_estimate_report_flags_out_of_range(device_half2, support2):
    rep = estimate_report(ResponseSample(counts=(10, 90)), device_half2, support2)
    assert rep.flags == (RAW_OUT_OF_RANGE,)
    rep_ok = estimate_report(ResponseSample(counts=(40, 60)), device_half2, support2)
    assert rep_ok.flags == ()


# --- theoretical variance of the mean estimator -----------------------------


def test_variance_mean_canonical_m2(device_half2, support2, pop2):
    # lambda_2(1 - lambda_2)/(n p^2) = 0.24/25
    assert variance_mean_theoretical(device_half2, support2, pop2, 100) == pytest.approx(
        0.0096, abs=1e-15
    )


def test_variance_mean_canonical_m3(device_half3, support3, pop3):
    assert variance_mean_theoretical(device_half3, support3, pop3, 100) == pytest.approx(
        0.0264333, abs=5e-8
    )


def test_variance_mean_direct_questioning_limit(support2, pop2):
    d = Device(p=1 - 1e-9, m=2)
    assert variance_mean_theoretical(d, support2, pop2, 100) == pytest.approx(0.0021, abs=1e-8)


def test_variance_mean_wrong_final_sign_is_detectably_wrong(device_half2, support2, pop2):
    """The transcription with final term p(p-1)(mu-xbar)^2 gives 0.0088 on the
    canonical example; the exact multinomial value is 0.0096. Pinned so the
    wrong variant can never sneak back in."""
    p, n = 0.5, 100
    x = support2.values_array
    mu = pop2.mean(support2)
    sigma2 = pop2.variance(support2)
    xbar = support2.unweighted_mean
    spread = float(np.mean((x - xbar) ** 2))
    wrong = (p * sigma2 + (1 - p) * spread + p * (p - 1) * (mu - xbar) ** 2) / (n * p * p)
    assert wrong == pytest.approx(0.0088, abs=1e-15)
    right = variance_mean_theoretical(device_half2, support2, pop2, n)
    assert abs(wrong - right) > 5e-4  # the two variants are far apart


def test_variance_mean_matches_moment_identity_on_grid():
    rng = np.random.default_rng(2024)
    n = 100
    for m in (2, 3, 4):
        support = SupportSpec(values=tuple(float(i) for i in range(m)), stigma=(True,) * m)
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            d = Device(p=p, m=m)
            for _ in range(5):
                pop = PopulationModel(pi=tuple(rng.dirichlet(np.ones(m))))
                lam = response_distribution_oracle(d, pop)
                x = support.values_array
                identity = float((x * x @ lam - (x @ lam) ** 2) / (n * p * p))
                closed = variance_mean_theoretical(d, support, pop, n)
                assert abs(closed - identity) <= 1e-12 * abs(identity)


@settings(max_examples=150, deadline=None)
@given(
    shift=st.one_of(st.sampled_from([1e8, -1e8, 3e9, -3e9]), st.floats(-3e9, 3e9)),
    scale=st.one_of(st.sampled_from([1e-3, 7.5]), st.floats(1e-3, 7.5)),
    p=st.floats(0.01, 0.99),
    weights=st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0]), min_size=2, max_size=6).filter(any),
)
def test_variance_mean_matches_the_oracle_on_offset_and_scaled_supports(shift, scale, p, weights):
    """Far from 0 the closed form must not cancel: at support 1e8 + {0, 1, 2}
    an uncentred form was 6.45e-10 off the oracle, and 1.2e-4 at a shift of
    -3e9 with scale 1e-3."""
    m = len(weights)
    values = tuple(shift + scale * k for k in range(m))
    support = SupportSpec(values=values, stigma=(True,) * m)
    pop = PopulationModel(pi=tuple(w / sum(weights) for w in weights))
    device = Device(p=p, m=m)
    closed = variance_mean_theoretical(device, support, pop, 100)
    reference = multinomial_variance_oracle(device, values, pop, 100)
    assert abs(closed - reference) <= 1e-12 * reference


# --- summed variance of the proportion estimators ---------------------------


def test_total_proportion_variance_canonical(device_half2, pop2):
    assert total_variance_proportions_theoretical(device_half2, pop2, 100) == pytest.approx(
        0.0192, abs=1e-15
    )


def test_total_proportion_variance_wrong_sign_is_detectably_wrong(device_half2, pop2):
    """Adding (1/m)(1/p^2 - 1) instead of subtracting gives 0.0492 here; the
    per-response moment sum gives 0.0192."""
    p, n, m = 0.5, 100, 2
    sum_sq = 0.3**2 + 0.7**2
    wrong = (1 / p**2 - sum_sq + (1 / p**2 - 1) / m) / n
    assert wrong == pytest.approx(0.0492, abs=1e-15)
    right = total_variance_proportions_theoretical(device_half2, pop2, n)
    assert abs(wrong - right) > 1e-2


def test_total_proportion_variance_vanishes_without_noise_or_uncertainty():
    d = Device(p=1 - 1e-12, m=3)
    pop = PopulationModel(pi=(1.0, 0.0, 0.0))
    assert total_variance_proportions_theoretical(d, pop, 10) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_total_proportion_variance_matches_moment_sum(m):
    rng = np.random.default_rng(7 + m)
    n = 50
    for p in (0.15, 0.4, 0.85):
        d = Device(p=p, m=m)
        pop = PopulationModel(pi=tuple(rng.dirichlet(np.ones(m))))
        lam = response_distribution_oracle(d, pop)
        identity = float(np.sum(lam * (1 - lam)) / (n * p * p))
        closed = total_variance_proportions_theoretical(d, pop, n)
        assert abs(closed - identity) <= 1e-12 * identity


# --- monotonicity in p -------------------------------------------------------


def test_variances_strictly_decreasing_in_p():
    rng = np.random.default_rng(314)
    p_grid = np.linspace(0.05, 0.95, 19)
    for _ in range(20):
        m = int(rng.integers(2, 6))
        values = tuple(np.sort(rng.normal(size=m) * 3).tolist())
        support = SupportSpec(values=values, stigma=(True,) * m)
        pop = PopulationModel(pi=tuple(rng.dirichlet(np.ones(m))))
        var_mu = [
            variance_mean_theoretical(Device(p=float(p), m=m), support, pop, 50) for p in p_grid
        ]
        var_pi = [
            total_variance_proportions_theoretical(Device(p=float(p), m=m), pop, 50)
            for p in p_grid
        ]
        assert all(a > b for a, b in zip(var_mu, var_mu[1:])), (values, pop.pi)
        assert all(a > b for a, b in zip(var_pi, var_pi[1:])), pop.pi


# --- exact unbiasedness by enumeration ---------------------------------------


def _simplex_grid(m, step=0.1):
    k = round(1 / step)
    for counts in itertools.product(range(k + 1), repeat=m - 1):
        if sum(counts) <= k:
            yield tuple(c / k for c in counts) + ((k - sum(counts)) / k,)


def test_exact_unbiasedness_full_grid():
    """E[mu_hat] = mu_X and E[pi_hat] = pi, exactly, over every multinomial
    outcome: m <= 3, n <= 4, p in {0.3, 0.5, 0.8}, pi on the 0.1-simplex grid."""
    for m in (2, 3):
        support = SupportSpec(values=tuple(float(i) for i in range(m)), stigma=(True,) * m)
        for pi in _simplex_grid(m):
            pop = PopulationModel(pi=pi)
            mu_x = pop.mean(support)
            for p in (0.3, 0.5, 0.8):
                d = Device(p=p, m=m)
                lam = response_distribution_oracle(d, pop)
                for n in (1, 2, 3, 4):

                    def mu_stat(counts):
                        return estimate_mean(ResponseSample(counts=counts), d, support)

                    mean_mu, _ = enumeration_moments(n, lam, mu_stat)
                    assert abs(mean_mu - mu_x) <= 1e-10

                    for i in range(m):

                        def pi_stat(counts, i=i):
                            raw, _ = estimate_proportions(ResponseSample(counts=counts), d)
                            return float(raw[i])

                        mean_pi, _ = enumeration_moments(n, lam, pi_stat)
                        assert abs(mean_pi - pop.pi[i]) <= 1e-10


# --- plug-in variance ---------------------------------------------------------


def test_plugin_variance_at_expectation_matches_theoretical(support3, pop3):
    d = Device(p=0.2, m=3)
    sample = ResponseSample(counts=(55, 49, 46))  # w = lambda exactly, n = 150
    plugin = variance_mean_plugin(sample, d, support3)
    theory = variance_mean_theoretical(d, support3, pop3, 150)
    assert plugin == pytest.approx(theory, abs=1e-12)


def test_plugin_variance_by_hand(device_half2, support2):
    assert variance_mean_plugin(
        ResponseSample(counts=(40, 60)), device_half2, support2
    ) == pytest.approx(0.0096, abs=1e-15)
    assert variance_mean_plugin(
        ResponseSample(counts=(50, 50)), device_half2, support2
    ) == pytest.approx(0.01, abs=1e-15)


def test_plugin_variance_survives_a_support_far_from_zero():
    # the raw-moment form Sum x^2 w - (x.w)^2 returned 0.0 here
    d = Device(p=0.5, m=3)
    sample = ResponseSample(counts=(333, 333, 334))
    base = variance_mean_plugin(sample, d, SupportSpec(values=(0.0, 1.0, 2.0), stigma=(True,) * 3))
    assert base == pytest.approx(0.002667996, rel=1e-12)
    s = 1e8
    far = SupportSpec(values=(s, s + 1.0, s + 2.0), stigma=(True,) * 3)
    assert variance_mean_plugin(sample, d, far) == pytest.approx(base, rel=1e-12)


# --- properties ----------------------------------------------------------------


@given(
    counts=st.lists(st.integers(min_value=0, max_value=500), min_size=2, max_size=6).filter(
        lambda c: sum(c) > 0
    ),
    p=st.floats(min_value=0.01, max_value=0.99),
    shift=st.integers(min_value=-(10**9), max_value=10**9),
    scale=st.sampled_from([-3.0, 0.001, 0.5, 2.0, 1e6]),
)
def test_plugin_variance_shift_invariant_and_scales_by_square(counts, p, shift, scale):
    m = len(counts)
    d = Device(p=p, m=m)
    sample = ResponseSample(counts=tuple(counts))
    values = tuple(float(v) for v in range(m))

    def var(vals):
        return variance_mean_plugin(sample, d, SupportSpec(values=vals, stigma=(True,) * m))

    base = var(values)
    # integer supports stay exact under the shift, so only the variance's own
    # rounding separates the two
    assert var(tuple(v + shift for v in values)) == pytest.approx(base, rel=1e-12, abs=1e-15)
    assert var(tuple(v * scale for v in values)) == pytest.approx(base * scale**2, rel=1e-12)



@given(
    counts=st.lists(st.integers(min_value=0, max_value=500), min_size=2, max_size=6).filter(
        lambda c: sum(c) > 0
    ),
    p=st.floats(min_value=0.01, max_value=0.99),
)
def test_raw_proportions_always_sum_to_one(counts, p):
    d = Device(p=p, m=len(counts))
    raw, truncated = estimate_proportions(ResponseSample(counts=tuple(counts)), d)
    assert abs(raw.sum() - 1.0) <= 1e-12
    assert abs(truncated.sum() - 1.0) <= 1e-9
    assert (truncated >= 0).all() and (truncated <= 1).all()


@pytest.mark.parametrize("p", [1e-300, 1e-160])
def test_variances_refuse_a_p_that_leaves_no_finite_value(support2, pop2, p):
    device = Device(p=p, m=2)
    sample = ResponseSample(counts=(4, 6))
    for compute in (
        lambda: variance_mean_theoretical(device, support2, pop2, 10),
        lambda: variance_mean_plugin(sample, device, support2),
        lambda: estimate_report(sample, device, support2),
    ):
        with pytest.raises(ValidationError) as e:
            compute()
        assert e.value.code == "NONFINITE_RESULT"
        assert f"p={p!r}" in str(e.value)


def test_estimate_report_refuses_non_finite_raw_proportions(support2):
    # (w - q) / p overflows before any variance is computed
    with pytest.raises(ValidationError) as e:
        estimate_report(ResponseSample(counts=(4, 6)), Device(p=1e-320, m=2), support2)
    assert e.value.code == "NONFINITE_RESULT"
    assert "pi_hat_raw" in str(e.value)
