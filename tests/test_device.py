"""Response distribution and randomized draws.

The draw contract matters as much as the distribution: exactly one uniform
per respondent, truth card below p, forced index from the residual. A stub
generator pins the card semantics; frequency checks pin the distribution
against the kernel rows q + p*e_j, also rebuilt by the oracle's joint table.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrkit import Device, PopulationModel, ValidationError
from rrkit.oracle import response_distribution_oracle
from rrkit.simulation import CUTS_MAX_M, draw_responses, forced_cuts, responses_from_uniforms


class StubRng:
    """Feeds a preset uniform sequence to the draw path."""

    def __init__(self, values):
        self._values = list(values)

    def random(self, size):
        out = self._values[:size]
        del self._values[:size]
        return np.asarray(out)


def kernel_row(device, j):
    """Prob(R = x_i | X = x_j) over i: q everywhere plus p on the diagonal."""
    row = np.full(device.m, device.forced_share)
    row[j] += device.p
    return row


def draw_one(device, true_index, u):
    return int(draw_responses(device, np.array([true_index]), StubRng([u]))[0])


def test_kernel_entries():
    # the response law of a population sitting on x_j is kernel row j
    d = Device(p=0.4, m=3)
    for j in range(3):
        point = PopulationModel(pi=tuple(float(i == j) for i in range(3)))
        row = kernel_row(d, j)
        np.testing.assert_allclose(row, [0.2 + 0.4 * (i == j) for i in range(3)])
        np.testing.assert_allclose(response_distribution_oracle(d, point), row, atol=1e-15)
        assert abs(row.sum() - 1.0) <= 1e-15


def test_response_distribution_m2(device_half2, pop2):
    np.testing.assert_allclose(response_distribution_oracle(device_half2, pop2), [0.40, 0.60])


def test_response_distribution_m3(device_half3, pop3):
    lam = response_distribution_oracle(device_half3, pop3)
    np.testing.assert_allclose(lam, [0.416667, 0.316667, 0.266667], atol=5e-7)


def test_uniform_population_gives_uniform_responses():
    d = Device(p=0.3, m=4)
    pop = PopulationModel(pi=(0.25,) * 4)
    np.testing.assert_allclose(response_distribution_oracle(d, pop), 0.25, atol=1e-15)


@given(
    p=st.floats(min_value=0.01, max_value=0.99),
    raw=st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=5),
)
def test_distribution_matches_kernel_transpose(p, raw):
    total = sum(raw)
    pop = PopulationModel(pi=tuple(v / total for v in raw))
    d = Device(p=p, m=pop.m)
    lam = response_distribution_oracle(d, pop)
    via_kernel = sum(pi_j * kernel_row(d, j) for j, pi_j in enumerate(pop.pi))
    np.testing.assert_allclose(lam, via_kernel, atol=1e-12)
    # the closed form lambda = p*pi + (1-p)/m
    np.testing.assert_allclose(lam, d.p * pop.pi_array + d.forced_share, atol=1e-12)
    # forced-card floor and normalization
    assert (lam >= d.forced_share - 1e-15).all()
    assert abs(lam.sum() - 1.0) <= 1e-12


def test_stub_truth_card():
    d = Device(p=0.5, m=3)
    # u < p: report the true value, whatever it is
    assert draw_one(d, 2, 0.0) == 2
    assert draw_one(d, 1, 0.4999) == 1


def test_stub_forced_cards_partition_the_residual():
    d = Device(p=0.5, m=3)
    # residual (u - p)/(1 - p) in [0, 1/3) -> card 0, [1/3, 2/3) -> card 1, rest -> card 2;
    # probe the middle of each bucket to stay clear of float boundaries
    assert draw_one(d, 0, 0.5) == 0
    assert draw_one(d, 0, 0.5 + 0.5 * (1 / 6)) == 0
    assert draw_one(d, 0, 0.75) == 1
    assert draw_one(d, 0, 0.5 + 0.5 * (5 / 6)) == 2
    assert draw_one(d, 0, 0.999999999) == 2
    # one stub uniform per respondent, consumed in respondent order
    out = draw_responses(d, np.array([1, 1, 1]), StubRng([0.75, 0.2, 0.999999999]))
    assert out.tolist() == [1, 1, 2]


def test_draw_rejects_bad_index():
    d = Device(p=0.5, m=3)
    for bad in ([3], [0, 5], [-1]):
        with pytest.raises(ValidationError) as e:
            draw_responses(d, np.array(bad), StubRng([0.1] * len(bad)))
        assert e.value.code == "BAD_INDEX"


def test_vector_draw_matches_scalar_loop():
    d = Device(p=0.35, m=3)
    true_indices = np.array([0, 1, 2, 2, 1, 0, 1, 2] * 50)
    vec = draw_responses(d, true_indices, np.random.default_rng(1234))
    rng = np.random.default_rng(1234)
    loop = []
    for i in true_indices:
        # the card semantics, one respondent and one uniform at a time
        u = rng.random()
        loop.append(int(i) if u < d.p else min(int((u - d.p) / (1.0 - d.p) * d.m), d.m - 1))
    np.testing.assert_array_equal(vec, loop)


def forced_card_reference(device, true_indices, u):
    """The randomization as cast, cap and masked copy of the truthful draws."""
    with np.errstate(invalid="ignore"):  # truthful scores near p = 1 leave the int64 range
        forced = ((u - device.p) / (1.0 - device.p) * device.m).astype(np.int64)
    np.minimum(forced, device.m - 1, out=forced)
    np.copyto(forced, true_indices, where=u < device.p)
    return forced


@settings(max_examples=150, deadline=None)
@given(
    p=st.one_of(
        st.floats(1e-12, 1.0 - 2.0**-53),
        st.sampled_from([1e-12, 0.5, 1.0 - 1e-12, 1.0 - 2.0**-52, 1.0 - 2.0**-53]),
    ),
    m=st.one_of(st.integers(2, 12), st.sampled_from([1000, 2000])),
    seed=st.integers(0, 2**32 - 1),
    two_d=st.booleans(),
)
def test_responses_from_uniforms_match_the_forced_card_reference(p, m, seed, two_d):
    d = Device(p=p, m=m)
    rng = np.random.default_rng(seed)
    # u at p and both its neighbours, at each forced-card edge and its
    # neighbours, at both ends of [0, 1), and at random
    edges = p + (1.0 - p) * np.arange(m + 1) / m
    u = np.concatenate([
        [0.0, np.nextafter(1.0, 0.0), p, np.nextafter(p, 0.0), np.nextafter(p, 1.0)],
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0), rng.random(64),
    ])
    u = u[(u >= 0.0) & (u < 1.0)]
    if two_d:
        u = u[: len(u) // 2 * 2].reshape(2, -1)
    truth = rng.integers(0, m, u.shape)
    given_u, given_truth = u.copy(), truth.copy()
    expected = forced_card_reference(d, truth, u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = responses_from_uniforms(d, truth, u)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, expected)
    assert u.tobytes() == given_u.tobytes() and truth.tobytes() == given_truth.tobytes()


@pytest.mark.filterwarnings("error")
def test_draws_near_p_one_with_large_m_raise_no_warning():
    # truthful draws score below -2**63 here before the cast
    d = Device(p=0.9999999999999999, m=2000)
    truth = np.arange(2000)
    responses = draw_responses(d, truth, np.random.default_rng(3))
    np.testing.assert_array_equal(responses, truth)  # every uniform is below p


def test_draw_frequencies_match_kernel_row():
    # a million draws from one true value: response frequencies must sit within
    # three binomial standard errors of the kernel row
    d = Device(p=0.3, m=3)
    n = 1_000_000
    rng = np.random.default_rng(99)
    responses = draw_responses(d, np.ones(n, dtype=np.int64), rng)
    freq = np.bincount(responses, minlength=3) / n
    expected = kernel_row(d, 1)
    se = np.sqrt(expected * (1 - expected) / n)
    assert (np.abs(freq - expected) <= 3 * se).all(), (freq, expected)


def test_empty_vector_draw_is_fine():
    d = Device(p=0.5, m=2)
    out = draw_responses(d, np.array([], dtype=np.int64), np.random.default_rng(0))
    assert out.shape == (0,)


# p anywhere in (0, 1), with extra weight within 1e-12 of either end
probabilities = st.one_of(
    st.floats(0.0, 1e-12, exclude_min=True),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(1.0 - 1e-12, 1.0, exclude_max=True),
)


@settings(max_examples=200, deadline=None)
@given(p=probabilities, m=st.integers(2, CUTS_MAX_M))
def test_forced_cuts_are_the_first_uniforms_of_each_forced_index(p, m):
    """At t_k the device forces an index of at least k; one ulp below, less."""
    d = Device(p=p, m=m)
    cuts = np.array(forced_cuts(d))
    assert len(cuts) == m - 1
    assert (cuts > p).all() and (np.diff(cuts) >= 0).all()
    truth = np.zeros(m - 1, dtype=np.int64)  # a truthful draw reports 0 < k
    k = np.arange(1, m)
    assert (responses_from_uniforms(d, truth, cuts) >= k).all()
    assert (responses_from_uniforms(d, truth, np.nextafter(cuts, 0.0)) < k).all()
