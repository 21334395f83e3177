"""Construction-time validation of the domain types."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrkit import (
    Device,
    EstimateReport,
    PolicyMode,
    PopulationModel,
    PrivacyPolicy,
    ResponseSample,
    SupportSpec,
    ValidationError,
    parse_survey_document,
    validate_policy,
)
from rrkit.model import _rows_and_sums
from rrkit.privacy import _population_columns
from rrkit.simulation import cdf, inverse_cdf

from conftest import variance_and_unweighted_mean


def err_code(excinfo):
    return excinfo.value.code


def renormalized(rows):
    """Population rows as the batch privacy measures take them: checked by
    ``_rows_and_sums`` and divided by its sums, one population per row."""
    return _population_columns(Device(p=0.5, m=len(rows[0])), rows).T


# --- SupportSpec -----------------------------------------------------------


def test_support_basic_properties():
    sup = SupportSpec(values=(0, 1, 2), stigma=(False, True, True))
    assert sup.m == 3
    assert sup.values == (0.0, 1.0, 2.0)  # coerced to floats
    assert not sup.all_stigmatizing
    assert sup.nonstigmatizing_indices == (0,)
    assert variance_and_unweighted_mean(PopulationModel(pi=(0.5, 0.3, 0.2)), sup)[1] == 1.0


def test_support_needs_two_values():
    with pytest.raises(ValidationError) as e:
        SupportSpec(values=(1.0,), stigma=(True,))
    assert err_code(e) == "BAD_SUPPORT"


def test_support_rejects_duplicates():
    with pytest.raises(ValidationError) as e:
        SupportSpec(values=(1.0, 1.0), stigma=(True, True))
    assert err_code(e) == "BAD_SUPPORT"


def test_support_rejects_mismatched_stigma_length():
    with pytest.raises(ValidationError) as e:
        SupportSpec(values=(0.0, 1.0), stigma=(True,))
    assert err_code(e) == "BAD_SUPPORT"


def test_support_needs_a_stigmatizing_value():
    with pytest.raises(ValidationError) as e:
        SupportSpec(values=(0.0, 1.0), stigma=(False, False))
    assert err_code(e) == "NO_STIGMATIZING"


def test_support_rejects_non_finite():
    with pytest.raises(ValidationError) as e:
        SupportSpec(values=(0.0, float("inf")), stigma=(True, True))
    assert err_code(e) == "BAD_SUPPORT"


# --- PopulationModel -------------------------------------------------------


def test_population_accepts_tiny_sum_noise_and_normalizes():
    pop = PopulationModel(pi=(0.3, 0.7 + 5e-10))
    assert math.isclose(math.fsum(pop.pi), 1.0, abs_tol=1e-15)


def test_population_rejects_sum_outside_band():
    with pytest.raises(ValidationError) as e:
        PopulationModel(pi=(0.3, 0.6))
    assert err_code(e) == "BAD_PI"


def test_population_rejects_negative():
    with pytest.raises(ValidationError) as e:
        PopulationModel(pi=(-0.1, 1.1))
    assert err_code(e) == "BAD_PI"


def test_population_allows_zero_entries():
    pop = PopulationModel(pi=(0.0, 1.0))
    assert pop.pi == (0.0, 1.0)


def test_population_mean_and_variance(support3):
    pop = PopulationModel(pi=(0.5, 0.3, 0.2))
    assert pop.mean(support3) == pytest.approx(0.7)
    assert variance_and_unweighted_mean(pop, support3)[0] == pytest.approx(0.61)


def test_population_summing_past_the_largest_float_is_bad_pi():
    # math.fsum raises OverflowError on these, which once escaped as it was
    for pi in ((1e308, 1e308), (1.0, 1.7976931348623157e308, 1e308)):
        with pytest.raises(ValidationError) as e:
            PopulationModel(pi=pi)
        assert err_code(e) == "BAD_PI"


def test_population_mean_past_the_largest_float_is_nonfinite_result():
    # the exact sum of x_i * pi_i rounds past the largest float, where
    # math.fsum raises OverflowError
    top = 1.7976931348623157e308
    below = math.nextafter(top, 0.0)
    support = SupportSpec(values=(top, below, math.nextafter(below, 0.0)), stigma=(True,) * 3)
    pop = PopulationModel(pi=(0.9302078410176895, 0.06906973429830304, 0.0007224246840075709))
    with pytest.raises(ValidationError, match="mu_x") as e:
        pop.mean(support)
    assert err_code(e) == "NONFINITE_RESULT"


def test_population_dimension_mismatch(support2):
    pop = PopulationModel(pi=(0.5, 0.3, 0.2))
    with pytest.raises(ValidationError) as e:
        pop.mean(support2)
    assert err_code(e) == "DIMENSION_MISMATCH"


@given(
    st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=6)
)
def test_population_normalization_lands_on_simplex(raw):
    total = math.fsum(raw)
    pop = PopulationModel(pi=tuple(v / total for v in raw))
    assert math.isclose(math.fsum(pop.pi), 1.0, abs_tol=1e-12)
    assert all(v >= 0 for v in pop.pi)


@given(
    st.lists(
        st.tuples(
            st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3),
            st.booleans(),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_population_rows_follow_the_population_model(drawn):
    # rows drawn with True are scaled onto the simplex, the rest kept as drawn;
    # PopulationModel decides which rows are valid and what they become
    rows = [
        [v / math.fsum(r) for v in r] if scale and math.fsum(r) > 0 else r for r, scale in drawn
    ]
    models = []
    for r in rows:
        try:
            models.append(PopulationModel(pi=tuple(r)).pi)
        except ValidationError as exc:
            assert exc.code == "BAD_PI"
            models.append(None)
    if None in models:
        with pytest.raises(ValidationError) as e:
            _rows_and_sums(rows)
        assert err_code(e) == "BAD_PI"
    else:
        assert renormalized(rows).tolist() == [list(pi) for pi in models]


def test_population_rows_divide_by_the_correctly_rounded_sum():
    # a tiny third entry: the compensated sum's carried errors do not add up
    # exactly, and rounding them put the row total one ulp above math.fsum
    raw = [0.5, 0.6213941548063432, 3.852745846738543e-223]
    row = [v / math.fsum(raw) for v in raw]
    assert math.fsum(row) == 1.0 - 2.0**-53
    assert renormalized([row]).tolist() == [list(PopulationModel(pi=tuple(row)).pi)]
    rng = np.random.default_rng(5)
    rows = rng.random((20_000, 3))
    rows[:, 2] *= 10.0 ** rng.integers(-300, 0, len(rows))
    rows /= rows.sum(axis=1, keepdims=True)
    expected = np.array([[v / math.fsum(r) for v in r] for r in rows.tolist()])
    assert renormalized(rows).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "rows",
    [
        [[0.5, 0.5], [0.3, 0.6]],
        [[0.5, 0.5], [-0.1, 1.1]],
        [[0.5, np.inf]],
        [[1.0]],
        [0.5, 0.5],
        [["a", "b"]],
        [[0.5, 0.5], [1e308, 1e308]],  # a sum past the largest float
    ],
)
def test_population_rows_reject_what_the_model_rejects(rows):
    with pytest.raises(ValidationError) as e:
        _rows_and_sums(rows)
    assert err_code(e) == "BAD_PI"


def test_population_rows_renormalize_within_the_band():
    rows = renormalized([[0.3, 0.7 + 5e-10], [0.0, 1.0]])
    assert rows.tolist() == [list(PopulationModel(pi=(0.3, 0.7 + 5e-10)).pi), [0.0, 1.0]]


# --- Device ----------------------------------------------------------------


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5, float("nan")])
def test_device_rejects_bad_p(p):
    with pytest.raises(ValidationError) as e:
        Device(p=p, m=3)
    assert err_code(e) == "BAD_DEVICE_P"


def test_device_forced_share():
    d = Device(p=0.4, m=3)
    assert d.forced_share == pytest.approx(0.2)


@pytest.mark.parametrize("m", [np.int64(3), np.int16(3)])
def test_device_accepts_numpy_integer_m_and_stores_an_int(m):
    d = Device(p=0.3, m=m)
    assert d == Device(p=0.3, m=3)
    assert type(d.m) is int


@pytest.mark.parametrize("m", [True, False, 1, np.int64(1), 3.0, "3"])
def test_device_rejects_bool_small_or_non_integer_m(m):
    with pytest.raises(ValidationError) as e:
        Device(p=0.3, m=m)
    assert err_code(e) == "BAD_SUPPORT"


def test_population_cdf_is_cumulative_and_read_only(pop3):
    np.testing.assert_array_equal(cdf(pop3), np.cumsum(pop3.pi_array))
    assert cdf(pop3) is cdf(pop3)
    with pytest.raises(ValueError):
        cdf(pop3)[0] = 0.0


# support sizes on both sides of every power of two the binary search pads to
EDGE_SIZES = sorted({2**j + d for j in range(1, 11) for d in (-1, 0, 1)} - {1, 1025})


@settings(max_examples=120, deadline=None)
@given(
    m=st.one_of(st.sampled_from(EDGE_SIZES), st.integers(2, 1024)),
    zero_share=st.sampled_from([0.0, 0.3, 0.9]),
    seed=st.integers(0, 2**32 - 1),
    two_d=st.booleans(),
)
def test_inverse_cdf_matches_capped_searchsorted(m, zero_share, seed, two_d):
    rng = np.random.default_rng(seed)
    weights = rng.random(m) * (rng.random(m) >= zero_share)  # zeros repeat CDF entries
    weights[rng.integers(m)] += 1.0
    pop = PopulationModel(pi=tuple(weights / weights.sum()))
    table = cdf(pop)
    u = np.concatenate([
        [0.0, np.nextafter(1.0, 0.0)], table, np.nextafter(table, 0.0), np.nextafter(table, 1.0),
        rng.random(101),
    ])
    u = u[(u >= 0.0) & (u < 1.0)]
    if two_d:
        u = u[: len(u) // 2 * 2].reshape(2, -1)
    given_u = u.copy()
    expected = np.minimum(np.searchsorted(table, u, side="right"), m - 1)
    got = inverse_cdf(pop, u)
    assert got.dtype == np.int64 and got.shape == u.shape
    np.testing.assert_array_equal(got, expected)
    # the same through caller-supplied scratch, which is all it writes
    out = np.full(u.shape, -7, dtype=np.int64)
    flags, probe = np.empty(u.shape, dtype=bool), np.empty(u.shape)
    assert inverse_cdf(pop, u, out=out, flags=flags, probe=probe) is out
    np.testing.assert_array_equal(out, expected)
    assert u.tobytes() == given_u.tobytes()


# --- PrivacyPolicy ---------------------------------------------------------


def test_policy_all_stigmatizing_rejects_subset_fields():
    with pytest.raises(ValidationError) as e:
        PrivacyPolicy(mode=PolicyMode.ALL_STIGMATIZING, xi=0.1, c=0.5)
    assert err_code(e) == "BAD_POLICY"


@pytest.mark.parametrize("xi", [0.0, 1.0, -0.3, 2.0])
def test_policy_xi_range(xi):
    with pytest.raises(ValidationError) as e:
        PrivacyPolicy(mode=PolicyMode.ALL_STIGMATIZING, xi=xi)
    assert err_code(e) == "XI_OUT_OF_RANGE"


def test_policy_subset_requires_xi_below_c():
    with pytest.raises(ValidationError) as e:
        PrivacyPolicy(
            mode=PolicyMode.NONSTIGMATIZING_SUBSET, xi=0.2, c=0.15, nonstigmatizing=(0,)
        )
    assert err_code(e) == "XI_GE_C"


def test_policy_subset_sorts_indices_and_counts_them():
    pol = PrivacyPolicy(
        mode=PolicyMode.NONSTIGMATIZING_SUBSET, xi=0.1, c=0.4, nonstigmatizing=(2, 0)
    )
    assert pol.nonstigmatizing == (0, 2)
    assert pol.t == 2


def test_policy_subset_rejects_empty_set():
    with pytest.raises(ValidationError) as e:
        PrivacyPolicy(mode=PolicyMode.NONSTIGMATIZING_SUBSET, xi=0.1, c=0.3, nonstigmatizing=())
    assert err_code(e) == "BAD_NONSTIG_SET"


def test_policy_subset_rejects_bad_c():
    with pytest.raises(ValidationError) as e:
        PrivacyPolicy(mode=PolicyMode.NONSTIGMATIZING_SUBSET, xi=0.1, c=1.5, nonstigmatizing=(0,))
    assert err_code(e) == "C_OUT_OF_RANGE"


def test_validate_policy_mode_mismatch():
    sup = SupportSpec(values=(0, 1, 2), stigma=(False, True, True))
    pol = PrivacyPolicy(mode=PolicyMode.ALL_STIGMATIZING, xi=0.1)
    with pytest.raises(ValidationError) as e:
        validate_policy(pol, sup)
    assert err_code(e) == "MODE_MISMATCH"


def test_validate_policy_index_set_must_match_support():
    sup = SupportSpec(values=(0, 1, 2), stigma=(False, True, True))
    pol = PrivacyPolicy(
        mode=PolicyMode.NONSTIGMATIZING_SUBSET, xi=0.1, c=0.3, nonstigmatizing=(1,)
    )
    with pytest.raises(ValidationError) as e:
        validate_policy(pol, sup)
    assert err_code(e) == "MODE_MISMATCH"


# --- ResponseSample --------------------------------------------------------


def test_sample_counts_and_proportions():
    s = ResponseSample(counts=(40, 60))
    assert s.n == 100
    assert s.m == 2
    np.testing.assert_allclose(s.proportions, [0.4, 0.6])


@pytest.mark.parametrize("counts", [(-1, 2), (0.5, 0.5), (0, 0)])
def test_sample_rejects_bad_counts(counts):
    with pytest.raises(ValidationError) as e:
        ResponseSample(counts=counts)
    assert err_code(e) == "BAD_COUNTS"


def test_sample_size_is_capped_at_2_53():
    # below the cap every count and n are exact floats, and c / n is numpy's quotient
    sample = ResponseSample(counts=(2**53 - 3, 1, 2))
    assert sample.proportions == tuple(np.array(sample.counts, dtype=float) / float(2**53))
    for counts in ((2**53, 1), (2**64, 1, 1), (10**400, 1)):
        with pytest.raises(ValidationError) as e:
            ResponseSample(counts=counts)
        assert err_code(e) == "BAD_COUNTS"


def test_sample_accepts_numpy_integers():
    s = ResponseSample(counts=tuple(np.array([3, 4], dtype=np.int64)))
    assert s.counts == (3, 4)


# --- one integer rule: m, counts and indices ----------------------------------

INTEGER_FIELDS = {
    "m": (lambda v: Device(p=0.3, m=v).m, "BAD_SUPPORT"),
    "count": (lambda v: ResponseSample(counts=(v, 4)).counts[0], "BAD_COUNTS"),
    "index": (
        lambda v: PrivacyPolicy(
            mode=PolicyMode.NONSTIGMATIZING_SUBSET, xi=0.1, c=0.3, nonstigmatizing=(v,)
        ).nonstigmatizing[0],
        "BAD_NONSTIG_SET",
    ),
}


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
@pytest.mark.parametrize("value", [np.int64(3), np.int32(3), np.uint8(3), np.uint64(3)])
def test_integer_fields_accept_numpy_integers_as_python_ints(field, value):
    build, _ = INTEGER_FIELDS[field]
    got = build(value)
    assert got == 3 and type(got) is int


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
@pytest.mark.parametrize("value", [True, np.bool_(True), 3.0, np.float64(3.0), "3", None])
def test_integer_fields_refuse_bools_floats_and_strings(field, value):
    build, code = INTEGER_FIELDS[field]
    with pytest.raises(ValidationError) as e:
        build(value)
    assert err_code(e) == code


@pytest.mark.parametrize(
    "field, value", [("m", 1), ("m", np.int64(1)), ("count", -1), ("count", np.int8(-1)),
                     ("index", -1), ("index", np.int64(-1))]
)
def test_integer_fields_refuse_values_below_their_floor(field, value):
    build, code = INTEGER_FIELDS[field]
    with pytest.raises(ValidationError) as e:
        build(value)
    assert err_code(e) == code


def test_policy_with_numpy_index_matches_its_survey():
    support = SupportSpec(values=(0, 1, 2), stigma=(False, True, True))
    policy = PrivacyPolicy(
        mode=PolicyMode.NONSTIGMATIZING_SUBSET, xi=0.1, c=0.3, nonstigmatizing=(np.int64(0),)
    )
    assert validate_policy(policy, support) is policy


@pytest.mark.parametrize("indices, expected", [(np.array([0]), (0,)), (np.array([2, 0]), (0, 2))])
def test_policy_takes_a_numpy_index_array(indices, expected):
    # the policy once tested the array's truth value, refusing [0] and failing on [2, 0]
    policy = PrivacyPolicy(
        mode=PolicyMode.NONSTIGMATIZING_SUBSET, xi=0.1, c=0.3, nonstigmatizing=indices
    )
    assert policy.nonstigmatizing == expected
    assert {type(i) for i in policy.nonstigmatizing} == {int}


# --- one number rule: values, probabilities, p, xi and c --------------------

FLOAT_FIELDS = {
    "value": (lambda v: SupportSpec(values=(v, 2.0), stigma=(True, True)).values[0], "BAD_SUPPORT"),
    "pi": (lambda v: PopulationModel(pi=(v, 0.75)).pi[0], "BAD_PI"),
    "p": (lambda v: Device(p=v, m=2).p, "BAD_DEVICE_P"),
    "xi": (lambda v: PrivacyPolicy(mode=PolicyMode.ALL_STIGMATIZING, xi=v).xi, "XI_OUT_OF_RANGE"),
    "c": (
        lambda v: PrivacyPolicy(
            mode=PolicyMode.NONSTIGMATIZING_SUBSET, xi=0.1, c=v, nonstigmatizing=(0,)
        ).c,
        "C_OUT_OF_RANGE",
    ),
}


@pytest.mark.parametrize("field", sorted(FLOAT_FIELDS))
@pytest.mark.parametrize("value", [np.float64(0.25), np.float32(0.25), np.float16(0.25)])
def test_number_fields_accept_numpy_floats_as_python_floats(field, value):
    build, _ = FLOAT_FIELDS[field]
    got = build(value)
    assert got == 0.25 and type(got) is float


def test_support_values_accept_numpy_integers():
    support = SupportSpec(values=(np.int64(0), np.uint8(1)), stigma=(True, True))
    assert support.values == (0.0, 1.0)
    assert {type(v) for v in support.values} == {float}


@pytest.mark.parametrize("field", sorted(FLOAT_FIELDS))
@pytest.mark.parametrize("value", [True, np.bool_(True), "0.25", b"0.25", None, 0.25j, [0.25]])
def test_number_fields_refuse_bools_strings_and_other_types(field, value):
    build, code = FLOAT_FIELDS[field]
    with pytest.raises(ValidationError) as e:
        build(value)
    assert err_code(e) == code


def test_number_fields_refuse_an_int_too_large_for_a_float():
    with pytest.raises(ValidationError) as e:
        SupportSpec(values=(10**400, 1), stigma=(True, True))
    assert err_code(e) == "BAD_SUPPORT"


def test_stigma_flags_accept_numpy_bools_as_bools():
    support = SupportSpec(values=(0, 1, 2), stigma=(np.bool_(False), True, np.True_))
    assert support.stigma == (False, True, True)
    assert {type(s) for s in support.stigma} == {bool}


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, np.int64(1), 1.0, None])
def test_stigma_flags_refuse_anything_but_bools(flag):
    with pytest.raises(ValidationError) as e:
        SupportSpec(values=(0, 1), stigma=(True, flag))
    assert err_code(e) == "BAD_SUPPORT"


@pytest.mark.parametrize(
    "key, value, code",
    [
        ("values", ["0", "1", "2"], "BAD_SUPPORT"),
        ("values", [False, True, 2], "BAD_SUPPORT"),
        ("stigmatizing", ["false", "true", "true"], "BAD_SUPPORT"),
        ("xi", "0.1", "XI_OUT_OF_RANGE"),
    ],
)
def test_parse_survey_refuses_strings_and_bools_for_numbers_and_flags(key, value, code):
    doc = {
        "values": [0, 1, 2],
        "stigmatizing": [True, True, True],
        "privacy": {"mode": "all_stigmatizing", "xi": 0.1},
    }
    if key == "xi":
        doc["privacy"]["xi"] = value
    else:
        doc[key] = value
    with pytest.raises(ValidationError) as e:
        parse_survey_document(doc)
    assert err_code(e) == code


# --- EstimateReport --------------------------------------------------------


def test_estimate_report_json_keys():
    rep = EstimateReport(
        mu_hat=0.7,
        pi_hat_raw=(0.3, 0.7),
        pi_hat_truncated=(0.3, 0.7),
        var_mu_plugin=0.0096,
        flags=(),
    )
    doc = rep.to_json_dict()
    assert set(doc) == {"mu_hat", "pi_hat_raw", "pi_hat_truncated", "var_mu_plugin", "flags"}


def test_estimate_report_rejects_off_simplex_truncation():
    with pytest.raises(ValidationError):
        EstimateReport(
            mu_hat=0.0,
            pi_hat_raw=(0.2, 0.2),
            pi_hat_truncated=(0.2, 0.2),
            var_mu_plugin=0.0,
            flags=(),
        )


# --- survey documents ------------------------------------------------------


def test_parse_survey_full_document():
    doc = {
        "values": [0, 1, 2],
        "stigmatizing": [False, True, True],
        "pi": [0.5, 0.3, 0.2],
        "privacy": {
            "mode": "nonstigmatizing_subset",
            "xi": 0.1,
            "c": 0.15,
            "nonstigmatizing": [0],
        },
    }
    survey = parse_survey_document(doc)
    assert survey.support.m == 3
    assert survey.population.pi == (0.5, 0.3, 0.2)
    assert survey.policy.mode is PolicyMode.NONSTIGMATIZING_SUBSET
    assert survey.policy.t == 1


def test_parse_survey_pi_and_privacy_optional():
    survey = parse_survey_document({"values": [0, 1], "stigmatizing": [True, True]})
    assert survey.population is None
    assert survey.policy is None


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"values": [0, 1]},
        {"values": [0, 1], "stigmatizing": [True, True], "privacy": {"mode": "nope", "xi": 0.1}},
        {"values": [0, 1], "stigmatizing": [True, True], "privacy": {"xi": 0.1}},
    ],
)
def test_parse_survey_rejects_malformed(doc):
    with pytest.raises(ValidationError) as e:
        parse_survey_document(doc)
    assert err_code(e) == "BAD_SURVEY"


def test_parse_survey_pi_length_must_match():
    with pytest.raises(ValidationError) as e:
        parse_survey_document(
            {"values": [0, 1], "stigmatizing": [True, True], "pi": [0.2, 0.3, 0.5]}
        )
    assert err_code(e) == "DIMENSION_MISMATCH"


def test_parse_survey_policy_cross_checked_against_stigma():
    with pytest.raises(ValidationError) as e:
        parse_survey_document(
            {
                "values": [0, 1],
                "stigmatizing": [True, True],
                "privacy": {
                    "mode": "nonstigmatizing_subset",
                    "xi": 0.1,
                    "c": 0.3,
                    "nonstigmatizing": [0],
                },
            }
        )
    assert err_code(e) == "MODE_MISMATCH"
