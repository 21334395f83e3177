"""The immutable record types that the cold commands build: construction,
immutability, equality, hashing and repr, each as a frozen dataclass gives
them."""

import numpy as np
import pytest

from rrkit.design import DesignCertificate, DesignTable
from rrkit.model import (
    Device,
    EstimateReport,
    PolicyMode,
    PopulationModel,
    PrivacyPolicy,
    ResponseSample,
    SupportSpec,
    SurveyDefinition,
)
from rrkit.privacy import AlphaResult, BetaResult, PrivacyReport

ALL = PolicyMode.ALL_STIGMATIZING
SUBSET = PolicyMode.NONSTIGMATIZING_SUBSET
SUPPORT = SupportSpec((1, 2.5, -3), (True, False, True))
POPULATION = PopulationModel((0.5, 0.25, 0.25))
POLICY = PrivacyPolicy(SUBSET, 0.1, 0.3, (1,))
GAPS = np.zeros(2)
MASS = np.array([0.25, 0.5])

# class, field names in order, positional arguments, and the repr, pinned in
# the dataclass format
CASES = [
    (
        SupportSpec,
        ("values", "stigma"),
        ((1, 2.5, -3), (True, False, True)),
        "SupportSpec(values=(1.0, 2.5, -3.0), stigma=(True, False, True))",
    ),
    (PopulationModel, ("pi",), ((0.5, 0.25, 0.25),), "PopulationModel(pi=(0.5, 0.25, 0.25))"),
    (Device, ("p", "m"), (0.25, 3), "Device(p=0.25, m=3)"),
    (
        PrivacyPolicy,
        ("mode", "xi", "c", "nonstigmatizing"),
        (SUBSET, 0.1, 0.3, (1,)),
        "PrivacyPolicy(mode=<PolicyMode.NONSTIGMATIZING_SUBSET: 'nonstigmatizing_subset'>, "
        "xi=0.1, c=0.3, nonstigmatizing=(1,))",
    ),
    (ResponseSample, ("counts",), ((3, 0, 7),), "ResponseSample(counts=(3, 0, 7))"),
    (
        EstimateReport,
        ("mu_hat", "pi_hat_raw", "pi_hat_truncated", "var_mu_plugin", "flags"),
        (0.5, (0.5, 0.5), (0.5, 0.5), 0.01, ("RAW_OUT_OF_RANGE",)),
        "EstimateReport(mu_hat=0.5, pi_hat_raw=(0.5, 0.5), pi_hat_truncated=(0.5, 0.5), "
        "var_mu_plugin=0.01, flags=('RAW_OUT_OF_RANGE',))",
    ),
    (
        SurveyDefinition,
        ("support", "population", "policy"),
        (SUPPORT, POPULATION, POLICY),
        "SurveyDefinition(support=SupportSpec(values=(1.0, 2.5, -3.0), stigma=(True, False, True)), "
        "population=PopulationModel(pi=(0.5, 0.25, 0.25)), "
        "policy=PrivacyPolicy(mode=<PolicyMode.NONSTIGMATIZING_SUBSET: 'nonstigmatizing_subset'>, "
        "xi=0.1, c=0.3, nonstigmatizing=(1,)))",
    ),
    (
        DesignCertificate,
        ("p0", "mode", "xi", "m", "c", "t", "guarantee_statement"),
        (0.5, SUBSET, 0.1, 3, 0.3, 1, "promise"),
        "DesignCertificate(p0=0.5, mode=<PolicyMode.NONSTIGMATIZING_SUBSET: 'nonstigmatizing_subset'>, "
        "xi=0.1, m=3, c=0.3, t=1, guarantee_statement='promise')",
    ),
    (
        DesignTable,
        ("ms", "xis", "p0"),
        ((3, 4), (0.1, 0.2), ((0.1413, 0.2941), (0.1099, 0.2381))),
        "DesignTable(ms=(3, 4), xis=(0.1, 0.2), p0=((0.1413, 0.2941), (0.1099, 0.2381)))",
    ),
    (
        AlphaResult,
        ("alpha", "argmax", "gaps"),
        (0.25, ((0, 0),), GAPS),
        "AlphaResult(alpha=0.25, argmax=((0, 0),), gaps=array([0., 0.]))",
    ),
    (
        BetaResult,
        ("beta", "argmin", "mass_by_response"),
        (0.25, (0,), MASS),
        "BetaResult(beta=0.25, argmin=(0,), mass_by_response=array([0.25, 0.5 ]))",
    ),
    (
        PrivacyReport,
        ("mode", "p", "posterior", "guaranteed_bound", "alpha", "alpha_argmax", "beta", "beta_argmin"),
        (SUBSET, 0.25, ((0.5, 0.5), (0.5, 0.5)), None, None, None, 0.5, (0, 1)),
        "PrivacyReport(mode=<PolicyMode.NONSTIGMATIZING_SUBSET: 'nonstigmatizing_subset'>, p=0.25, "
        "posterior=((0.5, 0.5), (0.5, 0.5)), guaranteed_bound=None, alpha=None, alpha_argmax=None, "
        "beta=0.5, beta_argmin=(0, 1))",
    ),
]
IDS = [case[0].__name__ for case in CASES]
# the classes whose ndarray field leaves them unhashable
UNHASHABLE = (AlphaResult, BetaResult)


@pytest.mark.parametrize("cls, names, args, expected", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree_and_keep_the_repr(cls, names, args, expected):
    positional = cls(*args)
    keyword = cls(**dict(zip(names, args)))
    assert repr(positional) == repr(keyword) == expected
    assert positional == keyword


@pytest.mark.parametrize(
    "record, expected",
    [
        (
            PrivacyPolicy(ALL, 0.2),
            "PrivacyPolicy(mode=<PolicyMode.ALL_STIGMATIZING: 'all_stigmatizing'>, xi=0.2, "
            "c=None, nonstigmatizing=None)",
        ),
        (
            DesignCertificate(0.5, ALL, 0.1, 3),
            "DesignCertificate(p0=0.5, mode=<PolicyMode.ALL_STIGMATIZING: 'all_stigmatizing'>, "
            "xi=0.1, m=3, c=None, t=0, guarantee_statement='')",
        ),
        (
            PrivacyReport(ALL, 0.25, ((1.0,),), 0.1),
            "PrivacyReport(mode=<PolicyMode.ALL_STIGMATIZING: 'all_stigmatizing'>, p=0.25, "
            "posterior=((1.0,),), guaranteed_bound=0.1, alpha=None, alpha_argmax=None, "
            "beta=None, beta_argmin=None)",
        ),
    ],
    ids=["PrivacyPolicy", "DesignCertificate", "PrivacyReport"],
)
def test_defaults(record, expected):
    assert repr(record) == expected


@pytest.mark.parametrize("cls, names, args, expected", CASES, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(cls, names, args, expected):
    record = cls(*args)
    for name in (*names, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == expected


@pytest.mark.parametrize("cls, names, args, expected", CASES, ids=IDS)
def test_equal_fields_give_equal_records_and_hashes(cls, names, args, expected):
    first, second = cls(*args), cls(*args)
    assert first is not second and first == second and not first != second
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second) == hash(tuple(getattr(first, n) for n in names))
    # the same fields in another class, a subclass included, or as a bare
    # tuple, are not equal
    assert first != type("Other", (cls,), {})(*args)
    other = next(case for case in CASES if case[0] is not cls)
    assert first != other[0](*other[2])
    assert first != tuple(getattr(first, name) for name in names)


@pytest.mark.parametrize(
    "first, second",
    [
        (Device(0.25, 3), Device(0.5, 3)),
        (PopulationModel((0.5, 0.5)), PopulationModel((0.25, 0.75))),
        (PrivacyPolicy(ALL, 0.2), PrivacyPolicy(ALL, 0.3)),
        (DesignTable((3,), (0.1,), ((0.1413,),)), DesignTable((4,), (0.1,), ((0.1413,),))),
    ],
    ids=["Device", "PopulationModel", "PrivacyPolicy", "DesignTable"],
)
def test_a_different_field_gives_unequal_records(first, second):
    assert first != second and not first == second


def test_cached_properties_are_computed_once_per_instance():
    device, twin = Device(0.25, 3), Device(0.25, 3)
    assert "forced_cuts" not in vars(device)
    cuts = device.forced_cuts
    assert vars(device)["forced_cuts"] is cuts and device.forced_cuts is cuts
    assert twin.forced_cuts == cuts and twin.forced_cuts is not cuts

    population, twin = PopulationModel((0.5, 0.25, 0.25)), PopulationModel((0.5, 0.25, 0.25))
    assert "cdf" not in vars(population)
    cdf = population.cdf
    assert vars(population)["cdf"] is cdf and population.cdf is cdf
    assert twin.cdf is not cdf
    np.testing.assert_array_equal(twin.cdf, cdf)
