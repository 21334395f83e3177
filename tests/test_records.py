"""Every rrkit record type: construction, immutability, equality, hashing
and repr, each as a frozen dataclass gives them, and the argument binding
of the shared constructor."""

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
    _Record,
)
from rrkit.oracle import GridSearchResult
from rrkit.privacy import AlphaResult, BetaResult, PrivacyReport, alpha_measure, beta_measure
from rrkit import oracle, privacy, simulation
from rrkit.simulation import ReplicateRecord, SimulationConfig, SimulationSummary
from rrkit.verification import CheckResult, VerificationReport

ALL = PolicyMode.ALL_STIGMATIZING
SUBSET = PolicyMode.NONSTIGMATIZING_SUBSET
SUPPORT = SupportSpec((1, 2.5, -3), (True, False, True))
POPULATION = PopulationModel((0.5, 0.25, 0.25))
POLICY = PrivacyPolicy(SUBSET, 0.1, 0.3, (1,))
GAPS = np.zeros(2)
MASS = np.array([0.25, 0.5])
WITNESS = np.array([0.5, 0.5])
REPLICATE = ReplicateRecord(0, 0.5, (4, 6))
CHECK = CheckResult("posterior_matches_oracle", True, "ok")

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
    (
        SimulationConfig,
        ("support", "population", "device", "n", "replicates", "seed"),
        (SUPPORT, POPULATION, Device(0.25, 3), 10, 3, 7),
        "SimulationConfig(support=SupportSpec(values=(1.0, 2.5, -3.0), stigma=(True, False, True)), "
        "population=PopulationModel(pi=(0.5, 0.25, 0.25)), device=Device(p=0.25, m=3), n=10, "
        "replicates=3, seed=7)",
    ),
    (
        ReplicateRecord,
        ("replicate", "mu_hat", "counts"),
        (0, 0.5, (4, 6)),
        "ReplicateRecord(replicate=0, mu_hat=0.5, counts=(4, 6))",
    ),
    (
        SimulationSummary,
        (
            "n", "replicates", "seed", "mu_x", "mean_mu_hat", "var_mu_hat_empirical",
            "var_mu_theoretical", "variance_ratio", "mc_se_mean", "records",
        ),
        (10, 1, 7, 0.75, 0.7, 0.01, 0.02, 0.5, 0.07, (REPLICATE,)),
        # records stay out of the repr, as field(repr=False) left them
        "SimulationSummary(n=10, replicates=1, seed=7, mu_x=0.75, mean_mu_hat=0.7, "
        "var_mu_hat_empirical=0.01, var_mu_theoretical=0.02, variance_ratio=0.5, mc_se_mean=0.07)",
    ),
    (
        GridSearchResult,
        ("value", "witness", "points_evaluated"),
        (0.1, WITNESS, 21),
        "GridSearchResult(value=0.1, witness=array([0.5, 0.5]), points_evaluated=21)",
    ),
    (
        CheckResult,
        ("name", "passed", "detail"),
        ("posterior_matches_oracle", True, "ok"),
        "CheckResult(name='posterior_matches_oracle', passed=True, detail='ok')",
    ),
    (
        VerificationReport,
        ("checks",),
        ((CHECK,),),
        "VerificationReport(checks=(CheckResult(name='posterior_matches_oracle', passed=True, "
        "detail='ok'),))",
    ),
]
IDS = [case[0].__name__ for case in CASES]
# the classes whose ndarray field leaves them unhashable
UNHASHABLE = (AlphaResult, BetaResult, GridSearchResult)


def test_every_record_type_is_pinned():
    assert {case[0] for case in CASES} == set(_Record.__subclasses__())
    assert len(CASES) == 18


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
        (
            SimulationSummary(10, 1, 7, 0.75, 0.7, None, 0.02, None, None),
            "SimulationSummary(n=10, replicates=1, seed=7, mu_x=0.75, mean_mu_hat=0.7, "
            "var_mu_hat_empirical=None, var_mu_theoretical=0.02, variance_ratio=None, "
            "mc_se_mean=None)",
        ),
    ],
    ids=["PrivacyPolicy", "DesignCertificate", "PrivacyReport", "SimulationSummary"],
)
def test_defaults(record, expected):
    assert repr(record) == expected


def test_a_default_can_be_overridden_by_keyword_and_records_default_to_empty():
    assert DesignCertificate(0.5, ALL, 0.1, 3, t=2).t == 2
    assert SimulationSummary(10, 1, 7, 0.75, 0.7, None, 0.02, None, None).records == ()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DesignTable((3,), (0.1,)), r"DesignTable\(\) missing required arguments: 'p0'"),
        (lambda: CheckResult(), "missing required arguments: 'name', 'passed', 'detail'"),
        (lambda: CheckResult("a", True, "ok", 1), r"takes 3 positional arguments but 4 were given"),
        (lambda: CheckResult("a", True, detail="ok", note=1), "unexpected keyword argument 'note'"),
        (lambda: CheckResult("a", True, "ok", passed=False), "multiple values for argument 'passed'"),
        (lambda: DesignCertificate(0.5, ALL, 0.1), "missing required arguments: 'm'"),
    ],
    ids=["missing", "none", "too-many", "unknown", "twice", "missing-before-defaults"],
)
def test_the_shared_constructor_refuses_what_a_dataclass_refuses(build, message):
    with pytest.raises(TypeError, match=message):
        build()


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
        (
            # records count in equality, though not in the repr
            SimulationSummary(10, 1, 7, 0.75, 0.7, None, 0.02, None, None, (REPLICATE,)),
            SimulationSummary(10, 1, 7, 0.75, 0.7, None, 0.02, None, None),
        ),
        (CheckResult("a", True, "ok"), CheckResult("a", False, "ok")),
    ],
    ids=["Device", "PopulationModel", "PrivacyPolicy", "DesignTable", "SimulationSummary",
         "CheckResult"],
)
def test_a_different_field_gives_unequal_records(first, second):
    assert first != second and not first == second


def test_draw_tables_are_read_only_cached_per_value_and_built_once_per_run(monkeypatch):
    """The simulation's tables hang on no record: an equal record, built
    apart, finds the same read-only table, and a run builds each table once."""
    tables = (simulation.cdf, simulation._search_levels, simulation.forced_cuts)
    for table in tables:
        table.cache_clear()
    device, twin = Device(0.25, 3), Device(0.25, 3)
    cuts = simulation.forced_cuts(device)
    assert simulation.forced_cuts(twin) is cuts and vars(device) == {"p": 0.25, "m": 3}

    population, twin = PopulationModel((0.5, 0.25, 0.25)), PopulationModel((0.5, 0.25, 0.25))
    cdf, levels = simulation.cdf(population), simulation._search_levels(population)
    assert simulation.cdf(twin) is cdf and simulation._search_levels(twin) is levels
    assert vars(population) == {"pi": (0.5, 0.25, 0.25)}
    for array in (cdf, *levels):
        with pytest.raises(ValueError):
            array[0] = 0.0

    # the jump path, the setter path and one-row blocks, each counted by cuts
    # (the replay of replicate 0 searches the levels)
    monkeypatch.setenv("RRKIT_THREADS", "1")
    for n, replicates in ((10, 300), (151, 30), (6_000, 3)):
        for table in tables:
            table.cache_clear()
        config = SimulationConfig(SUPPORT, POPULATION, Device(0.4, 3), n, replicates, 5)
        simulation.run_replicates(config)
        assert [table.cache_info().misses for table in tables] == [1, 1, 1]


# every array that a cache shares or a record holds, as a thunk giving its arrays
FROZEN = {
    "simulation.cdf": lambda: [simulation.cdf(POPULATION)],
    "simulation._search_levels": lambda: list(simulation._search_levels(PopulationModel((0.2,) * 5))),
    "simulation._hash_constants": lambda: [simulation._hash_constants(7, 3, 4)],
    "simulation._STATE_CONSTANTS": lambda: [simulation._STATE_CONSTANTS],
    "simulation._seed_pool": lambda: list(simulation._seed_pool(5)),
    "simulation._jump_table": lambda: [simulation._jump_table(3)],
    "privacy.alpha_measure.gaps": lambda: [alpha_measure(Device(0.3, 3), POPULATION).gaps],
    "privacy.beta_measure.mass_by_response": lambda: [
        beta_measure(Device(0.3, 3), POPULATION, (1,)).mass_by_response
    ],
    "oracle._lattice": lambda: [oracle._lattice(20, 3, oracle._block_rows(3))],
    "oracle._search_input": lambda: list(
        oracle._search_blocks(20, 3, np.array([[0.1, 0.2, 0.7]]), (1,), 0.3)
    ),
    "privacy._population_columns": lambda: [
        privacy._population_columns(Device(0.3, 3), oracle._lattice(20, 3, oracle._block_rows(3)).T)
    ],
    "oracle.simplex_grid_search.witness": lambda: [
        oracle.simplex_grid_search(lambda points: points[:, 1], 3, 0.25).witness
    ],
}


@pytest.mark.parametrize("source", FROZEN)
def test_no_shared_or_stored_array_can_be_made_writeable(source):
    """The freeze rule: neither the array nor anything it is a view of can be
    written or have its flag set back, so a later lookup reads the same values."""
    arrays = FROZEN[source]()
    values = [array.copy() for array in arrays]
    for array in arrays:
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1
        with pytest.raises(ValueError):
            array.flags.writeable = True
        base = array.base
        assert base is not None
        while isinstance(base, np.ndarray):
            with pytest.raises(ValueError):
                base.flags.writeable = True
            with pytest.raises(ValueError):
                base[...] = 1
            base = base.base
        assert memoryview(base).readonly
    for array, value in zip(FROZEN[source](), values, strict=True):
        np.testing.assert_array_equal(array, value)
