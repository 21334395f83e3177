"""Privacy measures, posteriors, and the guaranteed worst-case bounds."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rrkit.model as model
import rrkit.privacy as privacy
from rrkit import Device, PolicyMode, PopulationModel, PrivacyPolicy, ValidationError
from rrkit.design import p0_all_stigmatizing, p0_nonstigmatizing
from rrkit.oracle import (
    adversarial_alpha_population,
    adversarial_beta_population,
    simplex_grid_search,
)
from rrkit.privacy import (
    alpha_measure,
    alpha_values,
    beta_measure,
    beta_values,
    guaranteed_alpha_bound,
    guaranteed_beta_bound,
    privacy_report,
    revealing_probabilities,
)

from conftest import simplex_grid_points


class TestPosterior:
    def test_canonical_entry(self, device_half2, pop2):
        post = revealing_probabilities(device_half2, pop2)
        assert post[0, 0] == pytest.approx(0.5625)  # 0.75 * 0.3 / 0.40

    def test_columns_are_distributions(self, device_half3, pop3):
        post = revealing_probabilities(device_half3, pop3)
        np.testing.assert_allclose(post.sum(axis=0), 1.0, atol=1e-12)
        assert (post >= 0).all() and (post <= 1).all()

    def test_degenerate_population_stays_certain(self):
        d = Device(p=0.3, m=3)
        pop = PopulationModel(pi=(0.0, 1.0, 0.0))
        post = revealing_probabilities(d, pop)
        np.testing.assert_allclose(post[1], 1.0, atol=1e-15)
        np.testing.assert_allclose(post[0], 0.0, atol=1e-15)

    def test_uniform_population_symmetric_diagonal(self):
        d = Device(p=0.6, m=4)
        pop = PopulationModel(pi=(0.25,) * 4)
        diag = np.diag(revealing_probabilities(d, pop))
        np.testing.assert_allclose(diag, diag[0], atol=1e-15)

    @given(
        p=st.floats(min_value=0.01, max_value=0.99),
        raw=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=5).filter(
            lambda r: sum(r) > 1e-6
        ),
    )
    @settings(max_examples=200)
    def test_columns_always_sum_to_one(self, p, raw):
        total = sum(raw)
        pop = PopulationModel(pi=tuple(v / total for v in raw))
        post = revealing_probabilities(Device(p=p, m=pop.m), pop)
        np.testing.assert_allclose(post.sum(axis=0), 1.0, atol=1e-12)
        assert (post >= -1e-15).all() and (post <= 1 + 1e-12).all()


class TestAlpha:
    def test_canonical_value_and_ties(self, device_half2, pop2):
        res = alpha_measure(device_half2, pop2)
        assert res.alpha == pytest.approx(0.2625)
        # both entries of the R=x_1 column attain the max (columns sum to 1, m=2)
        assert res.argmax == ((0, 0), (1, 0))
        assert res.gaps[1, 1] == pytest.approx(0.175)
        assert res.gaps[0, 1] == pytest.approx(0.175)

    def test_degenerate_population_gives_zero(self):
        res = alpha_measure(Device(p=0.5, m=2), PopulationModel(pi=(1.0, 0.0)))
        assert res.alpha == pytest.approx(0.0, abs=1e-15)

    def test_uninformative_limit(self, pop3):
        res = alpha_measure(Device(p=1e-9, m=3), pop3)
        assert res.alpha < 1e-8

    def test_alpha_grows_with_p(self, pop3):
        alphas = [alpha_measure(Device(p=p, m=3), pop3).alpha for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a < b for a, b in zip(alphas, alphas[1:]))


class TestBeta:
    def test_canonical_value(self, pop3):
        res = beta_measure(Device(p=0.2, m=3), pop3, (0,))
        assert res.beta == pytest.approx(0.408163, abs=5e-7)
        assert res.argmin == (1,)

    def test_stigma_free_population(self):
        res = beta_measure(Device(p=0.4, m=3), PopulationModel(pi=(1.0, 0.0, 0.0)), (0,))
        assert res.beta == pytest.approx(1.0)

    def test_uninformative_limit_returns_prior_mass(self, pop3):
        res = beta_measure(Device(p=1e-9, m=3), pop3, (0,))
        assert res.beta == pytest.approx(0.5, abs=1e-8)

    def test_rejects_empty_and_full_sets(self, pop3):
        d = Device(p=0.5, m=3)
        with pytest.raises(ValidationError) as e:
            beta_measure(d, pop3, ())
        assert e.value.code == "BAD_NONSTIG_SET"
        with pytest.raises(ValidationError) as e:
            beta_measure(d, pop3, (0, 1, 2))
        assert e.value.code == "BAD_NONSTIG_SET"
        with pytest.raises(ValidationError):
            beta_measure(d, pop3, (4,))

    def test_indices_follow_the_integer_rule(self, pop3):
        d = Device(p=0.5, m=3)
        got, expected = beta_measure(d, pop3, (np.int64(0),)), beta_measure(d, pop3, (0,))
        assert (got.beta, got.argmin) == (expected.beta, expected.argmin)
        # int() once turned 0.5 and False into index 0 and "1" into index 1
        for index in (0.5, False, "1", -1, np.int64(-1)):
            with pytest.raises(ValidationError) as e:
                beta_measure(d, pop3, (index,))
            assert e.value.code == "BAD_NONSTIG_SET"

    @pytest.mark.parametrize(
        "entry",
        [
            lambda d, pop, idx: beta_measure(d, pop, idx),
            lambda d, pop, idx: beta_values(d, [pop.pi], idx),
            lambda d, pop, idx: privacy_report(
                d, pop, mode=PolicyMode.NONSTIGMATIZING_SUBSET, nonstigmatizing=idx
            ),
            lambda d, pop, idx: PrivacyPolicy(
                mode=PolicyMode.NONSTIGMATIZING_SUBSET, xi=0.1, c=0.3, nonstigmatizing=idx
            ),
        ],
        ids=["beta_measure", "beta_values", "privacy_report", "PrivacyPolicy"],
    )
    @pytest.mark.parametrize("indices", [(0, 0), (1, np.int64(1)), None, 0, 1])
    def test_every_entry_point_refuses_duplicates_and_non_collections(self, pop3, entry, indices):
        # the measures once merged duplicates that the policy refused, and
        # raised a bare TypeError on a set that is not a collection
        with pytest.raises(ValidationError) as e:
            entry(Device(p=0.5, m=3), pop3, indices)
        assert e.value.code == "BAD_NONSTIG_SET"

    def test_multi_index_mass(self):
        # two non-stigmatizing values: beta bounds their combined posterior mass
        d = Device(p=0.3, m=4)
        pop = PopulationModel(pi=(0.2, 0.3, 0.4, 0.1))
        res = beta_measure(d, pop, (0, 1))
        post = revealing_probabilities(d, pop)
        np.testing.assert_allclose(res.mass_by_response, post[0] + post[1], atol=1e-15)
        assert res.beta == pytest.approx(res.mass_by_response.min())


class TestGuaranteedBounds:
    def test_alpha_bound_round_trips_from_design(self):
        for m in (2, 3, 4, 5, 6):
            for xi in (0.05, 0.1, 0.2, 0.3, 0.5, 0.8):
                p0 = p0_all_stigmatizing(m, xi)
                assert guaranteed_alpha_bound(Device(p=p0, m=m)) == pytest.approx(xi, abs=1e-10)

    def test_alpha_bound_paper_round_trips(self):
        assert guaranteed_alpha_bound(Device(p=0.1099, m=4)) == pytest.approx(0.1, abs=5e-4)
        assert guaranteed_alpha_bound(Device(p=0.1413, m=3)) == pytest.approx(0.1, abs=5e-4)

    @settings(max_examples=100, deadline=None)
    # where k itself overflows (1e-310), and where only the denominator does
    @example(exponent=-310.0, m=4)
    @example(exponent=-308.0, m=4)
    @example(exponent=-307.7, m=2)
    @given(
        exponent=st.floats(-320.0, -154.0),
        m=st.one_of(st.integers(2, 1000), st.sampled_from([2**20, 2**53])),
    )
    def test_alpha_bound_below_the_overflow_of_its_square_matches_mpmath(self, exponent, m):
        # at p below ~7e-155 (for m = 4), (2 + k)**2 overflows a float, and
        # below mp ~2.2e-308 k itself does; the bound, about mp/4, is then
        # taken from the form scaled by mp/2. Subnormal bounds are held to
        # two units of their last place, 2**-1073.
        mpmath = pytest.importorskip("mpmath")
        p = 10.0**exponent
        with mpmath.workprec(200):
            k = 4 * (1 - mpmath.mpf(p)) / (m * mpmath.mpf(p))
            exact = 2 / (2 + k + mpmath.sqrt((2 + k) ** 2 - 4))
            got = guaranteed_alpha_bound(Device(p=p, m=m))
            assert abs(got - exact) <= 1e-15 * exact + 2.0**-1073

    def test_alpha_bound_keeps_its_bits_where_the_square_is_finite(self):
        for p, m in ((0.1099, 4), (1e-150, 4), (0.5, 2), (1 - 2**-53, 7), (1e-154, 3)):
            k = 4.0 * (1.0 - p) / (m * p)
            expected = 2.0 / (2.0 + k + math.sqrt((2.0 + k) ** 2 - 4.0))
            assert guaranteed_alpha_bound(Device(p=p, m=m)).hex() == expected.hex()

    def test_beta_bound_round_trips_from_design(self):
        for m in (2, 3, 5):
            for c in (0.15, 0.3, 0.6):
                for xi in (0.05, 0.1, c * 0.9):
                    p0 = p0_nonstigmatizing(m, xi, c)
                    assert guaranteed_beta_bound(Device(p=p0, m=m), c) == pytest.approx(
                        xi, abs=1e-10
                    )

    def test_beta_bound_paper_round_trip(self):
        assert guaranteed_beta_bound(Device(p=0.1639, m=3), 0.15) == pytest.approx(0.1, abs=5e-4)

    def test_beta_bound_uninformative_limit(self):
        assert guaranteed_beta_bound(Device(p=1e-12, m=3), 0.4) == pytest.approx(0.4, abs=1e-9)

    def test_beta_bound_rejects_bad_c(self):
        with pytest.raises(ValidationError) as e:
            guaranteed_beta_bound(Device(p=0.5, m=3), 1.2)
        assert e.value.code == "C_OUT_OF_RANGE"

    def test_alpha_never_exceeds_bound_on_grid(self):
        # brute force over the whole simplex at several device parameters
        for p in (0.1, 0.3, 0.5):
            device = Device(p=p, m=3)
            bound = guaranteed_alpha_bound(device)

            def worst(point):
                return alpha_measure(device, PopulationModel(pi=tuple(point))).alpha

            found = simplex_grid_search(
                lambda pts: [worst(pt) for pt in pts], 3, 0.01, minimize=False
            )
            assert found.value <= bound + 1e-9

    def test_beta_never_falls_below_bound_on_constrained_grid(self):
        c = 0.15
        for p in (0.1, 0.3, 0.5):
            device = Device(p=p, m=3)
            bound = guaranteed_beta_bound(device, c)

            def worst(point):
                return beta_measure(device, PopulationModel(pi=tuple(point)), (0,)).beta

            found = simplex_grid_search(
                lambda pts: [worst(pt) for pt in pts],
                3,
                0.01,
                minimize=True,
                mass_indices=(0,),
                mass_floor=c,
            )
            assert found.value >= bound - 1e-9


class TestTightness:
    def test_alpha_breaks_just_past_the_design_point(self):
        m, xi = 3, 0.1
        p0 = p0_all_stigmatizing(m, xi)
        witness = adversarial_alpha_population(m, xi)
        at_design = alpha_measure(Device(p=p0, m=m), witness).alpha
        assert at_design == pytest.approx(xi, abs=1e-9)
        past = alpha_measure(Device(p=p0 + 1e-6, m=m), witness).alpha
        assert past > xi

    def test_beta_breaks_just_past_the_design_point(self):
        m, xi, c = 3, 0.1, 0.15
        p0 = p0_nonstigmatizing(m, xi, c)
        witness = adversarial_beta_population(m, c)
        at_design = beta_measure(Device(p=p0, m=m), witness, (0,)).beta
        assert at_design == pytest.approx(xi, abs=1e-9)
        past = beta_measure(Device(p=p0 + 1e-6, m=m), witness, (0,)).beta
        assert past < xi


class TestReports:
    def test_alpha_mode_report(self, device_half2, pop2):
        rep = privacy_report(device_half2, pop2, mode=PolicyMode.ALL_STIGMATIZING)
        doc = rep.to_json_dict()
        assert doc["alpha"] == pytest.approx(0.2625)
        assert doc["beta"] is None
        assert doc["alpha_argmax"] == [[0, 0], [1, 0]]
        assert doc["guaranteed_bound"] == pytest.approx(
            guaranteed_alpha_bound(device_half2)
        )
        assert set(doc) == {
            "mode",
            "p",
            "alpha",
            "alpha_argmax",
            "beta",
            "beta_argmin",
            "posterior",
            "guaranteed_bound",
        }

    def test_subset_mode_report_via_policy(self, pop3):
        policy = PrivacyPolicy(
            mode=PolicyMode.NONSTIGMATIZING_SUBSET, xi=0.1, c=0.15, nonstigmatizing=(0,)
        )
        d = Device(p=0.2, m=3)
        rep = privacy_report(
            d, pop3, mode=policy.mode, nonstigmatizing=policy.nonstigmatizing, c=policy.c
        )
        doc = rep.to_json_dict()
        assert doc["beta"] == pytest.approx(0.408163, abs=5e-7)
        assert doc["beta_argmin"] == [1]
        assert doc["alpha"] is None
        assert doc["guaranteed_bound"] == pytest.approx(guaranteed_beta_bound(d, 0.15))

    def test_subset_mode_without_c_has_no_bound(self, pop3):
        rep = privacy_report(
            Device(p=0.2, m=3),
            pop3,
            mode=PolicyMode.NONSTIGMATIZING_SUBSET,
            nonstigmatizing=(0,),
        )
        assert rep.guaranteed_bound is None

    def test_subset_mode_requires_index_set(self, pop3):
        with pytest.raises(ValidationError) as e:
            privacy_report(Device(p=0.2, m=3), pop3, mode=PolicyMode.NONSTIGMATIZING_SUBSET)
        assert e.value.code == "BAD_NONSTIG_SET"


ONE_POPULATION_FORMS = {
    "revealing_probabilities": lambda device, pop: revealing_probabilities(device, pop),
    "alpha_measure": lambda device, pop: alpha_measure(device, pop),
    "beta_measure": lambda device, pop: beta_measure(device, pop, (0,)),
    "privacy_report": lambda device, pop: privacy_report(device, pop, PolicyMode.ALL_STIGMATIZING),
}


@pytest.mark.parametrize("form", ONE_POPULATION_FORMS.values(), ids=ONE_POPULATION_FORMS)
def test_a_posterior_planned_past_the_memory_budget_is_refused_before_a_row_forms(
    monkeypatch, form
):
    # a budget of exactly a 10 x 10 posterior: m = 10 runs, m = 11 is refused
    monkeypatch.setattr(privacy, "MEMORY_BUDGET_BYTES", 10**2 * privacy.BYTES_PER_POSTERIOR_ENTRY)
    original, rows = privacy._posterior, []
    monkeypatch.setattr(privacy, "_posterior", lambda *a: rows.append(a) or original(*a))
    form(Device(p=0.3, m=10), PopulationModel(pi=(0.1,) * 10))
    rows.clear()
    with pytest.raises(ValidationError) as e:
        form(Device(p=0.3, m=11), PopulationModel(pi=(1 / 11,) * 11))
    assert e.value.code == "RESOURCE_LIMIT" and rows == []
    # the batch forms hold one row at a time and plan nothing
    assert alpha_values(Device(p=0.3, m=11), [(1 / 11,) * 11]).shape == (1,)


# --- batch forms ----------------------------------------------------------------


class TestBatchForms:
    @pytest.mark.parametrize("m", [2, 3, 4, 10])
    @pytest.mark.parametrize("p", [0.05, 0.2, 0.5, 0.9])
    def test_batch_values_match_the_per_point_measures(self, m, p):
        """The batch forms and the one-population measures agree bit for bit;
        at m = 10 beta sums 9 posterior rows."""
        device = Device(p=p, m=m)
        if m <= 4:
            points = simplex_grid_points(m, 0.05)
        else:
            points = np.random.default_rng(m).dirichlet(np.ones(m), size=200)
        pops = [PopulationModel(pi=tuple(pt)) for pt in points]
        alphas = alpha_values(device, points)
        assert alphas.shape == (len(points),)
        np.testing.assert_array_equal(alphas, [alpha_measure(device, pop).alpha for pop in pops])
        np.testing.assert_array_equal(
            alphas,
            [privacy_report(device, pop, mode=PolicyMode.ALL_STIGMATIZING).alpha for pop in pops],
        )
        for nonstig in [(0,), (m - 1,), tuple(range(m - 1))]:
            betas = beta_values(device, points, nonstig)
            np.testing.assert_array_equal(
                betas, [beta_measure(device, pop, nonstig).beta for pop in pops]
            )
            reports = [
                privacy_report(
                    device, pop, mode=PolicyMode.NONSTIGMATIZING_SUBSET, nonstigmatizing=nonstig
                )
                for pop in pops
            ]
            np.testing.assert_array_equal(betas, [report.beta for report in reports])

    def test_batch_rows_are_validated_like_populations(self):
        device = Device(p=0.5, m=3)
        for rows in ([[0.5, 0.6, -0.1]], [[0.5, 0.4, 0.2]], [[np.nan, 0.5, 0.5]]):
            with pytest.raises(ValidationError) as e:
                alpha_values(device, rows)
            assert e.value.code == "BAD_PI"
        with pytest.raises(ValidationError) as e:
            beta_values(device, [[0.5, 0.5]], (0,))
        assert e.value.code == "DIMENSION_MISMATCH"
        with pytest.raises(ValidationError) as e:
            beta_values(device, [[0.2, 0.3, 0.5]], (0, 1, 2))
        assert e.value.code == "BAD_NONSTIG_SET"

    @pytest.mark.parametrize(
        "row",
        [
            (0.5, 0.5),
            (1, 0),
            (np.float32(0.25), 0.75),
            (np.int64(1), 0),
            (Fraction(1, 4), Fraction(3, 4)),
            (0.5, 0.5 + 5e-10),
            ("0.5", "0.5"),
            (True, False),
            (np.True_, np.False_),
            (1.0, False),
            (Decimal("0.5"), Decimal("0.5")),
            (0.5 + 0j, 0.5),
            (None, 1.0),
            pytest.param((10**400, 0), id="(10**400, 0)"),
            (np.nan, 1.0),
            (-0.5, 1.5),
            (0.3, 0.3),
        ],
        ids=repr,
    )
    def test_batch_forms_accept_and_refuse_the_rows_that_populations_do(self, row):
        device = Device(p=0.3, m=2)
        try:
            population = PopulationModel(pi=row)
        except ValidationError as e:
            assert e.code == "BAD_PI"
            population = None
        batches = [[list(row)], [row], np.array([row], dtype=object)]
        if len({type(v) for v in row}) == 1:
            batches.append(np.array([row]))  # a bool, string or float array as numpy types it
        for batch in batches:
            if population is None:
                with pytest.raises(ValidationError) as e:
                    alpha_values(device, batch)
                assert e.value.code == "BAD_PI"
                with pytest.raises(ValidationError) as e:
                    beta_values(device, batch, (0,))
                assert e.value.code == "BAD_PI"
            else:
                assert alpha_values(device, batch).tolist() == [alpha_measure(device, population).alpha]
                assert beta_values(device, batch, (0,)).tolist() == [
                    beta_measure(device, population, (0,)).beta
                ]

    def test_single_results_stay_read_only(self):
        device, pop = Device(p=0.3, m=3), PopulationModel(pi=(0.2, 0.3, 0.5))
        for arr in (alpha_measure(device, pop).gaps, beta_measure(device, pop, (0,)).mass_by_response):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @pytest.mark.parametrize(
        "mode, extra",
        [
            (PolicyMode.ALL_STIGMATIZING, {}),
            (PolicyMode.NONSTIGMATIZING_SUBSET, {"nonstigmatizing": (0,), "c": 0.15}),
        ],
    )
    def test_privacy_report_computes_the_posterior_once(self, monkeypatch, mode, extra):
        original = privacy._posterior
        calls = []

        def counted(device, pi):
            calls.append(1)
            return original(device, pi)

        monkeypatch.setattr(privacy, "_posterior", counted)
        device, pop = Device(p=0.3, m=3), PopulationModel(pi=(0.2, 0.3, 0.5))
        report = privacy_report(device, pop, mode=mode, **extra)
        assert len(calls) == 1
        if mode is PolicyMode.ALL_STIGMATIZING:
            result = alpha_measure(device, pop)
            assert (report.alpha, report.alpha_argmax) == (result.alpha, result.argmax)
        else:
            result = beta_measure(device, pop, (0,))
            assert (report.beta, report.beta_argmin) == (result.beta, result.argmin)


# p within 1e-12 of 0 and 1, and anywhere in (0, 1)
HOSTILE_P = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.sampled_from([1e-12, 1 - 1e-12])
)


@st.composite
def population_batches(draw):
    """A batch of up to 40 populations on 2 to 12 values, with zero entries,
    and a non-stigmatizing index set that leaves a value stigmatizing."""
    m = draw(st.integers(2, 12))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1e-300, 1e-3))
    rows = draw(
        st.lists(
            st.lists(weight, min_size=m, max_size=m).filter(lambda r: math.fsum(r) > 0.0),
            min_size=1,
            max_size=40,
        )
    )
    pis = [[w / math.fsum(row) for w in row] for row in rows]
    indices = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m - 1, unique=True))
    return Device(p=draw(HOSTILE_P), m=m), pis, tuple(indices)


@settings(max_examples=150, deadline=None)
@given(batch=population_batches())
def test_batch_forms_equal_the_single_measures_bit_for_bit(batch):
    device, pis, indices = batch
    pops = [PopulationModel(pi=tuple(row)) for row in pis]
    alphas, betas = alpha_values(device, pis), beta_values(device, pis, indices)
    all_stig = [privacy_report(device, pop, mode=PolicyMode.ALL_STIGMATIZING) for pop in pops]
    subset = [
        privacy_report(device, pop, mode=PolicyMode.NONSTIGMATIZING_SUBSET, nonstigmatizing=indices)
        for pop in pops
    ]
    for values, single in (
        (alphas, [alpha_measure(device, pop).alpha for pop in pops]),
        (alphas, [report.alpha for report in all_stig]),
        (betas, [beta_measure(device, pop, indices).beta for pop in pops]),
        (betas, [report.beta for report in subset]),
    ):
        assert values.tobytes() == np.array(single).tobytes()


def memory_layouts(pis):
    """One batch as a C-ordered array, an F-ordered one, a strided view into a
    larger array, and the transpose of an (m, K) array, which is how the grid
    search hands its lattice over."""
    rows = np.array(pis, dtype=float)
    wide = np.full((2 * rows.shape[0], 3 * rows.shape[1]), np.nan)
    wide[::2, 1::3] = rows
    return {
        "C": np.ascontiguousarray(rows),
        "F": np.asfortranarray(rows),
        "strided": wide[::2, 1::3],
        "transposed": np.ascontiguousarray(rows.T).T,
    }


@settings(max_examples=100, deadline=None)
@given(batch=population_batches())
def test_batch_forms_keep_their_bits_in_every_memory_layout(batch):
    device, pis, indices = batch
    layouts = memory_layouts(pis)
    assert not layouts["strided"].flags.c_contiguous and not layouts["strided"].flags.f_contiguous
    for values in (
        lambda pts: alpha_values(device, pts),
        lambda pts: beta_values(device, pts, indices),
    ):
        found = {name: values(pts).tobytes() for name, pts in layouts.items()}
        assert len(set(found.values())) == 1, found


# --- the memo of validated batches -----------------------------------------------


def frozen_view(view):
    """``view`` over a copy of the memory it views, held in an immutable
    ``bytes`` buffer: the same layout, frozen."""
    owner = view if view.base is None else view.base
    start = view.__array_interface__["data"][0] - owner.__array_interface__["data"][0]
    return np.ndarray(view.shape, view.dtype, owner.tobytes(order="A"), start, view.strides)


def counted_row_sums(patch):
    """Patch ``model._row_sums`` to record each batch it sums; returns the record."""
    calls, row_sums = [], model._row_sums
    patch.setattr(model, "_row_sums", lambda rows: calls.append(len(rows)) or row_sums(rows))
    return calls


def test_a_writeable_batch_is_validated_on_every_call():
    device = Device(p=0.3, m=3)
    points = simplex_grid_points(3, 0.1)
    read_only = points[::2]
    read_only.flags.writeable = False  # a flag that can be set back is no freeze
    for batch in (points, read_only):
        alpha_values(device, batch)
        beta_values(device, batch, (0,))
    points[2, 1] = -0.1
    for batch in (points, read_only):
        for form in (lambda: alpha_values(device, batch), lambda: beta_values(device, batch, (0,))):
            with pytest.raises(ValidationError, match="has a negative proportion") as e:
                form()
            assert e.value.code == "BAD_PI"


def test_a_frozen_invalid_batch_is_refused_on_every_call(monkeypatch):
    calls = counted_row_sums(monkeypatch)
    device = Device(p=0.3, m=3)
    for rows, code in (([[0.5, 0.4, 0.2]], "BAD_PI"), ([[0.5, 0.5]], "DIMENSION_MISMATCH")):
        batch = model._frozen(rows)
        for _ in range(2):
            with pytest.raises(ValidationError) as e:
                alpha_values(device, batch)
            assert e.value.code == code
    # the bad sum is found again on the second call; the valid m = 2 batch is
    # summed once, and each call still compares its m with the device's
    assert calls == [1, 1, 1]


def test_frozen_batches_of_equal_geometry_keep_their_own_results():
    device = Device(p=0.3, m=3)
    batches = [[(0.2, 0.3, 0.5), (0.6, 0.4, 0.0)], [(0.1, 0.1, 0.8), (0.3, 0.3, 0.4)]]
    fresh = [alpha_values(device, rows).tobytes() for rows in batches]
    for i in (0, 1, 0, 1, 1, 0):
        # each batch is dropped before the next is made, so a table keyed by
        # the id or address alone would serve one batch's result to the other
        batch = model._frozen(batches[i])
        assert alpha_values(device, batch).tobytes() == fresh[i]
        del batch
    kept = [model._frozen(rows) for rows in batches]
    assert [alpha_values(device, batch).tobytes() for batch in kept] == fresh


@settings(max_examples=50, deadline=None)
@given(batch=population_batches())
def test_a_remembered_batch_keeps_its_bits_in_every_memory_layout(batch):
    device, pis, indices = batch

    def values(pts):
        return alpha_values(device, pts).tobytes(), beta_values(device, pts, indices).tobytes()

    layouts = memory_layouts(pis)
    expected = {name: values(pts) for name, pts in layouts.items()}
    frozen = {name: frozen_view(pts) for name, pts in layouts.items()}
    frozen["_frozen"] = model._frozen(pis)
    with pytest.MonkeyPatch.context() as patch:
        calls = counted_row_sums(patch)
        for name, pts in frozen.items():
            assert not pts.flags.writeable
            assert values(pts) == values(pts) == expected.get(name, expected["C"]), name
    # each frozen batch is summed on its first call only, whichever form makes it
    assert calls == [len(pis)] * len(frozen)


def test_the_grid_search_points_are_validated_once_per_process(monkeypatch):
    """The grid search hands the batch forms a view of its frozen input, so
    the points are validated and renormalized on the first search alone. If
    a numpy made the view so that its memory could not be traced to the
    frozen buffer, this would fail rather than quietly lose the memo."""
    device = Device(p=0.3, m=3)
    searches = [
        (lambda pts: alpha_values(device, pts), {"extra_points": [(0.45, 0.55, 0.0)]}),
        (lambda pts: beta_values(device, pts, (0,)), {"mass_indices": (0,), "mass_floor": 0.15}),
        (lambda pts: alpha_values(device, pts), {}),
    ]
    monkeypatch.setattr(model, "_REMEMBERED", {})
    calls = counted_row_sums(monkeypatch)
    first = [simplex_grid_search(f, 3, 0.01, **kwargs) for f, kwargs in searches]
    assert calls == [5152, 3741, 5151]
    again = [simplex_grid_search(f, 3, 0.01, **kwargs) for f, kwargs in searches]
    assert calls == [5152, 3741, 5151]
    assert [(r.value, r.witness.tobytes(), r.points_evaluated) for r in again] == [
        (r.value, r.witness.tobytes(), r.points_evaluated) for r in first
    ]


def test_alpha_measure_and_alpha_values_refuse_a_max_gap_off_the_diagonal_form(monkeypatch):
    original = privacy._posterior

    def corrupted(device, pi, rows=None):
        posterior = [list(row) for row in original(device, pi, rows)]
        posterior[0][1] = posterior[0][1] + 0.5  # a gap past the diagonal form
        return posterior

    monkeypatch.setattr(privacy, "_posterior", corrupted)
    device, pi = Device(p=0.3, m=3), (0.2, 0.3, 0.5)
    with pytest.raises(RuntimeError, match="alpha self-check failed"):
        alpha_measure(device, PopulationModel(pi=pi))
    with pytest.raises(RuntimeError, match="alpha self-check failed"):
        alpha_values(device, [pi, (0.5, 0.25, 0.25)])


def test_beta_bound_accepts_numpy_scalars():
    device = Device(p=0.3, m=3)
    for c in (np.float32(0.15), np.float64(0.15)):
        assert guaranteed_beta_bound(device, c) == guaranteed_beta_bound(device, float(c))
    with pytest.raises(ValidationError) as e:
        guaranteed_beta_bound(device, np.float32(1.5))
    assert e.value.code == "C_OUT_OF_RANGE"
