"""Privacy measures, posteriors, and the guaranteed worst-case bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rrkit.privacy as privacy
from rrkit import Device, PolicyMode, PopulationModel, PrivacyPolicy, ValidationError
from rrkit.design import p0_all_stigmatizing, p0_nonstigmatizing
from rrkit.oracle import (
    adversarial_alpha_population,
    adversarial_beta_population,
    simplex_grid_points,
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
    report_for_policy,
    revealing_probabilities,
)


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
        rep = report_for_policy(d, pop3, policy)
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


# --- batch forms ----------------------------------------------------------------


class TestBatchForms:
    @pytest.mark.parametrize("m", [2, 3, 4, 10])
    @pytest.mark.parametrize("p", [0.05, 0.2, 0.5, 0.9])
    def test_batch_values_match_the_per_point_measures(self, m, p):
        """The batch cores and the one-population core agree bit for bit; at
        m = 10 beta sums 9 posterior rows, past numpy's 8-term runs."""
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


def test_both_alpha_cores_refuse_a_max_gap_off_the_diagonal_form():
    device, pi = Device(p=0.3, m=3), (0.2, 0.3, 0.5)
    posterior = [list(row) for row in privacy._posterior(device, pi)]
    posterior[0][1] += 0.5  # a gap past the diagonal form
    with pytest.raises(RuntimeError, match="alpha self-check failed"):
        privacy._alpha(device, pi, posterior)
    columns = np.array(pi)[:, None]
    with pytest.raises(RuntimeError, match="alpha self-check failed"):
        privacy._alpha_core(device, columns, np.array(posterior)[:, :, None])


def test_beta_bound_accepts_numpy_scalars():
    device = Device(p=0.3, m=3)
    for c in (np.float32(0.15), np.float64(0.15)):
        assert guaranteed_beta_bound(device, c) == guaranteed_beta_bound(device, float(c))
    with pytest.raises(ValidationError) as e:
        guaranteed_beta_bound(device, np.float32(1.5))
    assert e.value.code == "C_OUT_OF_RANGE"
