"""The reference oracles themselves: enumeration, joint-table Bayes, grid search.

These must be trustworthy independently of the production code, so the tests
here lean on combinatorial identities and hand arithmetic, not on the modules
the oracles are meant to check.
"""

import math
import pathlib
import re

import numpy as np
import pytest

import rrkit.oracle as oracle
from rrkit import Device, PopulationModel, ValidationError
from rrkit.oracle import (
    MAX_GRID_POINTS,
    adversarial_alpha_population,
    adversarial_beta_population,
    bayes_posterior_oracle,
    enumerate_count_vectors,
    enumeration_distribution,
    enumeration_expectation,
    enumeration_moments,
    grid_divisions,
    multinomial_variance_oracle,
    response_distribution_oracle,
    simplex_grid_search,
)

from conftest import simplex_grid_points


def test_count_vectors_are_the_full_stars_and_bars_set():
    vectors = list(enumerate_count_vectors(4, 3))
    assert len(vectors) == math.comb(4 + 2, 2)
    assert len(set(vectors)) == len(vectors)
    assert all(sum(v) == 4 and min(v) >= 0 for v in vectors)


def test_enumeration_probabilities_sum_to_one():
    dist = enumeration_distribution(5, (0.2, 0.3, 0.5))
    assert math.isclose(sum(w for _, w in dist), 1.0, abs_tol=1e-12)


def test_enumeration_matches_binomial_pmf():
    n, lam = 6, 0.35
    dist = dict(enumeration_distribution(n, (lam, 1 - lam)))
    for k in range(n + 1):
        expected = math.comb(n, k) * lam**k * (1 - lam) ** (n - k)
        assert dist[(k, n - k)] == pytest.approx(expected, rel=1e-12)


def test_enumeration_expectation_of_proportions_is_the_probability_vector():
    probs = (0.1, 0.6, 0.3)
    for i in range(3):
        val = enumeration_expectation(4, probs, lambda c, i=i: c[i] / 4)
        assert val == pytest.approx(probs[i], abs=1e-12)


def test_enumeration_moments_binomial_variance():
    n, lam = 5, 0.4
    mean, var = enumeration_moments(n, (lam, 1 - lam), lambda c: float(c[0]))
    assert mean == pytest.approx(n * lam, abs=1e-12)
    assert var == pytest.approx(n * lam * (1 - lam), abs=1e-12)


def test_enumeration_size_cap():
    with pytest.raises(ValidationError) as e:
        enumeration_distribution(1000, (0.25, 0.25, 0.25, 0.25))
    assert e.value.code == "BAD_N"


def test_posterior_oracle_hand_value():
    post = bayes_posterior_oracle(Device(p=0.5, m=2), PopulationModel(pi=(0.3, 0.7)))
    assert post[0, 0] == pytest.approx(0.5625)
    np.testing.assert_allclose(post.sum(axis=0), 1.0, atol=1e-12)


def test_response_distribution_oracle_hand_value():
    lam = response_distribution_oracle(Device(p=0.5, m=2), PopulationModel(pi=(0.3, 0.7)))
    np.testing.assert_allclose(lam, [0.4, 0.6], atol=1e-15)


def test_variance_oracle_hand_value():
    # x=(0,1): Var = lambda_2(1-lambda_2)/(n p^2) = 0.24/25
    var = multinomial_variance_oracle(
        Device(p=0.5, m=2), (0.0, 1.0), PopulationModel(pi=(0.3, 0.7)), 100
    )
    assert var == pytest.approx(0.0096, abs=1e-15)


def test_variance_oracle_enumeration_self_check_path_runs():
    # small n and m trigger the internal enumeration comparison
    var = multinomial_variance_oracle(
        Device(p=0.6, m=3), (0.0, 1.0, 2.0), PopulationModel(pi=(0.2, 0.3, 0.5)), 3
    )
    assert var > 0


def test_variance_oracle_rejects_bad_n():
    with pytest.raises(ValidationError) as e:
        multinomial_variance_oracle(
            Device(p=0.5, m=2), (0.0, 1.0), PopulationModel(pi=(0.3, 0.7)), 0
        )
    assert e.value.code == "BAD_N"


N_ENTRY_POINTS = {
    "enumeration_distribution": lambda n: enumeration_distribution(n, (0.2, 0.3, 0.5)),
    "multinomial_variance_oracle": lambda n: multinomial_variance_oracle(
        Device(p=0.6, m=3), (0.0, 1.0, 2.0), PopulationModel(pi=(0.2, 0.3, 0.5)), n
    ),
}


@pytest.mark.parametrize("entry", sorted(N_ENTRY_POINTS))
@pytest.mark.parametrize("n", [np.int64(3), np.int32(3), np.uint8(3)])
def test_oracles_take_a_numpy_integer_n_as_an_int(entry, n):
    # the sample-size rule of the estimators and SimulationConfig, which
    # refused numpy integers here alone
    call = N_ENTRY_POINTS[entry]
    assert call(n) == call(3)


@pytest.mark.parametrize("entry", sorted(N_ENTRY_POINTS))
@pytest.mark.parametrize("n", [0, -1, True, 3.0, np.float64(3.0), "3", None])
def test_oracles_refuse_a_bad_n(entry, n):
    with pytest.raises(ValidationError) as e:
        N_ENTRY_POINTS[entry](n)
    assert e.value.code == "BAD_N"


def test_variance_oracle_is_shift_invariant():
    # a support far from 0 must not cancel the variance away, on the moment
    # form (n=100) and on the enumeration self-check path (n=3)
    device, pop = Device(p=0.5, m=3), PopulationModel(pi=(0.2, 0.3, 0.5))
    for n in (3, 100):
        base = multinomial_variance_oracle(device, (0.0, 1.0, 2.0), pop, n)
        for s in (1e6, 1e8, 1e9):
            shifted = multinomial_variance_oracle(device, (s, s + 1.0, s + 2.0), pop, n)
            assert shifted == pytest.approx(base, rel=1e-12)


# --- simplex grid -------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("k", [1, 2, 5, 10, 20])
def test_grid_points_follow_the_count_vector_order(m, k):
    lattice = simplex_grid_points(m, 1.0 / k)
    expected = [np.asarray(c, dtype=float) / k for c in enumerate_count_vectors(k, m)]
    assert lattice.shape == (len(expected), m)
    for row, ref in zip(lattice, expected):
        assert np.array_equal(row, ref)


def test_grid_blocks_keep_order_and_first_best(monkeypatch):
    # tiny blocks split the lattice many times, down to single rows; the
    # result, ties included, must match the one-block search
    def objective(pts):
        return np.round(pts @ np.array([1.0, 3.0, 3.0, 0.5]), 6)

    whole = simplex_grid_search(objective, 4, 0.05)
    calls = []

    def counted(pts):
        calls.append(len(pts))
        return objective(pts)

    monkeypatch.setattr(oracle, "GRID_BLOCK_BYTES", 8 * 16 * 7)
    split = simplex_grid_search(counted, 4, 0.05)
    assert max(calls) <= 7 and len(calls) > 10
    assert split.points_evaluated == whole.points_evaluated == sum(calls)
    assert split.value == whole.value
    np.testing.assert_array_equal(split.witness, whole.witness)
    # (0, 0, 1, 0) ties with (0, 1, 0, 0) and comes first in count-vector order
    np.testing.assert_array_equal(whole.witness, [0.0, 0.0, 1.0, 0.0])


def test_grid_search_hands_read_only_blocks_to_the_objective():
    def objective(pts):
        with pytest.raises(ValueError):
            pts[0, 0] = 5.0
        return pts[:, 0]

    assert simplex_grid_search(objective, 3, 0.5).value == 1.0


def test_grid_search_rejects_a_misshapen_objective():
    with pytest.raises(ValueError):
        simplex_grid_search(lambda pts: pts.sum(), 3, 0.5)


def test_grid_point_cap_refuses_before_building(monkeypatch):
    # 1e-4 puts comb(10002, 2) ~ 5e7 points on the 3-simplex
    def no_lattice(*args):
        raise AssertionError("lattice built for a refused step")

    monkeypatch.setattr(oracle, "_count_blocks", no_lattice)
    for call in (
        lambda: simplex_grid_points(3, 1e-4),
        lambda: simplex_grid_search(lambda pts: pts[:, 0], 3, 1e-4),
    ):
        with pytest.raises(ValidationError) as e:
            call()
        assert e.value.code == "BAD_GRID"
        assert str(MAX_GRID_POINTS) in str(e.value)
    assert grid_divisions(2, 1e-6) == 1_000_000  # 1e6 + 1 points stay under the cap


@pytest.mark.parametrize("m, step", [(3, 1e-300), (2000, 1e-5)])
def test_a_grid_over_the_cap_is_refused_in_a_bounded_message(m, step):
    # the point counts have 600 and 4 353 digits
    with pytest.raises(ValidationError) as e:
        grid_divisions(m, step)
    assert e.value.code == "BAD_GRID"
    assert str(MAX_GRID_POINTS) in str(e.value) and len(str(e.value)) < 100


@pytest.mark.parametrize("step", [0.0, -0.1, 1.5, float("nan"), float("inf"), 5e-324, "x"])
def test_unusable_grid_steps_are_bad_grid(step):
    with pytest.raises(ValidationError) as e:
        grid_divisions(3, step)
    assert e.value.code == "BAD_GRID"


def test_grid_points_cover_the_simplex():
    pts = list(simplex_grid_points(3, 0.25))
    assert len(pts) == math.comb(4 + 2, 2)
    for pt in pts:
        assert pt.sum() == pytest.approx(1.0, abs=1e-12)
        assert (pt >= 0).all()


def test_grid_step_must_divide_one():
    with pytest.raises(ValidationError) as e:
        list(simplex_grid_points(3, 0.07))
    assert e.value.code == "BAD_GRID"


def test_grid_search_finds_linear_extremes():
    weights = np.array([1.0, 5.0, 2.0])
    best = simplex_grid_search(lambda pts: [float(weights @ pt) for pt in pts], 3, 0.1)
    assert best.value == pytest.approx(5.0)
    np.testing.assert_allclose(best.witness, [0, 1, 0], atol=1e-12)
    worst = simplex_grid_search(
        lambda pts: [float(weights @ pt) for pt in pts], 3, 0.1, minimize=True
    )
    assert worst.value == pytest.approx(1.0)


def test_grid_search_mass_constraint_filters_points():
    res = simplex_grid_search(
        lambda pts: [float(pt[1]) for pt in pts], 3, 0.1, minimize=False, mass_indices=(0,),
        mass_floor=0.5,
    )
    # pi_0 >= 0.5 caps pi_1 at 0.5
    assert res.value == pytest.approx(0.5)
    full = simplex_grid_search(lambda pts: [float(pt[1]) for pt in pts], 3, 0.1)
    assert res.points_evaluated < full.points_evaluated


@pytest.mark.parametrize(
    "given, missing", [({"mass_floor": 0.5}, "mass_indices"), ({"mass_indices": (0,)}, "mass_floor")]
)
def test_grid_search_refuses_half_a_mass_constraint(given, missing):
    # either half alone used to run an unconstrained search without a word
    with pytest.raises(ValueError, match=f"{missing} is missing"):
        simplex_grid_search(lambda pts: pts[:, 0], 3, 0.1, **given)


@pytest.mark.parametrize("t", [1, 2, 7, 8, 12])
def test_the_mass_filter_rounds_alike_in_both_layouts(t):
    """The lattice is stored one point per column, so the mass filter sums
    ``points[:, idx]`` over a transposed view; the sum must round as it does
    over row-major (B, m) points, however many indices it adds."""
    rng = np.random.default_rng(t)
    columns = rng.random((13, 500)) * rng.choice([1e-8, 1.0, 1e8], size=(13, 500))
    idx = [int(i) for i in rng.permutation(13)[:t]]
    row_major = np.ascontiguousarray(columns.T)
    assert columns.T[:, idx].sum(axis=1).tobytes() == row_major[:, idx].sum(axis=1).tobytes()


def test_the_shared_lattice_cannot_be_written():
    """A lattice that fits one block is built once and handed to every
    search; neither the objective's view nor what it is a view of may let
    one search change the points of the next."""

    def objective(pts):
        with pytest.raises(ValueError):
            pts[0, 0] = 5.0
        with pytest.raises((TypeError, ValueError)):
            pts.base[0] = 5.0
        with pytest.raises(ValueError):
            pts.flags.writeable = True
        return pts[:, 0]

    for _ in range(2):
        assert simplex_grid_search(objective, 3, 0.01).value == 1.0
    expected = [np.asarray(c, dtype=float) / 100 for c in enumerate_count_vectors(100, 3)]
    np.testing.assert_array_equal(simplex_grid_points(3, 0.01), expected)


def test_a_changed_block_size_never_reuses_a_cached_lattice(monkeypatch):
    def lattice_bases(patch=None):
        """What each objective call's points are a view of, and how many
        count blocks the search built."""
        bases, built = [], []
        count_vectors = oracle._count_vectors

        def counted(*args):
            built.append(args)
            return count_vectors(*args)

        def objective(pts):
            bases.append(pts.base)
            return pts[:, 0]

        with monkeypatch.context() as context:
            context.setattr(oracle, "_count_vectors", counted)
            if patch is not None:
                context.setattr(oracle, "GRID_BLOCK_BYTES", patch)
            simplex_grid_search(objective, 3, 0.01)
        return bases, len(built)

    default, _ = lattice_bases()
    assert lattice_bases() == (default, 0)  # served again, built never
    # 512 KiB still holds the step-0.01 lattice (7 281 points at m = 3),
    # which must then be built afresh at that block size ...
    half, built = lattice_bases(1 << 19)
    assert len(half) == 1 and half[0] is not default[0] and built == 1
    # ... and 128 KiB (1 820 points) streams it in blocks, none of them cached
    split, built = lattice_bases(1 << 17)
    assert len(split) > 2 and built >= len(split)
    assert not any(base is default[0] or base is half[0] for base in split)
    assert lattice_bases() == (default, 0)


def lattice_never_built(monkeypatch):
    def no_lattice(*args):
        raise AssertionError("a lattice or a search input was built")

    for name in ("_count_vectors", "_count_blocks", "_search_input"):
        monkeypatch.setattr(oracle, name, no_lattice)


@pytest.mark.parametrize(
    "extras, shape",
    [([[0.5, 0.5]], "(1, 2)"), ([0.2, 0.3, 0.5], "(3,)"), ([[[0.2, 0.3, 0.5]]], "(1, 1, 3)")],
)
@pytest.mark.parametrize("step", [0.01, 0.005])  # a cached lattice, and a streamed one
def test_misshapen_extra_points_are_refused_before_building(monkeypatch, extras, shape, step):
    lattice_never_built(monkeypatch)
    message = f"extra_points need shape (E, 3), got {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        simplex_grid_search(lambda pts: pts[:, 0], 3, step, extra_points=extras)
    with pytest.raises(ValueError, match="ragged"):
        simplex_grid_search(lambda pts: pts[:, 0], 3, step, extra_points=[[0.5, 0.5], [1.0]])


@pytest.mark.parametrize("index", [3, -1, 1.0, True, "0"])
@pytest.mark.parametrize("step", [0.01, 0.005])
def test_mass_indices_off_the_values_are_refused_before_building(monkeypatch, index, step):
    lattice_never_built(monkeypatch)
    message = f"mass index {index!r} is not a value index in 0..2"
    with pytest.raises(ValueError, match=re.escape(message)):
        simplex_grid_search(lambda pts: pts[:, 0], 3, step, mass_indices=(0, index), mass_floor=0.1)


def test_each_search_input_is_built_once_and_kept_apart():
    """The input of a search over a lattice that fits one block, extras and
    filter included, is built once per set of arguments: a -0.0 extra is not
    a 0.0 one, and another floor filters anew; with neither, it is the
    lattice alone."""
    k, rows = 100, oracle._block_rows(3)

    def points_of(**kwargs):
        seen = []
        simplex_grid_search(lambda pts: seen.append(pts) or pts[:, 0], 3, 0.01, **kwargs)
        (points,) = seen
        return points

    bare = points_of()
    assert bare.base is oracle._search_input(k, 3, rows, b"", (0, 3), None, None).base
    plus, minus = (points_of(extra_points=[[z, 0.25, 0.75]]) for z in (0.0, -0.0))
    assert len(plus) == len(minus) == len(bare) + 1
    assert not np.signbit(plus[-1, 0]) and np.signbit(minus[-1, 0])
    low, high = (points_of(mass_indices=(0,), mass_floor=c) for c in (0.15, 0.2))
    # a floor of c/100 leaves out the k + 1 - f points whose first count f is below c
    assert [len(low), len(high)] == [len(bare) - sum(k + 1 - f for f in range(c)) for c in (15, 20)]
    again = [points_of(extra_points=[[z, 0.25, 0.75]]) for z in (0.0, -0.0)]
    again += [points_of(mass_indices=(0,), mass_floor=c) for c in (0.15, 0.2)]
    assert [a.base for a in again] == [p.base for p in (plus, minus, low, high)]
    assert len({id(p.base) for p in (bare, plus, minus, low, high)}) == 5


def test_grid_search_uses_extra_points():
    # the lattice misses the off-grid optimum; the injected point must win
    target = np.array([0.123, 0.877])
    res = simplex_grid_search(
        lambda pts: [-abs(float(pt[0]) - 0.123) for pt in pts], 2, 0.5, extra_points=[target]
    )
    assert res.value == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(res.witness, target)


def test_grid_search_unsatisfiable_constraint():
    with pytest.raises(ValidationError) as e:
        simplex_grid_search(
            lambda pts: [0.0 for pt in pts], 2, 0.5, mass_indices=(0,), mass_floor=2.0
        )
    assert e.value.code == "BAD_GRID"


# --- adversarial witnesses ------------------------------------------------------


def test_adversarial_alpha_population_shape():
    pop = adversarial_alpha_population(4, 0.1)
    assert pop.pi == (0.45, 0.55, 0.0, 0.0)


def test_adversarial_beta_population_shape():
    pop = adversarial_beta_population(3, 0.15)
    assert pop.pi == (0.15, 0.85, 0.0)


def test_oracle_module_does_not_lean_on_production_modules():
    # independence guard: the reference path must not import the modules it checks
    import rrkit.oracle as oracle_module

    source = pathlib.Path(oracle_module.__file__).read_text(encoding="utf-8")
    assert "from .privacy" not in source and "import privacy" not in source
    assert "from .estimation" not in source and "import estimation" not in source
