"""Independent reference computations used to cross-check the closed forms.

Everything here recomputes quantities from first principles along a different
computational path than the production modules:

* posteriors via an explicit joint table, normalized column by column;
* estimator moments via exact enumeration of multinomial count vectors;
* worst cases via brute-force search over a simplex grid.

To keep these checks honest this module must not call into the estimation or
privacy modules; it shares only the plain data types and their input rules.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .model import (
    Device,
    PopulationModel,
    ValidationError,
    _as_finite_float,
    _Record,
    _require_same_m,
    _sample_size,
)

# enumeration work grows like (n+1)^(m-1); refuse anything bigger than this
MAX_ENUMERATION_POINTS = 100_000
# a simplex grid of step 1/k holds comb(k+m-1, m-1) points; refuse more than this
MAX_GRID_POINTS = 10_000_000
# grid points per objective call are capped so an (rows, m, m) float64 array
# stays within this many bytes, which bounds the search's memory at any step.
# A lattice within the cap is built once per process and kept, at most
# GRID_BLOCK_BYTES / m bytes of it; a larger one is built block by block by
# every search. At 1 MiB (14 563 rows at m = 3) the step-0.01 lattice is kept
# (124 KB) and each search takes it in one call; at 128 KiB (1 820 rows) each
# search builds it again in four blocks. Measured on a shared 2-vCPU x86 host,
# in-process run_verification at step 0.01: 1.30-1.44 ms (best of 500, in
# four processes) against 2.16-2.19 ms at 128 KiB (two), peak RSS 30.8 MB
# against 30.6-30.7 MB.
# Neither size faults in a loop of run_verification alone; in a loop of
# `verify` CLI commands the count depends on the heap's history: a median 129
# minor faults a command inside perfbench's verify_fine_grid loop, but 68 with
# one 41 KB temporary fewer in the mass filter. At step 0.00025 (best and
# median of three runs): 0.97-0.99 s against 1.64-1.79 s, and 32.1 MB against
# 31.5 MB.
GRID_BLOCK_BYTES = 1 << 20


def bayes_posterior_oracle(device: Device, population: PopulationModel) -> np.ndarray:
    """Posterior matrix by building the joint (true, response) table and normalizing.

    Entry [i, j] is Prob(true = x_i | response = x_j). The device kernel is
    materialized explicitly and the joint is divided by its column sums, so no
    simplified posterior expression is involved.
    """
    joint = _joint_table(device, population)
    return joint / joint.sum(axis=0, keepdims=True)


def response_distribution_oracle(device: Device, population: PopulationModel) -> np.ndarray:
    """Response marginal from the explicit joint table (column sums)."""
    return _joint_table(device, population).sum(axis=0)


def _joint_table(device: Device, population: PopulationModel) -> np.ndarray:
    """Joint table: entry [i, j] is Prob(true = x_i, response = x_j), the
    population times the explicit (m, m) device kernel."""
    _require_same_m(device.m, population.m)
    m, p = device.m, device.p
    kernel = np.full((m, m), (1.0 - p) / m)
    np.fill_diagonal(kernel, p + (1.0 - p) / m)
    return population.pi_array[:, None] * kernel


def multinomial_variance_oracle(
    device: Device,
    values: Sequence[float],
    population: PopulationModel,
    n: int,
) -> float:
    """Exact sampling variance of the mean estimator, from multinomial moments.

    The estimator is a linear statistic of the response counts, so its variance
    follows from the count covariances alone. It is evaluated in the pairwise
    form

        Var = sum_{i,j} lam_i lam_j (x_i - x_j)^2 / (2 n p^2),

    equal to (sum x_i^2 lam_i - (sum x_i lam_i)^2) / (n p^2) but built from
    differences of support values only, so shifting the support cannot
    cancel it away.

    For small problems the result is additionally cross-checked against a full
    enumeration of count vectors.
    """
    n = _sample_size(n)
    x = np.asarray(values, dtype=float)
    _require_same_m(device.m, x.size)
    _require_same_m(device.m, population.m)
    p = device.p
    lam = response_distribution_oracle(device, population)
    spread = (x[:, None] - x[None, :]) ** 2
    variance = float(lam @ spread @ lam / (2.0 * n * p * p))

    if n <= 4 and device.m <= 3:
        q = device.forced_share
        # the variance ignores a shift of the support; centring keeps the
        # enumerated estimates small, so they cancel nothing either
        xc = x - x.mean()

        def mu_hat(counts: tuple[int, ...]) -> float:
            w = np.asarray(counts, dtype=float) / n
            return float(xc @ ((w - q) / p))

        _, enum_var = enumeration_moments(n, lam, mu_hat)
        if abs(enum_var - variance) > 1e-12 + 1e-9 * abs(variance):
            raise RuntimeError(
                f"variance oracle self-check failed: moment form {variance!r} "
                f"vs enumeration {enum_var!r}"
            )
    return variance


def enumerate_count_vectors(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """All length-m tuples of non-negative integers summing to n."""
    if m == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in enumerate_count_vectors(n - first, m - 1):
            yield (first,) + rest


def enumeration_distribution(
    n: int, probs: Sequence[float]
) -> list[tuple[tuple[int, ...], float]]:
    """Exact multinomial pmf as (count vector, probability) pairs."""
    probs = np.asarray(probs, dtype=float)
    m = probs.size
    n = _sample_size(n)
    if (n + 1) ** (m - 1) > MAX_ENUMERATION_POINTS:
        raise ValidationError(
            "BAD_N", f"enumeration of n={n}, m={m} exceeds {MAX_ENUMERATION_POINTS} points"
        )
    out: list[tuple[tuple[int, ...], float]] = []
    for counts in enumerate_count_vectors(n, m):
        coef = math.factorial(n)
        prob = 1.0
        for c, pr in zip(counts, probs):
            coef //= math.factorial(c)
            prob *= pr**c
        out.append((counts, coef * prob))
    return out


def enumeration_expectation(
    n: int, probs: Sequence[float], statistic: Callable[[tuple[int, ...]], float]
) -> float:
    """Exact expectation of a statistic of multinomial counts."""
    return sum(w * statistic(counts) for counts, w in enumeration_distribution(n, probs))


def enumeration_moments(
    n: int, probs: Sequence[float], statistic: Callable[[tuple[int, ...]], float]
) -> tuple[float, float]:
    """Exact (mean, variance) of a statistic of multinomial counts."""
    dist = enumeration_distribution(n, probs)
    mean = sum(w * statistic(counts) for counts, w in dist)
    var = sum(w * (statistic(counts) - mean) ** 2 for counts, w in dist)
    return mean, var


class GridSearchResult(_Record):
    """Best value found, the population attaining it, and how many points were tried."""

    _fields = ("value", "witness", "points_evaluated")


def grid_divisions(m: int, step: float) -> int:
    """Parts k = 1/step into which the simplex grid cuts the unit mass.

    Refuses, before any lattice is built, a ``step`` that does not divide 1
    into a whole number of parts (0.05 -> 20 parts) and a lattice of more than
    ``MAX_GRID_POINTS`` points on the m-value simplex (comb(k+m-1, m-1)).
    """
    step = _as_finite_float(step, "BAD_GRID", "grid step")
    parts = 1.0 / step if step > 0.0 else 0.0
    k = round(parts) if math.isfinite(parts) else 0
    if k < 1 or abs(k * step - 1.0) > 1e-9:
        raise ValidationError("BAD_GRID", f"step {step!r} must evenly divide 1")
    points = math.comb(k + m - 1, m - 1)
    if points > MAX_GRID_POINTS:
        raise ValidationError(
            "BAD_GRID",
            f"step {step!r} puts {points} points on the {m}-value simplex, "
            f"more than the {MAX_GRID_POINTS} allowed",
        )
    return k


def _count_vectors(k: int, m: int, lo: int, hi: int) -> np.ndarray:
    """The count vectors of ``enumerate_count_vectors(k, m)`` whose first entry
    lies in [lo, hi], as the columns of an (m, B) int array, in the same order."""
    first = np.arange(lo, hi + 1)
    columns, left = [first], k - first
    for _ in range(m - 2):
        reps = left + 1
        nxt = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        columns = [np.repeat(column, reps) for column in columns] + [nxt]
        left = np.repeat(left, reps) - nxt
    return np.stack(columns + [left])


def _count_blocks(k: int, m: int, rows: int) -> Iterator[np.ndarray]:
    """``enumerate_count_vectors(k, m)`` in order, as (m, B) int arrays of at
    most ``rows`` columns: runs of first entries whose vectors fit together,
    and a first entry whose vectors alone do not fit is split on the next entry."""
    first = 0
    while first <= k:
        largest = math.comb(k - first + m - 2, m - 2)  # vectors starting with `first`
        if largest > rows:
            for block in _count_blocks(k - first, m - 1, rows):
                yield np.concatenate((np.full((1, block.shape[1]), first), block))
            first += 1
            continue
        last = min(k, first + rows // largest - 1)
        yield _count_vectors(k, m, first, last)
        first = last + 1


def _block_rows(m: int) -> int:
    return max(1, GRID_BLOCK_BYTES // (8 * m * m))


@functools.lru_cache(maxsize=4)
def _lattice(k: int, m: int, rows: int) -> np.ndarray:
    """The whole lattice of step 1/k, one point per column of an (m, K)
    array, for a lattice of at most ``rows`` points. It is shared by every
    call, so it lies over an immutable buffer: no view of it can be made
    writeable. ``rows`` is part of the key, so a lattice built at one block
    size is never served at another."""
    points = _count_vectors(k, m, 0, k) / k
    return np.frombuffer(points.tobytes(), dtype=float).reshape(points.shape)


def _point_blocks(k: int, m: int) -> Iterator[np.ndarray]:
    """The lattice of step 1/k in order, as (m, B) float arrays, one point
    per column: the cached lattice when it fits one block, else block by block."""
    rows = _block_rows(m)
    if math.comb(k + m - 1, m - 1) <= rows:
        return iter((_lattice(k, m, rows),))
    # map, unlike a generator expression, lets each count block go once divided
    return map(lambda counts: counts / k, _count_blocks(k, m, rows))


def simplex_grid_points(m: int, step: float) -> np.ndarray:
    """Lattice points on the probability simplex with spacing ``step``, as the
    rows of a (K, m) array in the order of ``enumerate_count_vectors``.

    ``step`` must divide 1 into a whole number of parts (0.05 -> 20 parts),
    and the lattice may hold at most ``MAX_GRID_POINTS`` points.
    """
    k = grid_divisions(m, step)
    return np.concatenate(list(_point_blocks(k, m)), axis=1).T.copy()


def simplex_grid_search(
    objective: Callable[[np.ndarray], Sequence[float]],
    m: int,
    step: float,
    minimize: bool = False,
    mass_indices: Sequence[int] | None = None,
    mass_floor: float | None = None,
    extra_points: Iterable[Sequence[float]] = (),
) -> GridSearchResult:
    """Brute-force extremum of ``objective`` over the simplex grid.

    ``objective`` takes a read-only (B, m) array of points and returns their B
    values. The array may have any memory layout, and may be a view of a
    lattice that other calls share. A lattice of at most
    ``GRID_BLOCK_BYTES / (8 m^2)`` points is built once per process and goes
    to it in one call; a larger one goes in blocks of at most that many
    points, built one at a time, so that per-point m-by-m matrices stay
    within ``GRID_BLOCK_BYTES`` at any step. The first point attaining the
    best value wins.

    When ``mass_indices`` and ``mass_floor`` are given, which must be
    together, grid points whose mass on those coordinates falls below the
    floor are skipped (the floor itself passes, within 1e-12).
    ``extra_points`` are evaluated as supplied, after the lattice and in the
    call of its last block, letting callers inject suspected extremal
    populations that the lattice misses.
    """
    if (mass_indices is None) != (mass_floor is None):
        missing = "mass_floor" if mass_floor is None else "mass_indices"
        raise ValueError(f"mass_indices and mass_floor go together; {missing} is missing")
    k = grid_divisions(m, step)
    lattice = math.comb(k + m - 1, m - 1)
    extras = np.asarray(list(extra_points), dtype=float)

    sign = -1.0 if minimize else 1.0
    best: float | None = None
    best_point: np.ndarray | None = None
    evaluated = built = 0
    idx = None if mass_indices is None else list(mass_indices)
    for columns in _point_blocks(k, m):
        built += columns.shape[1]
        if built == lattice and len(extras):
            columns = np.concatenate((columns, extras.T), axis=1)
        if idx is not None:
            keep = ~(columns.T[:, idx].sum(axis=1) < mass_floor - 1e-12)
            columns = np.compress(keep, columns, axis=1)
            if not columns.shape[1]:
                continue
        points = columns.T
        points.flags.writeable = False
        values = np.asarray(objective(points), dtype=float)
        if values.shape != (len(points),):
            raise ValueError(
                f"objective returned shape {values.shape} for {len(points)} points"
            )
        evaluated += len(points)
        i = int(np.argmax(sign * values))
        if best is None or sign * values[i] > sign * best:
            best = float(values[i])
            best_point = points[i].copy()
    if best is None or best_point is None:
        raise ValidationError("BAD_GRID", "no grid point satisfied the mass constraint")
    return GridSearchResult(value=best, witness=best_point, points_evaluated=evaluated)


def adversarial_alpha_population(m: int, xi: float) -> PopulationModel:
    """Population attaining the worst-case prior/posterior gap at the designed p.

    Two values share all the mass, split (1-xi)/2 versus (1+xi)/2; any further
    values carry none.
    """
    pi = [0.0] * m
    pi[0] = (1.0 - xi) / 2.0
    pi[1] = (1.0 + xi) / 2.0
    return PopulationModel(pi=tuple(pi))


def adversarial_beta_population(m: int, c: float) -> PopulationModel:
    """Population attaining the worst-case posterior non-stigmatizing mass when
    value 0 is the non-stigmatizing one: prior mass exactly c on it, the rest
    on a single stigmatizing value."""
    pi = [0.0] * m
    pi[0] = c
    pi[1] = 1.0 - c
    return PopulationModel(pi=tuple(pi))
