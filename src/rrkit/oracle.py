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
    _frozen,
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
# GRID_BLOCK_BYTES / m bytes of it, and so is each search's whole input over
# it (extra points appended, mass filter applied), whose points the batch
# privacy forms validate once; a larger lattice is built, appended to and
# filtered block by block by every search, and every block validated. At
# 1 MiB (14 563 rows at m = 3) the step-0.01 lattice is kept (124 KB), with
# verify's two inputs and their validated columns (about 0.4 MB more), and
# each search takes its input in one call; at 128 KiB (1 820 rows) each
# search builds it again in four blocks. Measured on a shared 2-vCPU x86
# host, in-process run_verification at step 0.01: 1.23-1.43 ms (best of 500,
# in three processes) against 2.51-2.82 ms at 128 KiB (three), peak RSS
# 30.4-30.6 MB against 30.0-30.3 MB. A loop of `verify --grid-step 0.01` CLI
# commands takes a median 0 minor faults a command, against 119 when every
# search still built, appended to, filtered and validated its input (300
# commands after 20, three processes each). At step 0.00025 (best and
# median of three runs): 0.97-0.99 s against 1.64-1.79 s, and 32.1 MB
# against 31.5 MB.
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
    """Best value found, the population attaining it (a frozen array), and how
    many points were tried."""

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
    call, so it is frozen. ``rows`` is part of the key, so a lattice built at
    one block size is never served at another."""
    return _frozen(_count_vectors(k, m, 0, k) / k)


def _search_plan(
    m: int,
    step: float,
    mass_indices: Sequence[int] | None,
    mass_floor: float | None,
    extra_points: Iterable[Sequence[float]],
) -> tuple[int, np.ndarray, tuple[int, ...] | None, float | None]:
    """The arguments of :func:`simplex_grid_search`, checked before anything
    is built: the parts k, the extra points as an (E, m) float array, the
    mass indices as a tuple of ints and the mass floor."""
    if (mass_indices is None) != (mass_floor is None):
        missing = "mass_floor" if mass_floor is None else "mass_indices"
        raise ValueError(f"mass_indices and mass_floor go together; {missing} is missing")
    k = grid_divisions(m, step)
    try:
        extras = np.asarray(list(extra_points), dtype=float)
    except ValueError:
        raise ValueError(f"extra_points need shape (E, {m}); they are ragged") from None
    if extras.size == 0 and extras.ndim == 1:
        extras = extras.reshape(0, m)
    if extras.ndim != 2 or extras.shape[1] != m:
        raise ValueError(f"extra_points need shape (E, {m}), got {extras.shape}")
    idx = None if mass_indices is None else tuple(mass_indices)
    for i in idx or ():
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < m:
            raise ValueError(f"mass index {i!r} is not a value index in 0..{m - 1}")
    return k, extras, idx, mass_floor


def _search_columns(
    columns: np.ndarray, extras: np.ndarray, idx: tuple[int, ...] | None, floor: float | None
) -> np.ndarray:
    """A block of lattice points, one per column, as the search evaluates
    it: ``extras`` appended after them, and the points whose mass on
    ``idx`` falls below ``floor`` (within 1e-12) left out. The block itself
    when there is neither."""
    if len(extras):
        columns = np.concatenate((columns, extras.T), axis=1)
    if idx is not None:
        keep = ~(columns.T[:, list(idx)].sum(axis=1) < floor - 1e-12)
        columns = np.compress(keep, columns, axis=1)
    return columns


@functools.lru_cache(maxsize=8)
def _search_input(
    k: int,
    m: int,
    rows: int,
    extras: bytes,
    shape: tuple[int, int],
    idx: tuple[int, ...] | None,
    floor: float | None,
) -> np.ndarray:
    """The whole input of a search over a lattice that fits one block of
    ``rows`` points: the cached lattice with the extra points (given by
    their bytes, so that -0.0 and 0.0 differ) appended and the mass filter
    applied. It is shared by every search with the same arguments, so it is
    frozen; a search with neither is handed the lattice itself."""
    lattice = _lattice(k, m, rows)
    points = np.frombuffer(extras).reshape(shape) if extras else np.empty(shape)
    columns = _search_columns(lattice, points, idx, floor)
    return lattice if columns is lattice else _frozen(columns)


def _search_blocks(
    k: int, m: int, extras: np.ndarray, idx: tuple[int, ...] | None, floor: float | None
) -> Iterator[np.ndarray]:
    """The input of a search, in order, as (m, B) float arrays, one point per
    column: the cached input when the lattice fits one block, else each
    block of the lattice as it is built, the extras with the last."""
    rows = _block_rows(m)
    if math.comb(k + m - 1, m - 1) <= rows:
        return iter((_search_input(k, m, rows, extras.tobytes(), extras.shape, idx, floor),))
    none = extras[:0]

    def block(counts: np.ndarray) -> np.ndarray:
        # the lattice ends with (k, 0, ..., 0), the one point whose first count is k
        return _search_columns(counts / k, extras if counts[0, -1] == k else none, idx, floor)

    # map, unlike a generator, lets each count block go once it is divided
    return map(block, _count_blocks(k, m, rows))


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
    values. The array may have any memory layout, and may be a view of an
    input that other calls share. A lattice of at most
    ``GRID_BLOCK_BYTES / (8 m^2)`` points goes to it in one call, and that
    whole input, the extra points and the mass filter included, is built
    once per process for each set of arguments; a larger lattice goes in
    blocks of at most that many points, built one at a time, so that
    per-point m-by-m matrices stay within ``GRID_BLOCK_BYTES`` at any step.
    The first point attaining the best value wins.

    When ``mass_indices`` (value indices in 0..m-1) and ``mass_floor`` are
    given, which must be together, grid points whose mass on those
    coordinates falls below the floor are skipped (the floor itself passes,
    within 1e-12). ``extra_points``, of shape (E, m), are evaluated as
    supplied, after the lattice and in the call of its last block, letting
    callers inject suspected extremal populations that the lattice misses.
    Arguments are refused, with ``BAD_GRID`` for the step and ``ValueError``
    for the rest, before any lattice is built.
    """
    k, extras, idx, floor = _search_plan(m, step, mass_indices, mass_floor, extra_points)
    sign = -1.0 if minimize else 1.0
    best: float | None = None
    best_point: np.ndarray | None = None
    evaluated = 0
    for columns in _search_blocks(k, m, extras, idx, floor):
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
            best_point = _frozen(points[i])
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
