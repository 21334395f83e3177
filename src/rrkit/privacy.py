"""Revealing probabilities and the two worst-case privacy measures.

The posterior ("revealing") probability of a true value given an observed
randomized response is what an interviewer could infer. Two scalar measures
summarize the exposure:

* alpha — the largest absolute gap between prior and posterior over all
  (true value, response) pairs. Smaller is more private; relevant when every
  support value is stigmatizing.
* beta — the smallest posterior probability, over responses, of belonging to
  the non-stigmatizing class. Larger is more private; relevant when some
  values carry no stigma.

Both depend on the unknown population, so design works with guaranteed
bounds: the worst case of each measure over all populations the device
parameter admits.

One core forms the posterior rows (:func:`_posterior`) and sums the
non-stigmatizing rows (:func:`_mass`). It takes one population as a tuple of
floats, which is all ``privacy`` needs, so that command never loads numpy;
or a batch of K populations as the m rows of an (m, K) array, one population
per column, so that each operation runs along the batch. An entry is the
same IEEE operations either way, so a population's measures have the same
bits alone and in a batch. The core is lazy: it forms a row when the caller
takes it, and the callers fold each row into their result before taking the
next, so a batch holds one row of (K,) arrays at a time. Callers that keep
the matrix take all its rows through :func:`_matrix`, which first plans its
memory. The single measures reduce with the built-in max and min; the batch
forms, :func:`alpha_values` and :func:`beta_values`, reduce with numpy's, in
place. They validate and renormalize a batch on every call, except one over
an immutable buffer, such as the input that the simplex grid search keeps
for the process: its columns are computed on the first call and kept
(:func:`~rrkit.model._remembered`), so a search repeated in the process
validates no point.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

from .model import (
    MEMORY_BUDGET_BYTES,
    Device,
    PolicyMode,
    PopulationModel,
    _check_budget,
    _frozen,
    _index_set,
    _Record,
    _remembered,
    _require_same_m,
    _unit_interval,
    _rows_and_sums,
)

# relative slack when collecting tied argmax/argmin indices
TIE_RTOL = 1e-12
# a privacy command peaked at 155-161 bytes per posterior entry, its printed
# JSON included (tracemalloc, m = 300 and 600, both modes); planned as 192
BYTES_PER_POSTERIOR_ENTRY = 192


class AlphaResult(_Record):
    """Worst-case prior/posterior gap, every (i, j) pair attaining it, and the full gap matrix."""

    _fields = ("alpha", "argmax", "gaps")


class BetaResult(_Record):
    """Minimum posterior non-stigmatizing mass, the responses attaining it, and the mass per response."""

    _fields = ("beta", "argmin", "mass_by_response")


def revealing_probabilities(device: Device, population: PopulationModel) -> np.ndarray:
    """Posterior matrix: entry [i, j] is Prob(X = x_i | R = x_j).

    Closed form (p*delta_ij + (1-p)/m) * pi_i / (p*pi_j + (1-p)/m); the
    denominator is bounded below by (1-p)/m > 0, so every response value is
    possible and each column is a proper distribution.
    """
    import numpy as np

    return np.array(_matrix(device, population))


def alpha_measure(device: Device, population: PopulationModel) -> AlphaResult:
    """Worst-case absolute prior/posterior gap over all (true value, response) pairs."""
    alpha, argmax, gaps = _alpha(device, population.pi, _matrix(device, population))
    return AlphaResult(alpha=alpha, argmax=argmax, gaps=_frozen(gaps))


def beta_measure(
    device: Device, population: PopulationModel, nonstigmatizing: tuple[int, ...]
) -> BetaResult:
    """Minimum over responses of the posterior mass on the non-stigmatizing values."""
    indices = _index_set(nonstigmatizing, device.m)
    beta, argmin, mass = _beta(_matrix(device, population), indices)
    return BetaResult(beta=beta, argmin=argmin, mass_by_response=_frozen(mass))


def alpha_values(device: Device, pis) -> np.ndarray:
    """alpha for each population of a (K, m) batch, as a (K,) array.

    Rows are validated and renormalized like :class:`PopulationModel`, and
    each value equals ``alpha_measure(device, PopulationModel(pi=row)).alpha``.
    """
    import numpy as np

    columns = _population_columns(device, pis)
    gaps = (
        np.abs(np.subtract(entry, prior, out=entry), out=entry)
        for row, prior in zip(_posterior(device, columns), columns)
        for entry in row
    )
    alpha = _fold(np.maximum, gaps)
    reduced = _fold(np.maximum, (_diagonal_form(device, v) for v in columns))
    # the self-check of every population, raised for the first that fails it
    for k in np.flatnonzero(np.abs(alpha - reduced) > 1e-12 + 1e-9 * alpha):
        _check_reduced_form(float(alpha[k]), float(reduced[k]))
    return alpha


def beta_values(device: Device, pis, nonstigmatizing: tuple[int, ...]) -> np.ndarray:
    """beta for each population of a (K, m) batch, as a (K,) array; the batch
    form of :func:`beta_measure`."""
    import numpy as np

    indices = _index_set(nonstigmatizing, device.m)
    columns = _population_columns(device, pis)
    return _fold(np.minimum, _mass(_posterior(device, columns, indices)))


# --- the core: one population on floats, or a batch on (K,) arrays -------------


def _posterior(device: Device, pi, rows: tuple[int, ...] | None = None) -> Iterator[tuple]:
    """Rows of the posterior matrix of ``pi``, each formed as it is taken: all
    m, or only the true values ``rows``, in their order.

    ``pi`` is one population, a tuple of m floats, or a batch, the m rows of
    an (m, K) array from :func:`_population_columns`; an entry is then a
    float or a (K,) array. Entry [i][j] is q*pi_i, plus p*pi_i on the
    diagonal, divided by p*pi_j + q.
    """
    p, q = device.p, device.forced_share
    responses = [p * v + q for v in pi]
    for i in range(len(pi)) if rows is None else rows:
        v = pi[i]
        forced = q * v
        yield tuple((forced + p * v if i == j else forced) / r for j, r in enumerate(responses))


def _matrix(device: Device, population: PopulationModel) -> tuple[tuple[float, ...], ...]:
    """One population's posterior matrix, refused with ``RESOURCE_LIMIT``
    before a row is formed when it plans past ``MEMORY_BUDGET_BYTES``."""
    _require_same_m(device.m, population.m)
    planned = device.m**2 * BYTES_PER_POSTERIOR_ENTRY
    _check_budget(planned, MEMORY_BUDGET_BYTES, f"the posterior over m={device.m} values plans")
    return tuple(_posterior(device, population.pi))


def _mass(rows: Iterable[tuple]) -> tuple:
    """The posterior rows of the non-stigmatizing values, summed entry by
    entry from left to right as they come: the non-stigmatizing mass per
    response."""
    rows = iter(rows)
    mass = next(rows)
    for row in rows:
        mass = tuple(a + b for a, b in zip(mass, row))
    return mass


def _diagonal_form(device: Device, v):
    """(1 - pi_i) pi_i / (pi_i + q/p), the gap on the diagonal at its largest."""
    return (1.0 - v) * v / (v + device.forced_share / device.p)


def _alpha(
    device: Device, pi: tuple[float, ...], posterior: tuple[tuple[float, ...], ...]
) -> tuple[float, tuple[tuple[int, int], ...], tuple[tuple[float, ...], ...]]:
    """alpha of one population, the (i, j) pairs within ``TIE_RTOL`` of it in
    row-major order, and the gap matrix."""
    gaps = tuple(tuple(abs(v - prior) for v in row) for row, prior in zip(posterior, pi))
    alpha = max(max(row) for row in gaps)
    _check_reduced_form(alpha, max(_diagonal_form(device, v) for v in pi))
    threshold = alpha - TIE_RTOL * alpha
    argmax = tuple(
        (i, j) for i, row in enumerate(gaps) for j, gap in enumerate(row) if gap >= threshold
    )
    return alpha, argmax, gaps


def _beta(
    posterior: tuple[tuple[float, ...], ...], indices: tuple[int, ...]
) -> tuple[float, tuple[int, ...], tuple[float, ...]]:
    """beta of one population, the responses within ``TIE_RTOL`` of it, and
    the non-stigmatizing posterior mass per response."""
    mass = _mass(posterior[i] for i in indices)
    beta = min(mass)
    threshold = beta + TIE_RTOL * max(beta, 1.0)
    return beta, tuple(j for j, v in enumerate(mass) if v <= threshold), mass


def _check_reduced_form(alpha: float, reduced: float) -> None:
    """The maximum gap is always attained on the diagonal, where it is
    :func:`_diagonal_form`: raise unless the full-matrix max agrees with it."""
    if abs(alpha - reduced) > 1e-12 + 1e-9 * alpha:
        raise RuntimeError(
            f"alpha self-check failed: matrix max {alpha!r} vs diagonal form {reduced!r}"
        )


def _population_columns(device: Device, pis) -> np.ndarray:
    """The rows of :func:`~rrkit.model._rows_and_sums`, renormalized, as the
    columns of an (m, K) array; for a batch over a frozen buffer, such as
    the grid search's input, computed once per process and kept frozen."""
    columns = _remembered(_renormalized_columns, pis)
    _require_same_m(device.m, columns.shape[0])
    return columns


def _renormalized_columns(pis) -> np.ndarray:
    import numpy as np

    rows, totals = _rows_and_sums(pis)
    return np.divide(rows.T, totals, out=np.empty(rows.shape[::-1]))


def _fold(ufunc, arrays: Iterable) -> np.ndarray:
    """``ufunc`` over equal-shape arrays, accumulated in place in the first,
    each array taken as the last is folded in."""
    arrays = iter(arrays)
    acc = next(arrays)
    for array in arrays:
        ufunc(acc, array, out=acc)
    return acc


def guaranteed_alpha_bound(device: Device) -> float:
    """Smallest threshold xi* such that alpha <= xi* for every population.

    With k = 4(1-p)/(mp), xi* is the root in (0, 1) of (1-xi)^2 = k*xi,
    evaluated in the cancellation-free form 2 / (2 + k + sqrt((2+k)^2 - 4)).
    Where that denominator overflows, at 2 + k past ~1.3e154 (p below
    ~7e-155 for m = 4), xi* is taken in the equal form
    mp / (mp + 2q + 2 sqrt(q (q + mp))), q = 1 - p, which overflows nowhere;
    xi* is then about mp/4.
    """
    k = 4.0 * (1.0 - device.p) / (device.m * device.p)
    try:
        denominator = 2.0 + k + math.sqrt((2.0 + k) ** 2 - 4.0)
    except OverflowError:
        denominator = math.inf
    if denominator < math.inf:
        return 2.0 / denominator
    mp, q = device.m * device.p, 1.0 - device.p
    return mp / (mp + 2.0 * q + 2.0 * math.sqrt(q * (q + mp)))


def guaranteed_beta_bound(device: Device, c: float) -> float:
    """Largest threshold xi* such that beta >= xi* for every population whose
    non-stigmatizing mass is at least c."""
    c = _unit_interval(c, "C_OUT_OF_RANGE", "prior mass bound c")
    return c / (1.0 + device.m * device.p * (1.0 - c) / (1.0 - device.p))


class PrivacyReport(_Record):
    """Privacy diagnostics for one (device, population) pair under a given mode."""

    _fields = (
        "mode", "p", "posterior", "guaranteed_bound", "alpha", "alpha_argmax", "beta", "beta_argmin"
    )
    _defaults = dict.fromkeys(("alpha", "alpha_argmax", "beta", "beta_argmin"))
    _json_fields = (
        "mode", "p", "alpha", "alpha_argmax", "beta", "beta_argmin", "posterior", "guaranteed_bound"
    )


def privacy_report(
    device: Device,
    population: PopulationModel,
    mode: PolicyMode,
    nonstigmatizing: tuple[int, ...] | None = None,
    c: float | None = None,
) -> PrivacyReport:
    """Assemble the measure matching ``mode`` plus the posterior matrix and the
    guaranteed worst-case bound at this device parameter.

    In subset mode the bound needs the prior mass floor ``c``; without it the
    bound is reported as None.
    """
    posterior = _matrix(device, population)
    if mode is PolicyMode.ALL_STIGMATIZING:
        alpha, argmax, _ = _alpha(device, population.pi, posterior)
        return PrivacyReport(
            mode=mode,
            p=device.p,
            posterior=posterior,
            guaranteed_bound=guaranteed_alpha_bound(device),
            alpha=alpha,
            alpha_argmax=argmax,
        )
    beta, argmin, _ = _beta(posterior, _index_set(nonstigmatizing, device.m))
    bound = None if c is None else guaranteed_beta_bound(device, c)
    return PrivacyReport(
        mode=mode,
        p=device.p,
        posterior=posterior,
        guaranteed_bound=bound,
        beta=beta,
        beta_argmin=argmin,
    )

