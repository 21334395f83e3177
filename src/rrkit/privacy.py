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

One population is measured on Python floats, which is all ``privacy`` needs,
so that command never loads numpy; the batch forms over many populations,
:func:`alpha_values` and :func:`beta_values`, and the array results of the
single measures import it when they run. Both cores do the same IEEE
operations in the same order, so a population's measures have the same bits
alone and in a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    Device,
    PolicyMode,
    PopulationModel,
    PrivacyPolicy,
    _index_set,
    _require_same_m,
    _unit_interval,
    _rows_and_sums,
)

# relative slack when collecting tied argmax/argmin indices
TIE_RTOL = 1e-12


@dataclass(frozen=True)
class AlphaResult:
    """Worst-case prior/posterior gap, every (i, j) pair attaining it, and the full gap matrix."""

    alpha: float
    argmax: tuple[tuple[int, int], ...]
    gaps: np.ndarray


@dataclass(frozen=True)
class BetaResult:
    """Minimum posterior non-stigmatizing mass, the responses attaining it, and the mass per response."""

    beta: float
    argmin: tuple[int, ...]
    mass_by_response: np.ndarray


def revealing_probabilities(device: Device, population: PopulationModel) -> np.ndarray:
    """Posterior matrix: entry [i, j] is Prob(X = x_i | R = x_j).

    Closed form (p*delta_ij + (1-p)/m) * pi_i / (p*pi_j + (1-p)/m); the
    denominator is bounded below by (1-p)/m > 0, so every response value is
    possible and each column is a proper distribution.
    """
    import numpy as np

    _require_same_m(device.m, population.m)
    return np.array(_posterior(device, population.pi))


def alpha_values(device: Device, pis) -> np.ndarray:
    """alpha for each population of a (K, m) batch, as a (K,) array.

    Rows are validated and renormalized like :class:`PopulationModel`, and
    each value equals ``alpha_measure(device, PopulationModel(pi=row)).alpha``.
    """
    columns = _population_columns(device, pis)
    alpha, _ = _alpha_core(device, columns, _posteriors(device, columns))
    return alpha


def beta_values(device: Device, pis, nonstigmatizing: tuple[int, ...]) -> np.ndarray:
    """beta for each population of a (K, m) batch, as a (K,) array; the batch
    form of :func:`beta_measure`."""
    indices = _index_set(nonstigmatizing, device.m)
    columns = _population_columns(device, pis)
    beta, _ = _beta_core(_posteriors(device, columns, indices))
    return beta


def alpha_measure(device: Device, population: PopulationModel) -> AlphaResult:
    """Worst-case absolute prior/posterior gap over all (true value, response) pairs."""
    _require_same_m(device.m, population.m)
    pi = population.pi
    alpha, argmax, gaps = _alpha(device, pi, _posterior(device, pi))
    return AlphaResult(alpha=alpha, argmax=argmax, gaps=_read_only(gaps))


def beta_measure(
    device: Device, population: PopulationModel, nonstigmatizing: tuple[int, ...]
) -> BetaResult:
    """Minimum over responses of the posterior mass on the non-stigmatizing values."""
    indices = _index_set(nonstigmatizing, device.m)
    _require_same_m(device.m, population.m)
    beta, argmin, mass = _beta(_posterior(device, population.pi), indices)
    return BetaResult(beta=beta, argmin=argmin, mass_by_response=_read_only(mass))


def _read_only(values) -> np.ndarray:
    """A float array of ``values`` that cannot be written."""
    import numpy as np

    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


# --- one population, on floats ---------------------------------------------------


def _posterior(device: Device, pi: tuple[float, ...]) -> tuple[tuple[float, ...], ...]:
    """The posterior matrix of one population as a tuple of rows, entry by
    entry the arithmetic of :func:`_posteriors`: q*pi_i, plus p*pi_i on the
    diagonal, divided by p*pi_j + q."""
    p, q = device.p, device.forced_share
    responses = [p * v + q for v in pi]
    return tuple(
        tuple((q * v + p * v if i == j else q * v) / r for j, r in enumerate(responses))
        for i, v in enumerate(pi)
    )


def _alpha(
    device: Device, pi: tuple[float, ...], posterior: tuple[tuple[float, ...], ...]
) -> tuple[float, tuple[tuple[int, int], ...], tuple[tuple[float, ...], ...]]:
    """alpha of one population, the (i, j) pairs within ``TIE_RTOL`` of it in
    row-major order, and the gap matrix; the reduced-form self-check of
    :func:`_alpha_core`."""
    gaps = tuple(tuple(abs(v - prior) for v in row) for row, prior in zip(posterior, pi))
    alpha = max(max(row) for row in gaps)
    ratio = device.forced_share / device.p
    _check_reduced_form(alpha, max((1.0 - v) * v / (v + ratio) for v in pi))
    threshold = alpha - TIE_RTOL * alpha
    argmax = tuple(
        (i, j) for i, row in enumerate(gaps) for j, gap in enumerate(row) if gap >= threshold
    )
    return alpha, argmax, gaps


def _beta(
    posterior: tuple[tuple[float, ...], ...], indices: tuple[int, ...]
) -> tuple[float, tuple[int, ...], tuple[float, ...]]:
    """beta of one population, the responses within ``TIE_RTOL`` of it, and
    the non-stigmatizing posterior mass per response, summed over the rows
    ``indices`` left to right as :func:`_beta_core` sums them."""
    mass = posterior[indices[0]]
    for i in indices[1:]:
        mass = tuple(a + b for a, b in zip(mass, posterior[i]))
    beta = min(mass)
    threshold = beta + TIE_RTOL * max(beta, 1.0)
    return beta, tuple(j for j, v in enumerate(mass) if v <= threshold), mass


def _check_reduced_form(alpha: float, reduced: float) -> None:
    """The maximum gap is always attained on the diagonal, where it is
    (1 - pi_i) pi_i / (pi_i + q/p): raise unless the full-matrix max agrees
    with that reduced form."""
    if abs(alpha - reduced) > 1e-12 + 1e-9 * alpha:
        raise RuntimeError(
            f"alpha self-check failed: matrix max {alpha!r} vs diagonal form {reduced!r}"
        )


# --- the batch core ------------------------------------------------------------
# K populations are held one per column of an (m, K) array, and their posterior
# matrices stacked along the last axis of an (m, m, K) array, so every numpy
# loop below runs along the batch rather than along the short m axis.


def _population_columns(device: Device, pis) -> np.ndarray:
    """The rows of :func:`validate_population_rows` as the columns of an (m, K) array."""
    import numpy as np

    rows, totals = _rows_and_sums(pis)
    _require_same_m(device.m, rows.shape[1])
    return np.divide(rows.T, totals, out=np.empty(rows.shape[::-1]))


def _posteriors(
    device: Device, columns: np.ndarray, rows: tuple[int, ...] | None = None
) -> np.ndarray:
    """Posterior matrices of the populations in the columns of ``columns``:
    all m rows (m, m, K), or only the true values ``rows`` (len(rows), m, K),
    in their order. An entry's arithmetic does not depend on which rows are
    built."""
    import numpy as np

    p, q = device.p, device.forced_share
    m, k = columns.shape
    # a list selects rows; a tuple would index one axis per entry
    true = columns if rows is None else columns[list(rows)]
    posterior = np.multiply(q, true[:, None, :], out=np.empty((len(true), m, k)))
    truthful = p * columns
    if rows is None:
        posterior.reshape(m * m, k)[:: m + 1] += truthful  # the diagonals
    else:
        for t, i in enumerate(rows):
            posterior[t, i] += truthful[i]
    truthful += q  # the response probabilities
    posterior /= truthful
    return posterior


def _alpha_core(
    device: Device, columns: np.ndarray, posteriors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """alpha (K,) and the gap matrices (m, m, K) of a batch, written over
    ``posteriors``."""
    import numpy as np

    gaps = np.subtract(posteriors, columns[:, None, :], out=posteriors)
    np.abs(gaps, out=gaps)
    alpha = gaps.max(axis=(0, 1))

    # the diagonal form of _check_reduced_form, for every population
    reduced = 1.0 - columns
    reduced *= columns
    reduced /= columns + device.forced_share / device.p
    reduced = reduced.max(axis=0)
    broken = np.abs(alpha - reduced) > 1e-12 + 1e-9 * alpha
    if broken.any():
        k = int(np.argmax(broken))
        _check_reduced_form(float(alpha[k]), float(reduced[k]))
    return alpha, gaps


def _beta_core(posteriors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """beta (K,) and the non-stigmatizing posterior mass per response (m, K)
    of a batch, from the posterior rows (t, m, K) of its t non-stigmatizing
    values, summed in their order."""
    mass = posteriors.sum(axis=0)
    return mass.min(axis=0), mass


def guaranteed_alpha_bound(device: Device) -> float:
    """Smallest threshold xi* such that alpha <= xi* for every population.

    With k = 4(1-p)/(mp), xi* is the root in (0, 1) of (1-xi)^2 = k*xi,
    evaluated in the cancellation-free form 2 / (2 + k + sqrt((2+k)^2 - 4)).
    """
    k = 4.0 * (1.0 - device.p) / (device.m * device.p)
    return 2.0 / (2.0 + k + math.sqrt((2.0 + k) ** 2 - 4.0))


def guaranteed_beta_bound(device: Device, c: float) -> float:
    """Largest threshold xi* such that beta >= xi* for every population whose
    non-stigmatizing mass is at least c."""
    c = _unit_interval(c, "C_OUT_OF_RANGE", "prior mass bound c")
    return c / (1.0 + device.m * device.p * (1.0 - c) / (1.0 - device.p))


@dataclass(frozen=True)
class PrivacyReport:
    """Privacy diagnostics for one (device, population) pair under a given mode."""

    mode: PolicyMode
    p: float
    posterior: tuple[tuple[float, ...], ...]
    guaranteed_bound: float | None
    alpha: float | None = None
    alpha_argmax: tuple[tuple[int, int], ...] | None = None
    beta: float | None = None
    beta_argmin: tuple[int, ...] | None = None

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "p": self.p,
            "alpha": self.alpha,
            "alpha_argmax": None
            if self.alpha_argmax is None
            else [list(pair) for pair in self.alpha_argmax],
            "beta": self.beta,
            "beta_argmin": None if self.beta_argmin is None else list(self.beta_argmin),
            "posterior": [list(row) for row in self.posterior],
            "guaranteed_bound": self.guaranteed_bound,
        }


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
    _require_same_m(device.m, population.m)
    posterior = _posterior(device, population.pi)
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


def report_for_policy(
    device: Device, population: PopulationModel, policy: PrivacyPolicy
) -> PrivacyReport:
    """Privacy report using a policy's mode, index set and mass floor."""
    return privacy_report(
        device,
        population,
        mode=policy.mode,
        nonstigmatizing=policy.nonstigmatizing,
        c=policy.c,
    )
