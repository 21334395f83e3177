"""Unbiased estimation of the population mean and class proportions from
randomized responses, with exact closed-form variances.

The estimators invert the device's mixing: with q = (1-p)/m,

    pi_hat_i = (w_i - q) / p          (raw; may leave [0, 1])
    mu_hat   = sum_i x_i * pi_hat_i

Raw estimates are what the unbiasedness and variance results describe; the
truncated variant clamps to [0, 1] and renormalizes for reporting, at the
price of a bias that is not analyzed here.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (
    Device,
    EstimateReport,
    PopulationModel,
    ResponseSample,
    SupportSpec,
    _require_finite,
    _require_same_m,
    _sample_size,
)

RAW_OUT_OF_RANGE = "RAW_OUT_OF_RANGE"


def estimate_proportions(
    sample: ResponseSample, device: Device
) -> tuple[np.ndarray, np.ndarray]:
    """Raw and truncated proportion estimates from observed response counts.

    The raw vector satisfies sum(pi_hat) = 1 up to rounding but individual
    entries may fall outside [0, 1]; the truncated vector is clamped to [0, 1]
    and renormalized onto the simplex.
    """
    _require_same_m(device.m, sample.m)
    w = sample.proportions
    with np.errstate(over="ignore"):  # p near 0: infinite entries, refused by estimate_report
        raw = (w - device.forced_share) / device.p
    clamped = np.clip(raw, 0.0, 1.0)
    truncated = clamped / clamped.sum()
    return raw, truncated


def mean_estimates(proportions: np.ndarray, device: Device, x: np.ndarray) -> np.ndarray:
    """Unbiased mean estimates sum_i x_i * (w_i - q) / p, one per row of
    sample proportions w (the last axis runs over the m support values x).

    The raw proportions are those of :func:`estimate_proportions`. Each row is
    summed alone by numpy's pairwise sum, ``np.add.reduce`` along the last
    axis of a C-ordered array, which depends neither on the BLAS build nor on
    the other rows: a row's estimate has the same bits in a block of rows as
    on its own. A matmul over the block, or a sum over a Fortran-ordered
    block, does not promise that.
    """
    # p near 0: infinite raw entries, and NaN where they meet x = 0 or each
    # other; refused by estimate_report and run_replicates
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.subtract(proportions, device.forced_share, order="C")
        terms /= device.p  # in place: the raw proportions, then each x_i times its own
        terms *= x
        return np.add.reduce(terms, axis=-1)


def estimate_mean(sample: ResponseSample, device: Device, support: SupportSpec) -> float:
    """Unbiased estimate of the population mean: sum_i x_i * pi_hat_raw_i,
    by :func:`mean_estimates` on the sample's one row."""
    _require_same_m(device.m, support.m)
    _require_same_m(device.m, sample.m)
    return float(mean_estimates(sample.proportions, device, support.values_array))


def estimate_report(sample: ResponseSample, device: Device, support: SupportSpec) -> EstimateReport:
    """Full estimation bundle for one observed sample."""
    _require_same_m(device.m, support.m)
    raw, truncated = estimate_proportions(sample, device)
    for value in raw:
        _require_finite(float(value), "pi_hat_raw", device.p)
    mu_hat = _require_finite(estimate_mean(sample, device, support), "mu_hat", device.p)
    flags: tuple[str, ...] = ()
    if (raw < 0.0).any() or (raw > 1.0).any():
        flags = (RAW_OUT_OF_RANGE,)
    return EstimateReport(
        mu_hat=mu_hat,
        pi_hat_raw=tuple(float(v) for v in raw),
        pi_hat_truncated=tuple(float(v) for v in truncated),
        var_mu_plugin=variance_mean_plugin(sample, device, support),
        flags=flags,
    )


def variance_mean_theoretical(
    device: Device, support: SupportSpec, population: PopulationModel, n: int
) -> float:
    """Exact variance of the mean estimator for a sample of size n.

    Computed as

        (1/(n p^2)) * { p*sigma2_x + (1-p)*mean((x - xbar)^2)
                        + p*(1-p)*(mu_x - xbar)^2 }

    with xbar the unweighted support mean. The final term carries a plus
    sign: that is what equality with the exact multinomial variance requires,
    and the oracle suite pins it.

    Every term is computed from d = x - xbar, centred twice as in
    :func:`variance_mean_plugin`, so that a support far from 0 cancels
    nothing: mu - xbar is pi @ d and sigma2 the pi-weighted square of
    d - pi @ d.
    """
    n = _sample_size(n)
    _require_same_m(device.m, support.m)
    _require_same_m(device.m, population.m)
    p = device.p
    pi = population.pi_array
    d = support.values_array - np.mean(support.values_array)
    d -= np.mean(d)
    spread = float(np.mean(d * d))
    shift = float(pi @ d)  # mu - xbar
    sigma2 = float((d - shift) ** 2 @ pi)
    return _quotient(
        p * sigma2 + (1.0 - p) * spread + p * (1.0 - p) * shift**2,
        n * p * p,
        "var_mu_theoretical",
        p,
    )


def total_variance_proportions_theoretical(
    device: Device, population: PopulationModel, n: int
) -> float:
    """Summed variance of the m proportion estimators for a sample of size n.

    Computed as (1/n) * { 1/p^2 - sum(pi^2) - (1/m)(1/p^2 - 1) }; the last
    term is subtracted, which is what equality with
    (1/(n p^2)) * sum(lambda_i (1 - lambda_i)) requires (oracle-pinned).
    """
    n = _sample_size(n)
    _require_same_m(device.m, population.m)
    inv_p2 = 1.0 / (device.p * device.p)
    sum_sq = float(population.pi_array @ population.pi_array)
    return (inv_p2 - sum_sq - (inv_p2 - 1.0) / device.m) / n


def variance_mean_plugin(sample: ResponseSample, device: Device, support: SupportSpec) -> float:
    """Estimated variance of the mean estimator, substituting observed sample
    proportions for the unknown response probabilities.

    Evaluates (1/(n p^2)) * { sum_i x_i^2 w_i (1 - w_i)
                              - sum_{i != j} x_i x_j w_i w_j },
    which is (1/(n p^2)) * sum_i w_i (x_i - xbar_w)^2 with xbar_w = sum_i x_i w_i.
    It is computed in that centred form, centring twice so the second pass
    removes the rounding of xbar_w; the raw moments would cancel to nothing
    once the support sits far from 0. No bias correction is attempted.
    """
    _require_same_m(device.m, support.m)
    w = sample.proportions
    d = support.values_array - support.values_array @ w
    d -= d @ w
    return _quotient(
        float((d * d) @ w), sample.n * device.p * device.p, "var_mu_plugin", device.p
    )


def _quotient(numerator: float, denominator: float, what: str, p: float) -> float:
    """numerator / denominator, refused unless finite; the n * p * p
    denominators of the variances underflow to 0 when p is near 0."""
    return _require_finite(numerator / denominator if denominator else math.inf, what, p)
