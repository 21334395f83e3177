"""Unbiased estimation of the population mean and class proportions from
randomized responses, with exact closed-form variances.

The estimators invert the device's mixing: with q = (1-p)/m,

    pi_hat_i = (w_i - q) / p          (raw; may leave [0, 1])
    mu_hat   = sum_i x_i * pi_hat_i

Raw estimates are what the unbiasedness and variance results describe; the
truncated variant clamps to [0, 1] and renormalizes for reporting, at the
price of a bias that is not analyzed here.

One sample is estimated on Python floats, which is all ``estimate`` needs,
so that command never loads numpy; :func:`mean_estimates`, the batch form
over a block of samples, and the theoretical variances import it when they
run. Every sum of one sample goes through :func:`_row_sum`, which has the
bits of :func:`mean_estimates`' sum of one row.
"""

from __future__ import annotations

import math

from .model import (
    Device,
    EstimateReport,
    PopulationModel,
    ResponseSample,
    SupportSpec,
    ValidationError,
    _require_finite,
    _require_same_m,
    _sample_size,
)

RAW_OUT_OF_RANGE = "RAW_OUT_OF_RANGE"


def estimate_proportions(
    sample: ResponseSample, device: Device
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Raw and truncated proportion estimates from observed response counts.

    The raw vector satisfies sum(pi_hat) = 1 up to rounding but individual
    entries may fall outside [0, 1]; the truncated vector is clamped to [0, 1]
    and renormalized onto the simplex.
    """
    _require_same_m(device.m, sample.m)
    # p near 0: infinite entries, refused by estimate_report
    raw = _raw_proportions(sample.proportions, device)
    clamped = [min(max(v, 0.0), 1.0) for v in raw]
    total = _row_sum(clamped)
    if not total:  # p so near 0 that 1 - p rounds to 1 can leave every raw entry 0
        return raw, (math.nan,) * len(raw)
    return raw, tuple(v / total for v in clamped)


def _raw_proportions(w: tuple[float, ...], device: Device) -> tuple[float, ...]:
    """(w_i - q) / p for each sample proportion, the operations of
    :func:`mean_estimates` in its order."""
    q, p = device.forced_share, device.p
    return tuple((v - q) / p for v in w)


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
    import numpy as np

    # p near 0: infinite raw entries, and NaN where they meet x = 0 or each
    # other; refused by estimate_report and run_replicates
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.subtract(proportions, device.forced_share, order="C")
        terms /= device.p  # in place: the raw proportions, then each x_i times its own
        terms *= x
        return np.add.reduce(terms, axis=-1)


def estimate_mean(sample: ResponseSample, device: Device, support: SupportSpec) -> float:
    """Unbiased estimate of the population mean: sum_i x_i * pi_hat_raw_i,
    with the bits :func:`mean_estimates` gives the sample's one row."""
    _require_same_m(device.m, support.m)
    _require_same_m(device.m, sample.m)
    raw = _raw_proportions(sample.proportions, device)
    return _row_sum([r * x for r, x in zip(raw, support.values)])


def estimate_report(sample: ResponseSample, device: Device, support: SupportSpec) -> EstimateReport:
    """Full estimation bundle for one observed sample."""
    _require_same_m(device.m, support.m)
    raw, truncated = estimate_proportions(sample, device)
    for value in raw:
        _require_finite(value, "pi_hat_raw", device.p)
    for value in truncated:
        _require_finite(value, "pi_hat_truncated", device.p)
    mu_hat = _require_finite(estimate_mean(sample, device, support), "mu_hat", device.p)
    flags: tuple[str, ...] = ()
    if any(v < 0.0 or v > 1.0 for v in raw):
        flags = (RAW_OUT_OF_RANGE,)
    return EstimateReport(
        mu_hat=mu_hat,
        pi_hat_raw=raw,
        pi_hat_truncated=truncated,
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
    d - pi @ d. A support whose spread squared overflows is refused with
    ``NONFINITE_RESULT``.
    """
    import numpy as np

    n = _sample_size(n)
    _require_same_m(device.m, support.m)
    _require_same_m(device.m, population.m)
    p = device.p
    pi = population.pi_array
    # a support spread past ~1e154 overflows to inf, or to NaN where inf
    # meets inf or a zero proportion; refused below
    with np.errstate(over="ignore", invalid="ignore"):
        d = support.values_array - np.mean(support.values_array)
        d -= np.mean(d)
        spread = float(np.mean(d * d))
        shift = float(pi @ d)  # mu - xbar
        sigma2 = float((d - shift) ** 2 @ pi)
    try:
        shift_squared = shift**2
    except OverflowError:
        shift_squared = math.inf
    numerator = p * sigma2 + (1.0 - p) * spread + p * (1.0 - p) * shift_squared
    if not math.isfinite(numerator):
        scale = max(abs(x) for x in support.values)
        raise ValidationError(
            "NONFINITE_RESULT",
            f"var_mu_theoretical is {numerator!r}, not a finite number: the support's "
            f"scale (largest |x| = {scale!r}) is too large for its variance",
        )
    return _quotient(numerator, n * p * p, "var_mu_theoretical", p)


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
    xbar = _row_sum([x * v for x, v in zip(support.values, w)])
    d = [x - xbar for x in support.values]
    shift = _row_sum([e * v for e, v in zip(d, w)])
    d = [e - shift for e in d]
    return _quotient(
        _row_sum([e * e * v for e, v in zip(d, w)]),
        sample.n * device.p * device.p,
        "var_mu_plugin",
        device.p,
    )


def _quotient(numerator: float, denominator: float, what: str, p: float) -> float:
    """numerator / denominator, refused unless finite; the n * p * p
    denominators of the variances underflow to 0 when p is near 0."""
    return _require_finite(numerator / denominator if denominator else math.inf, what, p)


def _row_sum(values) -> float:
    """The sum of a list or tuple of floats with the bits ``np.add.reduce``
    gives a contiguous row of them, as in :func:`mean_estimates`: 0.0 plus
    numpy's pairwise sum. The built-in ``sum`` compensates from Python 3.12
    on, and a BLAS dot sums in an order of its build."""
    return 0.0 + _pairwise_sum(values, 0, len(values))


def _pairwise_sum(values, start: int, n: int) -> float:
    """numpy's pairwise sum of ``values[start:start + n]``: left to right below
    8 terms, in 8 interleaved partial sums up to 128, and above that the sum
    of the two halves, cut at a multiple of 8."""
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(values, start, half) + _pairwise_sum(values, start + half, n - half)
    stop = start + n
    total = -0.0
    if n >= 8:
        end = stop - n % 8
        r = values[start:start + 8]
        for i in range(start + 8, end, 8):
            r = [a + b for a, b in zip(r, values[i:i + 8])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        start = end
    for v in values[start:stop]:
        total += v
    return total
