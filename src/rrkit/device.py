"""The (m+1)-card randomization device.

A respondent draws one card: with probability p the card says "report your
true value", and with probability (1-p)/m it forces one of the m support
values. The conditional law of the response R given the true value X is the
response kernel; its marginal under a population model is the response
distribution lambda.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Device, PopulationModel, SupportSpec, ValidationError, _require_same_m

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ResponseKernel:
    """Conditional response law: ``matrix[j, i] = Prob(R = x_i | X = x_j)``."""

    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValidationError("BAD_KERNEL", f"kernel must be square, got shape {matrix.shape}")
        if (matrix < 0).any():
            raise ValidationError("BAD_KERNEL", "kernel entries must be non-negative")
        row_sums = matrix.sum(axis=1)
        if np.abs(row_sums - 1.0).max() > ROW_SUM_TOL:
            raise ValidationError("BAD_KERNEL", f"kernel rows must sum to 1, got {row_sums}")
        matrix = matrix.copy()
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


def response_kernel(device: Device) -> ResponseKernel:
    """Kernel of the device: off-diagonal entries (1-p)/m, diagonal p + (1-p)/m."""
    q = device.forced_share
    matrix = np.full((device.m, device.m), q)
    np.fill_diagonal(matrix, device.p + q)
    return ResponseKernel(matrix=matrix)


def response_distribution(device: Device, population: PopulationModel) -> np.ndarray:
    """Marginal response probabilities lambda_i = p*pi_i + (1-p)/m."""
    _require_same_m(device.m, population.m)
    return device.p * population.pi_array + device.forced_share


def draw_response(
    device: Device, support: SupportSpec, true_index: int, rng: np.random.Generator
) -> int:
    """Randomize one respondent's true value through the device.

    Consumes exactly one uniform variate: the draw decides truth card versus
    forced card, and its residual picks the forced index, so streams stay
    cheap to reason about and replay.
    """
    _require_same_m(device.m, support.m)
    if not 0 <= true_index < device.m:
        raise ValidationError(
            "BAD_INDEX", f"true_index {true_index} out of range for m={device.m}"
        )
    u = rng.random()
    if u < device.p:
        return true_index
    forced = int((u - device.p) / (1.0 - device.p) * device.m)
    return min(forced, device.m - 1)


def draw_responses(
    device: Device, true_indices: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized form of :func:`draw_response`.

    One uniform per respondent, consumed in respondent order, so the result
    matches a loop of scalar draws over the same stream.
    """
    true_indices = np.asarray(true_indices)
    if true_indices.size and (true_indices.min() < 0 or true_indices.max() >= device.m):
        raise ValidationError("BAD_INDEX", "true index out of range")
    u = rng.random(true_indices.shape[0])
    forced = ((u - device.p) / (1.0 - device.p) * device.m).astype(np.int64)
    # only draws u >= p keep their forced index, and those are never negative
    np.minimum(forced, device.m - 1, out=forced)
    return np.where(u < device.p, true_indices, forced)
