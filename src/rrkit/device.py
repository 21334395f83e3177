"""The (m+1)-card randomization device.

A respondent draws one card: with probability p the card says "report your
true value", and with probability (1-p)/m it forces one of the m support
values. The conditional law of the response R given the true value X is the
response kernel; its marginal under a population model is the response
distribution lambda.
"""

from __future__ import annotations

import numpy as np

from .model import Device, PopulationModel, ValidationError, _require_same_m


def response_distribution(device: Device, population: PopulationModel) -> np.ndarray:
    """Marginal response probabilities lambda_i = p*pi_i + (1-p)/m."""
    _require_same_m(device.m, population.m)
    return device.p * population.pi_array + device.forced_share


def responses_from_uniforms(
    device: Device, true_indices: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Randomize true-value indices through the device, one uniform each.

    ``u`` has the shape of ``true_indices``. A uniform below p reports the
    true index; otherwise its residual (u - p) / (1 - p) picks the forced
    index among the m values.
    """
    forced = ((u - device.p) / (1.0 - device.p) * device.m).astype(np.int64)
    # only draws u >= p keep their forced index, and those are never negative
    np.minimum(forced, device.m - 1, out=forced)
    np.copyto(forced, true_indices, where=u < device.p)
    return forced


def draw_responses(
    device: Device, true_indices: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Randomize each respondent's true index through the device.

    Consumes exactly one uniform per respondent, in respondent order, so
    streams stay cheap to reason about and replay.
    """
    true_indices = np.asarray(true_indices)
    if true_indices.size and (true_indices.min() < 0 or true_indices.max() >= device.m):
        raise ValidationError("BAD_INDEX", "true index out of range")
    return responses_from_uniforms(device, true_indices, rng.random(true_indices.shape[0]))
