"""The (m+1)-card randomization device.

A respondent draws one card: with probability p the card says "report your
true value", and with probability (1-p)/m it forces one of the m support
values. This module draws the responses;
:func:`rrkit.oracle.response_distribution_oracle` gives their marginal law,
lambda_i = p*pi_i + (1-p)/m.
"""

from __future__ import annotations

import numpy as np

from .model import Device, ValidationError


def responses_from_uniforms(
    device: Device,
    true_indices: np.ndarray,
    u: np.ndarray,
    out: np.ndarray | None = None,
    *,
    flags: np.ndarray | None = None,
    probe: np.ndarray | None = None,
) -> np.ndarray:
    """Randomize true-value indices through the device, one uniform each.

    ``u`` has the shape of ``true_indices``. A uniform below p reports the
    true index; otherwise its residual (u - p) / (1 - p) picks the forced
    index among the m values.

    ``true_indices`` and ``u`` are only read. ``out`` (int64), ``flags``
    (bool) and ``probe`` (float64), of u's shape, are scratch a caller may
    pass to spare the allocations; ``out`` is returned.
    """
    if out is None:
        out = np.empty(u.shape, dtype=np.int64)
    if flags is None:
        flags = np.empty(u.shape, dtype=bool)
    if probe is None:
        probe = np.empty(u.shape)
    score = np.subtract(u, device.p, out=probe)
    score /= 1.0 - device.p
    score *= device.m
    # Only draws u >= p keep their forced index, and those score from 0 up;
    # a truthful draw scores below 0, and near p = 1 below the int64 range,
    # so the clip keeps the cast defined without changing a kept index.
    np.clip(score, -1.0, device.m - 1, out=score)
    np.copyto(out, score, casting="unsafe")
    np.less(u, device.p, out=flags)
    delta = np.subtract(true_indices, out, out=probe.view(np.int64))
    delta *= flags
    out += delta
    return out


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
