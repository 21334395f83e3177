"""Monte Carlo replication of a survey: draw, randomize, estimate, summarize.

Reproducibility contract: replicate ``i`` of a run seeded with ``seed`` always
uses the generator ``default_rng(SeedSequence(entropy=seed, spawn_key=(i,)))``
and consumes, in order, one block of n uniforms for the true values and one
block of n uniforms for the device. Results are collected into a slot per
replicate and reduced in replicate order, so the summary is byte-identical no
matter how many worker threads ran.

Worker threads: a run of n respondents per replicate is serial below
``POOL_MIN_N`` and uses one thread per CPU at or above it, where the array
draws release the interpreter lock for long enough to pay for a pool.
``RRKIT_THREADS`` overrides that choice, up to ``MAX_THREADS``. The pool
hands out contiguous blocks of replicate indices, ``BLOCKS_PER_WORKER`` per
worker.

Before anything is allocated, a run is refused with ``RESOURCE_LIMIT`` when
its per-respondent temporaries across all workers, plus its per-replicate
results, would exceed ``MEMORY_BUDGET_BYTES``.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import estimation
from .device import draw_responses
from .model import (
    Device,
    PopulationModel,
    ResponseSample,
    SupportSpec,
    ValidationError,
    _require_same_m,
)

THREADS_ENV_VAR = "RRKIT_THREADS"
# Respondents per replicate from which a thread per CPU beats one thread. On
# 2 vCPUs the pool broke even near n = 5 000 and ran 1.3x faster from n = 8 000
# (CHANGES.md); below that the per-replicate Python work holds the interpreter lock.
POOL_MIN_N = 8192
# Highest RRKIT_THREADS accepted: each worker is an OS thread.
MAX_THREADS = 256
# Contiguous replicate blocks handed out per worker thread: more than one, so
# that a worker slowed by another process on its CPU leaves its later blocks
# to the others.
BLOCKS_PER_WORKER = 4
# Largest memory a run may plan for. One replicate peaked at 33 bytes per
# respondent (uniform blocks, indices and their temporaries), planned as 48;
# each result keeps 16 bytes (its estimate and the variance pass), or about
# 240 with its counts and record at m = 3, planned as 512.
MEMORY_BUDGET_BYTES = 4 * 2**30
BYTES_PER_RESPONDENT = 48
BYTES_PER_RESULT = 16
BYTES_PER_KEPT_RESULT = 512


def thread_count(replicates: int, n: int = 0) -> int:
    """Worker threads for ``replicates`` replicates of ``n`` respondents each.

    ``RRKIT_THREADS`` if set (1 to ``MAX_THREADS``); otherwise one below
    ``POOL_MIN_N`` respondents and one per CPU at or above it. Never more
    workers than replicates.
    """
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        workers = (os.cpu_count() or 1) if n >= POOL_MIN_N else 1
    else:
        try:
            workers = int(raw)
        except ValueError:
            raise ValidationError(
                "BAD_ARGS", f"{THREADS_ENV_VAR} must be a positive integer, got {raw!r}"
            ) from None
        if not 1 <= workers <= MAX_THREADS:
            raise ValidationError(
                "BAD_ARGS",
                f"{THREADS_ENV_VAR} must be an integer from 1 to {MAX_THREADS}, got {raw!r}",
            )
    return max(1, min(workers, replicates))


def _check_memory(n: int, replicates: int, workers: int, keep_replicates: bool) -> None:
    """Refuse a run whose planned memory exceeds ``MEMORY_BUDGET_BYTES``."""
    per_result = BYTES_PER_KEPT_RESULT if keep_replicates else BYTES_PER_RESULT
    planned = n * workers * BYTES_PER_RESPONDENT + replicates * per_result
    if planned > MEMORY_BUDGET_BYTES:
        raise ValidationError(
            "RESOURCE_LIMIT",
            f"n={n} respondents on {workers} worker(s) and {replicates} replicates plan "
            f"{planned} bytes, over the {MEMORY_BUDGET_BYTES}-byte budget; "
            f"lower --n, --replicates or {THREADS_ENV_VAR}",
        )


@dataclass(frozen=True)
class SimulationConfig:
    """One fully specified Monte Carlo run."""

    support: SupportSpec
    population: PopulationModel
    device: Device
    n: int
    replicates: int
    seed: int

    def __post_init__(self) -> None:
        _require_same_m(self.support.m, self.population.m)
        _require_same_m(self.support.m, self.device.m)
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValidationError("BAD_N", f"sample size must be a positive integer, got {self.n!r}")
        if (
            not isinstance(self.replicates, int)
            or isinstance(self.replicates, bool)
            or self.replicates < 1
        ):
            raise ValidationError(
                "BAD_REPLICATES", f"replicates must be a positive integer, got {self.replicates!r}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ValidationError("BAD_SEED", f"seed must be a non-negative integer, got {self.seed!r}")


def replicate_stream(seed: int, replicate: int) -> np.random.Generator:
    """The dedicated generator for one replicate of a seeded run."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(replicate,)))


def sample_true_indices(
    population: PopulationModel, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw n true-value indices from the population by inverse CDF."""
    u = rng.random(n)
    return np.minimum(np.searchsorted(population.cdf, u, side="right"), population.m - 1)


def simulate_survey(config: SimulationConfig, replicate: int) -> ResponseSample:
    """Response counts for one replicate: truth draws first, then device draws."""
    rng = replicate_stream(config.seed, replicate)
    true_indices = sample_true_indices(config.population, config.n, rng)
    responses = draw_responses(config.device, true_indices, rng)
    counts = np.bincount(responses, minlength=config.support.m)
    return ResponseSample(counts=tuple(counts.tolist()))


@dataclass(frozen=True)
class ReplicateRecord:
    replicate: int
    mu_hat: float
    counts: tuple[int, ...]


@dataclass(frozen=True)
class SimulationSummary:
    """Run-level results; ``records`` is populated only when per-replicate detail was requested."""

    n: int
    replicates: int
    seed: int
    mu_x: float
    mean_mu_hat: float
    var_mu_hat_empirical: float | None
    var_mu_theoretical: float
    variance_ratio: float | None
    mc_se_mean: float | None
    records: tuple[ReplicateRecord, ...] = field(default=(), repr=False)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "replicates": self.replicates,
            "seed": self.seed,
            "mu_x": self.mu_x,
            "mean_mu_hat": self.mean_mu_hat,
            "var_mu_hat_empirical": self.var_mu_hat_empirical,
            "var_mu_theoretical": self.var_mu_theoretical,
            "variance_ratio": self.variance_ratio,
            "mc_se_mean": self.mc_se_mean,
        }


def run_replicates(config: SimulationConfig, keep_replicates: bool = False) -> SimulationSummary:
    """Run every replicate, estimate the mean from each, and reduce in index order."""
    R = config.replicates
    workers = thread_count(R, config.n)
    _check_memory(config.n, R, workers, keep_replicates)
    device, support = config.device, config.support
    mu_hats = np.empty(R)
    counts: list[tuple[int, ...] | None] = [None] * R if keep_replicates else []

    def run_block(block: range) -> None:
        for i in block:
            sample = simulate_survey(config, i)
            mu_hats[i] = estimation.estimate_mean(sample, device, support)
            if keep_replicates:
                counts[i] = sample.counts

    if workers == 1:
        run_block(range(R))
    else:
        count = min(R, workers * BLOCKS_PER_WORKER)
        blocks = [range(k * R // count, (k + 1) * R // count) for k in range(count)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for _ in pool.map(run_block, blocks):
                pass

    mean_mu = float(mu_hats.mean())
    var_theoretical = estimation.variance_mean_theoretical(
        config.device, config.support, config.population, config.n
    )
    if R >= 2:
        var_mu = float(mu_hats.var(ddof=1))
        variance_ratio = var_mu / var_theoretical
        mc_se = float(np.sqrt(var_mu / R))
    else:
        var_mu = None
        variance_ratio = None
        mc_se = None

    records: tuple[ReplicateRecord, ...] = ()
    if keep_replicates:
        records = tuple(
            ReplicateRecord(replicate=i, mu_hat=float(mu), counts=c)
            for i, (mu, c) in enumerate(zip(mu_hats, counts))
        )
    return SimulationSummary(
        n=config.n,
        replicates=R,
        seed=config.seed,
        mu_x=config.population.mean(config.support),
        mean_mu_hat=mean_mu,
        var_mu_hat_empirical=var_mu,
        var_mu_theoretical=var_theoretical,
        variance_ratio=variance_ratio,
        mc_se_mean=mc_se,
        records=records,
    )
