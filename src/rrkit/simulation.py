"""Monte Carlo replication of a survey: draw, randomize, estimate, summarize.

Reproducibility contract (stream v1): replicate ``i`` of a run seeded with
``seed`` always uses the generator
``default_rng(SeedSequence(entropy=seed, spawn_key=(i,)))`` and consumes, in
order, one block of n uniforms for the true values and one block of n
uniforms for the device. Results are collected into a slot per replicate and
reduced in replicate order, so the summary is byte-identical no matter how
many worker threads ran.

The block kernel: :func:`run_block` seeds the streams of up to
``SEED_CHUNK`` replicates in one vectorised pass (:func:`replicate_states`
re-derives SeedSequence's mixing and PCG64's seeding), then sets each
replicate's state on one reused generator and draws its 2n uniforms into a
row of a block. Rows per block are capped so that a block and its
temporaries stay within ``BLOCK_BYTES`` (one row when a single replicate is
larger). Truth, device, counts and the mean estimate are then computed for
the whole block, through the same uniform-to-index helpers that
:func:`sample_true_indices` and :func:`~rrkit.device.draw_responses` use,
writing into scratch allocated once per range next to the block. Counting
takes comparisons and array arithmetic only, no searchsorted: the truth index
is a branchless binary search over the cached CDF padded with +inf, which
equals the capped searchsorted because the CDF is non-decreasing; the device
evaluates the forced-card score in the same order, in place, and keeps the
true index of truthful draws by integer arithmetic instead of a masked copy.
Every index, and so every count, is the one those forms give. Once per run,
replicate 0 is replayed through :func:`simulate_survey` and
:func:`~rrkit.estimation.estimate_mean`; any difference in its counts or in
a bit of its estimate raises ``RuntimeError``.

Worker threads: a run of n respondents per replicate is serial below
``POOL_MIN_N`` and uses one thread per CPU at or above it, where the array
draws release the interpreter lock for long enough to pay for a pool.
``RRKIT_THREADS`` overrides that choice, up to ``MAX_THREADS``. The pool
hands out contiguous blocks of replicate indices, ``BLOCKS_PER_WORKER`` per
worker, and each block is drawn through a generator of its own.

Before anything is allocated, a run is refused with ``RESOURCE_LIMIT`` when
its per-worker block and seed table, plus its per-replicate results, would
exceed ``MEMORY_BUDGET_BYTES``.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import estimation
from .device import draw_responses, responses_from_uniforms
from .model import (
    Device,
    PopulationModel,
    ResponseSample,
    SupportSpec,
    ValidationError,
    _require_finite,
    _require_same_m,
)

THREADS_ENV_VAR = "RRKIT_THREADS"
# Respondents per replicate from which a thread per CPU beats one thread. On
# 2 vCPUs the pool over the comparison-only counting broke even near
# n = 10 000 (0.93-1.13x), and ran 1.24-1.28x faster at n = 16 000 and
# 1.19-1.42x at 20 000 (CHANGES.md); below that the Python work of setting
# each replicate's stream and issuing its array passes holds the interpreter
# lock for too large a share of a replicate.
POOL_MIN_N = 16_000
# Highest RRKIT_THREADS accepted: each worker is an OS thread.
MAX_THREADS = 256
# Contiguous replicate blocks handed out per worker thread: more than one, so
# that a worker slowed by another process on its CPU leaves its later blocks
# to the others.
BLOCKS_PER_WORKER = 4
# Replicates per block of the kernel: as many as keep a block's uniforms and
# temporaries (planned at BYTES_PER_RESPONDENT each) within BLOCK_BYTES, at
# least one, and at most SEED_CHUNK, the replicates seeded per pass.
BLOCK_BYTES = 1 << 19
SEED_CHUNK = 256
# Largest memory a run may plan for. Per worker, a block of replicates: its
# uniforms (16 bytes per respondent) and counting scratch (25) peaked under
# tracemalloc at 47.7 bytes per respondent at n = 500 and 42.4 at n = 50 000,
# planned as 48; the rest is fixed, mostly numpy's ufunc buffers of up to
# 64 KiB, which bring a block at n = 10 to 53, within its range's seed
# allowance. Also per worker, the seed table of a chunk, which peaked at
# about 400 bytes per replicate while its 128-bit integers are assembled,
# planned as 512. Each result keeps 16 bytes (its estimate and the variance
# pass), or about 240 with its counts and record at m = 3, planned as 512.
MEMORY_BUDGET_BYTES = 4 * 2**30
BYTES_PER_RESPONDENT = 48
BYTES_PER_SEED = 512
BYTES_PER_RESULT = 16
BYTES_PER_KEPT_RESULT = 512

# numpy's SeedSequence: a pool of four uint32 words, hashed and mixed with
# these constants (numpy/random/bit_generator.pyx), and PCG64's 128-bit LCG
# multiplier (O'Neill, HMC-CS-2014-0905), from which run_block seeds streams.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


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


def block_rows(n: int) -> int:
    """Replicates of n respondents per block of the kernel."""
    return max(1, min(SEED_CHUNK, BLOCK_BYTES // (n * BYTES_PER_RESPONDENT)))


def planned_bytes(n: int, replicates: int, workers: int, keep_replicates: bool) -> int:
    """Memory a run plans for: each worker's block and seed table, plus every
    replicate's result."""
    per_result = BYTES_PER_KEPT_RESULT if keep_replicates else BYTES_PER_RESULT
    per_worker = block_rows(n) * n * BYTES_PER_RESPONDENT + SEED_CHUNK * BYTES_PER_SEED
    return workers * per_worker + replicates * per_result


def _check_memory(n: int, replicates: int, workers: int, keep_replicates: bool) -> None:
    """Refuse a run whose planned memory exceeds ``MEMORY_BUDGET_BYTES``."""
    planned = planned_bytes(n, replicates, workers, keep_replicates)
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
    return population.inverse_cdf(rng.random(n))


def simulate_survey(config: SimulationConfig, replicate: int) -> ResponseSample:
    """Response counts for one replicate: truth draws first, then device draws."""
    rng = replicate_stream(config.seed, replicate)
    true_indices = sample_true_indices(config.population, config.n, rng)
    responses = draw_responses(config.device, true_indices, rng)
    counts = np.bincount(responses, minlength=config.support.m)
    return ResponseSample(counts=tuple(counts.tolist()))


def _hash_constants(const: int, mult: int, count: int) -> np.ndarray:
    """The next ``count + 1`` values of a SeedSequence hash constant, as a
    read-only uint32 column."""
    out = [const]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return _read_only(np.array(out, dtype=np.uint32)[:, None])


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# generate_state(4, uint64) hashes pool words 0, 1, 2, 3, 0, 1, 2, 3 in turn
_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 8)
_STATE_WORDS = np.arange(8) % _POOL_SIZE


def _mix(x: int, y: int) -> int:
    """SeedSequence's ``mix`` of two uint32 words."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


@functools.lru_cache(maxsize=16)
def _seed_pool(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The pool of ``SeedSequence(entropy=seed, spawn_key=(i,))`` with every
    word but the spawn word ``i`` mixed in, each word multiplied by the mix's
    left multiplier, and the five hash constants that mixing ``i`` uses.

    The seed's uint32 words, least significant first, are padded with zeros
    to the pool size (a spawn key asks for that) and hashed into the pool;
    every pool word is mixed into every other; words past the pool size are
    then mixed into each pool word. None of this depends on ``i``.
    """
    words = [seed & _MASK32]
    while seed >> 32 * len(words):
        words.append(seed >> 32 * len(words) & _MASK32)
    words += [0] * (_POOL_SIZE - len(words))
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    scaled = np.array([_MIX_MULT_L * word & _MASK32 for word in pool], dtype=np.uint32)
    return _read_only(scaled[:, None]), _hash_constants(const, _MULT_A, _POOL_SIZE)


def replicate_states(seed: int, start: int, stop: int) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of replicates ``start`` to ``stop - 1``, each
    equal to ``replicate_stream(seed, i).bit_generator.state``.

    The spawn word i is mixed into each pool word, and
    ``generate_state(4, uint64)`` run, as uint32 array arithmetic over the
    whole range at once. PCG64 then seeds from the four words (s1, s0, i1,
    i0): inc = (i1:i0) << 1 | 1, and two LCG steps from state 0 with the seed
    added between them give state = ((s1:s0) + inc) * multiplier + inc,
    mod 2**128. Spawn indices must fit one uint32 word.
    """
    if not 0 <= start <= stop <= 2**32:
        raise ValueError(f"replicates {start} to {stop} do not fit one uint32 spawn word")
    scaled_pool, consts = _seed_pool(seed)
    hashed = (np.arange(start, stop, dtype=np.uint32) ^ consts[:-1]) * consts[1:]
    hashed ^= hashed >> 16
    # mix(pool word, hashed), wrapping mod 2**32 in uint32 arithmetic
    pool = scaled_pool - np.uint32(_MIX_MULT_R) * hashed
    pool ^= pool >> 16
    state = (pool[_STATE_WORDS] ^ _STATE_CONSTANTS[:-1]) * _STATE_CONSTANTS[1:]
    state ^= state >> 16
    halves = state.astype(np.uint64)
    s1, s0, i1, i0 = (halves[0::2] | halves[1::2] << 32).tolist()
    states = []
    for hi, lo, inc_hi, inc_lo in zip(s1, s0, i1, i0):
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        states.append((((hi << 64 | lo) + inc) * _PCG64_MULT + inc & _MASK128, inc))
    return states


def run_block(
    config: SimulationConfig,
    block: range,
    mu_hats: np.ndarray,
    counts: list | None,
) -> None:
    """Estimate replicates ``block`` of a run into ``mu_hats[i]``, and their
    counts into ``counts[i]`` when a list is given.

    Each replicate's 2n uniforms are drawn from its own v1 stream into a row
    of a block, and the block is counted and estimated at once, row r's
    estimate being ``x @ ((counts[r] / n - q) / p)`` as in
    :func:`~rrkit.estimation.estimate_mean`. The range that holds replicate 0
    first replays it through :func:`simulate_survey` and
    :func:`~rrkit.estimation.estimate_mean`; the kernel must then reproduce
    its counts and every bit of its estimate, or ``RuntimeError`` is raised.
    """
    # replayed before the block is allocated, so that the two never coexist
    replayed = simulate_survey(config, 0) if block.start == 0 else None
    n, m = config.n, config.support.m
    device, x = config.device, config.support.values_array
    rows = block_rows(n)
    uniforms = np.empty((rows, 2 * n))
    # Scratch for counting, allocated once per range and overwritten by every
    # batch. Arrays this large, freed and allocated again per replicate on the
    # main thread (a serial run), can go back to the operating system in
    # between and page-fault afresh when written: a serial n = 50 000 command
    # with four fresh arrays per replicate took 84-332 minor faults, 7-11 with
    # these.
    scratch = (
        np.empty((rows, n), dtype=np.int64),
        np.empty((rows, n), dtype=np.int64),
        np.empty((rows, n), dtype=bool),
        np.empty((rows, n)),
    )
    offsets = np.arange(0, rows * m, m)[:, None]
    generator = np.random.Generator(np.random.PCG64(0))
    bit_generator = generator.bit_generator
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for chunk in range(block.start, block.stop, SEED_CHUNK):
        seeds = replicate_states(config.seed, chunk, min(chunk + SEED_CHUNK, block.stop))
        for lo in range(0, len(seeds), rows):
            batch = seeds[lo:lo + rows]
            k = len(batch)
            u = uniforms[:k]
            # each replicate's (state, inc) goes into the dict the setter reads
            for row, (pcg["state"], pcg["inc"]) in zip(u, batch):
                bit_generator.state = state
                generator.random(out=row)
            block_counts = _count_rows(config, u, offsets[:k], [a[:k] for a in scratch])
            raw = (block_counts / n - device.forced_share) / device.p
            i = chunk + lo
            mu_hats[i:i + k] = [x @ row for row in raw]
            if counts is not None:
                counts[i:i + k] = map(tuple, block_counts.tolist())
            if i == 0:
                _check_first_replicate(config, replayed, block_counts[0], mu_hats[0])


def _count_rows(
    config: SimulationConfig, u: np.ndarray, offsets: np.ndarray, scratch: list[np.ndarray]
) -> np.ndarray:
    """Response counts, one row per replicate, from rows of n truth uniforms
    followed by n device uniforms; ``offsets`` holds row * m for each row.

    ``scratch`` holds the truth and response indices (int64), the compare
    flags (bool) and a probe (float64), each of shape (rows, n), all
    overwritten.
    """
    n, m = config.n, config.support.m
    truth, responses, flags, probe = scratch
    config.population.inverse_cdf(u[:, :n], out=truth, flags=flags, probe=probe)
    responses_from_uniforms(
        config.device, truth, u[:, n:], out=responses, flags=flags, probe=probe
    )
    responses += offsets
    return np.bincount(responses.ravel(), minlength=len(u) * m).reshape(len(u), m)


def _check_first_replicate(
    config: SimulationConfig, replayed: ResponseSample, counts: np.ndarray, mu_hat: float
) -> None:
    """The kernel's counts and estimate of replicate 0 must equal the stage
    functions' bit for bit; a difference means its seeding no longer matches numpy's."""
    expected = estimation.estimate_mean(replayed, config.device, config.support)
    got = tuple(counts.tolist())
    if got != replayed.counts or float(mu_hat).hex() != expected.hex():
        raise RuntimeError(
            f"block kernel disagrees with the stage functions on replicate 0 of seed "
            f"{config.seed}: counts {got} vs {replayed.counts}, "
            f"mu_hat {float(mu_hat)!r} vs {expected!r}"
        )


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
    var_theoretical = estimation.variance_mean_theoretical(
        config.device, config.support, config.population, config.n
    )
    mu_hats = np.empty(R)
    counts: list[tuple[int, ...] | None] | None = [None] * R if keep_replicates else None

    def run(block: range) -> None:
        run_block(config, block, mu_hats, counts)

    if workers == 1:
        run(range(R))
    else:
        count = min(R, workers * BLOCKS_PER_WORKER)
        blocks = [range(k * R // count, (k + 1) * R // count) for k in range(count)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for _ in pool.map(run, blocks):
                pass

    p = config.device.p
    mean_mu = _require_finite(float(mu_hats.mean()), "mean_mu_hat", p)
    if R >= 2:
        var_mu = _require_finite(float(mu_hats.var(ddof=1)), "var_mu_hat_empirical", p)
        variance_ratio = _require_finite(var_mu / var_theoretical, "variance_ratio", p)
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
