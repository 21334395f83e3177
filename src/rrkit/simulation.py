"""Monte Carlo replication of a survey: draw, randomize, estimate, summarize.

This module owns the two draw rules, each written once. The truth rule draws
a respondent's true index by inverse CDF (:func:`cdf`, :func:`inverse_cdf`).
The card rule is the (m+1)-card device: with probability p the card says
"report your true value", and with probability (1-p)/m each it forces one of
the m support values (:func:`responses_from_uniforms`,
:func:`draw_responses`, and :func:`forced_cuts` for counting by cuts).
:func:`rrkit.oracle.response_distribution_oracle` gives the responses'
marginal law, lambda_i = p*pi_i + (1-p)/m. :mod:`rrkit.model` holds the
domain types these rules read.

Reproducibility contract (stream v1): replicate ``i`` of a run seeded with
``seed`` always uses the generator
``default_rng(SeedSequence(entropy=seed, spawn_key=(i,)))`` and consumes, in
order, one block of n uniforms for the true values and one block of n
uniforms for the device. Results are collected into a slot per replicate and
reduced in replicate order, so the summary is byte-identical no matter how
many worker threads ran.

The block kernel: :func:`run_block` takes a range of replicates in seed
chunks of up to ``SEED_CHUNK``, and does once per chunk all that does not
grow with n: it seeds the chunk's streams in one vectorised pass
(:func:`replicate_words` re-derives SeedSequence's mixing), estimates the
chunk's count rows in one call and keeps their tuples. In between, block by
block, it draws each replicate's 2n uniforms into a block and counts them
into the replicate's row of the chunk. Up to ``JUMP_MAX_N`` respondents it
computes the uniforms of a whole block at once, with no generator: PCG64 is
a 128-bit LCG with multiplier M, so the state behind output j is
M^(j+1) w + C_(j+2) inc mod 2**128, C_t = sum of M^u for u < t (Brown,
"Random Number Generation with Arbitrary Strides", 1994), from the seed
words w and inc = 2i + 1. Those states are one exact float64 matmul of the
seed words' 16-bit limbs, cast once per chunk, by a table built once per n
that folds in the word order and inc, followed by a carry chain, the XSL-RR
output step and ``Generator.random``'s ``>> 11`` and 2**-53. The block is
state-major: row j holds output j of every replicate's stream, and the
matmul's sums come out as four planes, one per 32-bit limb of the states,
each one contiguous run in which the carry chain and XSL-RR work in place.
Above ``JUMP_MAX_N``, where the matmul grows past the cost of a generator,
it re-derives PCG64's seeding (:func:`replicate_states`) and sets each
replicate's state on one reused generator before drawing its row of the
block, which keeps a row per replicate. Rows per block are capped so that a
block, its scratch and its count cells stay within ``BLOCK_BYTES`` (one row
when a single replicate is larger), and rows per chunk so that its count
cells do (:func:`chunk_rows`). Each range carves every block, with its
limb sums or its cut planes, from one allocation (:func:`_block_arena`);
on the jump path the cut planes lie in the limb sums, dead once the
uniforms are out. Counts are computed for the whole block on its two halves
(n rows of the state-major block, or n columns of the setter path's), by
cuts (below) or through the uniform-to-index helpers that
:func:`sample_true_indices` and :func:`draw_responses` use, which allocate
their index arrays themselves; the mean estimate
(:func:`~rrkit.estimation.mean_estimates`, whose bits for a row do not
depend on the rows beside it) for the whole chunk. Every count is the one
those helpers give.

Counting by cuts: every block over at most ``CUTS_MAX_M`` values, on either
path, builds no index array. The estimators read only counts, and "response
index >= k" is a comparison of the truth uniform with ``cdf[k-1]`` for a
truthful draw, and of the device uniform with a cut point
(:func:`forced_cuts`) for a forced one, so each count is a difference of two
numbers of flags (:func:`_count_by_cuts`): exactly the bincount's counts. A
block of one replicate (from about n = 5 460, see :func:`block_rows`) counts
its flags level by level with ``count_nonzero``, which at m = 3 beats the
broadcast's casting reduce (``CUTS_MAX_M``); a block of several compares
all m - 1 levels of each family in one broadcast and sums the flags over the
respondent axis in one reduce. Its cost grows as O(m n), so blocks over more
values keep the index arrays and one bincount (:func:`_count_rows`). The
tables both counters read are computed once per population or device value;
the cut levels are looked up once per range, the search levels of
:func:`inverse_cdf` once per block.

Once per run, replicate 0 is replayed through :func:`simulate_survey` and
:func:`~rrkit.estimation.estimate_mean`; any difference in its counts or in
a bit of its estimate raises ``RuntimeError``.

Worker threads: a run of n respondents per replicate is serial below
``POOL_MIN_N`` and uses one thread per CPU at or above it, where the array
draws release the interpreter lock for long enough to pay for a pool; the
CPUs counted are those the process may run on (:func:`thread_count`).
``RRKIT_THREADS`` overrides that choice, up to ``MAX_THREADS``. The pool
hands out contiguous blocks of replicate indices, ``BLOCKS_PER_WORKER`` per
worker, and each block is drawn through a generator of its own.

Before anything is allocated, a run is refused with ``RESOURCE_LIMIT`` when
its per-worker block, seed chunk and count cells, its jump table, plus its
per-replicate results, would exceed ``MEMORY_BUDGET_BYTES``, the budget
that :mod:`rrkit.model` sets for every command.
"""

from __future__ import annotations

import functools
import os
import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import estimation
from .model import (
    MEMORY_BUDGET_BYTES,
    Device,
    PopulationModel,
    ResponseSample,
    SupportSpec,
    ValidationError,
    _as_int,
    _check_budget,
    _frozen,
    _Record,
    _require_finite,
    _require_same_m,
    _sample_size,
)

THREADS_ENV_VAR = "RRKIT_THREADS"
# Respondents per replicate from which a thread per CPU beats one thread.
# With one-row blocks counted by cuts, in-process simulate commands on
# 2 vCPUs (m = 3, R = 200, medians of 15) took, serial vs two threads:
# n = 8 000 9.4-9.7 vs 10.2-10.3 ms, n = 16 000 15.7-16.3 vs 10.0-10.6 ms,
# n = 50 000 42.7-44.1 vs 23.9-25.8 ms. The pool won from about 11 000 when
# both CPUs were free, but at 16 000 it also lost, 16.5-17.0 ms, in sets
# where the two threads took no more CPU time than wall time; below that the
# Python work of setting each replicate's stream and issuing its array passes
# holds the interpreter lock for too large a share of a replicate.
POOL_MIN_N = 16_000
# Highest RRKIT_THREADS accepted: each worker is an OS thread.
MAX_THREADS = 256
# Contiguous replicate blocks handed out per worker thread: more than one, so
# that a worker slowed by another process on its CPU leaves its later blocks
# to the others. One range per worker was measured against it on 2 vCPUs:
# in process, mc_large_n's command (n = 50 000, R = 200) read p90 16% higher
# in one set of 40 rounds and within 4% in four others; under the
# benchmark's own harness its op_s_tail read 57.6-59.1 ms against
# 52.4-69.0 ms (5 pairs) and 57.9-60.1 against 49.0-59.1 (6 pairs), higher
# in 10 of 11 pairs, with op_s_p50 unchanged. So the four stay.
BLOCKS_PER_WORKER = 4
# Replicates per block of the kernel: as many as keep a block's rows
# (block_row_bytes: uniforms, temporaries and count cells) within
# BLOCK_BYTES, at least one, and at most SEED_CHUNK, the replicates seeded
# and estimated per pass; a chunk's count cells are capped by BLOCK_BYTES
# too (chunk_rows).
BLOCK_BYTES = 1 << 19
SEED_CHUNK = 2048
# Respondents per replicate up to which run_block computes each block's
# uniforms from the seeds by jumping ahead (_jump_uniforms) rather than by
# setting a generator's state per replicate. The jump's cost grows with n,
# the setter's barely does. In six sets of both paths run in turn on 2 vCPUs
# at m = 4, the jump's time over the setter's had medians of 0.70-0.78 at
# n = 100, 0.77-0.83 at 120, 0.90-0.95 at 140, 0.89-0.93 at 150 and
# 1.00-1.08 at 180, and 0.91-0.99 in twelve sets at 160 (the jump/setter line
# of scripts/kernel_stages.py --n 100,120,140,150,160,180 --m 4
# --replicates 2000 --repeats 11, 11 paired passes per set). The jump won in
# every set up to 160, by as little as 1% at 160, so the limit is 150; at
# n = 150 it also won in every set at m = 2, 3 and 16, and was about even at
# m = 40 (0.94-1.02 in five sets).
JUMP_MAX_N = 150
# Largest m at which a block is counted by comparisons against cut points
# (_count_by_cuts) rather than through index arrays and a bincount
# (_count_rows). The cuts take about 2m compare passes over n, the index
# arrays a number that grows with log m. One row on 2 vCPUs, us per
# replicate, cuts vs bincount: n = 5 500 m = 3 11.5 vs 40.8, m = 16 54.0 vs
# 57.2, m = 24 80.7 vs 66.2; n = 50 000 m = 3 54 vs 291, m = 16 245 vs 396,
# m = 24 363 vs 455, m = 32 479 vs 458 (the counting row of the setter
# path's two counters in scripts/kernel_stages.py --n 5500,50000
# --m 3,16,24,32 --replicates 20). Blocks of several rows compare all levels
# in one broadcast; the medians of the paired passes of the whole kernel on
# its own path, cuts over bincount, were 0.90-0.92 at n = 10, 0.83-0.99 at
# n = 150, 0.70-0.98 at n = 500 and 0.60-0.86 at n = 2 000, for m = 4, 8
# and 16 (kernel_stages.py --replicates 2000, 11 or 21 passes), and
# 1.13-1.19 at m = 24 (n = 10, 500 and 2 000). So 16 is the largest m at
# which the cuts win at every n. Blocks of one replicate keep their loop
# over the levels: counted by the broadcast instead, whose reduce casts its
# uint8 flags to a wider type where count_nonzero does not, the whole kernel
# took 1.03-1.07 times as long at n = 6 000, m = 3, and 1.02-1.04 at
# n = 50 000 (medians of three sets of 15-18 paired run_block passes; a copy
# of the same code read 0.99-1.01), though 0.69 at n = 6 000, m = 16.
CUTS_MAX_M = 16
# Largest memory a run may plan for. Per worker, a block of replicates: its
# uniforms (16 bytes per respondent) and counting scratch (through index
# arrays, up to 25 in the temporaries of inverse_cdf and
# responses_from_uniforms; by cuts 2 in blocks of one replicate and
# 2(m - 1) + 1 in blocks of several, at most 31 at m = 16) peaked under
# tracemalloc, through index arrays, at 47.7 bytes per respondent at n = 500
# (48.1 at m = 17) and 42.4 at n = 50 000,
# and by cuts at 53.9 at n = 500 and 2 000 (m = 16, 47 of them the block's
# allocation) and 48.4 at n = 5 000, planned as 48 (a whole run's peak at
# m = 16 in blocks of one replicate, the replay of replicate 0 included, was
# 34.4 at n = 50 000 and 33.3 at n = 200 000); the rest is fixed,
# mostly numpy's ufunc buffers of up to 64 KiB (the cuts' reduce takes one),
# which bring a block at n = 10 to 53, within its range's seed allowance. On
# the jump path a block holds its uniforms and its limb sums (64 bytes per
# respondent), which hold the cut planes too: a block's peak under
# tracemalloc grew by 80.0 bytes per respondent over blocks of 64-1 024 rows
# (m = 3, n = 70-200), planned as the 48 plus 32; one block of 41 rows at
# n = 150, m = 16, fixed buffers included, peaked at 93.0 bytes per
# respondent. Through index arrays the temporaries come on top of the limb
# sums: one block of 40 rows at n = 150, m = 17 peaked at 115.4, within its
# range's seed allowance (below), and a whole run of 3 000 replicates at
# 0.41 of its plan. The run also holds one state table of 17 rows of 8
# doubles per respondent; a cold run's peak (the table built inside the
# trace) stayed within 0.60 of the plan at n = 1-150, m = 3 and 40,
# R = 1-3 000. Each seed chunk holds m cells per
# replicate: its counts, each block's bincount and the estimate's raw
# proportions, with their temporaries, and, when records are kept, the counts as lists; held per
# block, they peaked at 22-32 bytes per cell, with records or without
# (m = 300-3 000, n = 10, 500 and 50 000), and summing each row alone
# (estimation.mean_estimates) added 7-8 bytes per cell without records
# (m = 300 and 3 000, n = 10 and 500); planned as 48.
# Also per worker, the seed table of a chunk, which peaked at about 400 bytes
# per replicate while its 128-bit integers are assembled, planned as 512
# (the jump path builds no such integers; its seed words take 113 and their
# limbs 136).
# Each result keeps 16 bytes (its estimate and the variance pass), or, with
# its record, about 240 at m = 3, planned as 512, plus its counts tuple: 8
# bytes per count up to 256 (Python's shared small ints) and 40 above it,
# where every count is an int object of its own, planned as 48.
BYTES_PER_RESPONDENT = 48
BYTES_PER_JUMP_RESPONDENT = 32
BYTES_PER_JUMP_TABLE_RESPONDENT = 17 * 8 * 8
BYTES_PER_BLOCK_COUNT = 48
BYTES_PER_SEED = 512
BYTES_PER_RESULT = 16
BYTES_PER_KEPT_RESULT = 512
BYTES_PER_KEPT_COUNT = 48

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
    ``POOL_MIN_N`` respondents and, at or above it, one per CPU that the
    process may run on: its affinity mask (taskset, a container's cpuset)
    where the platform reports one, else every CPU. Never more workers than
    replicates.
    """
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        if n < POOL_MIN_N:
            workers = 1
        elif hasattr(os, "sched_getaffinity"):
            workers = len(os.sched_getaffinity(0))
        else:
            workers = os.cpu_count() or 1
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


def block_row_bytes(n: int, m: int) -> int:
    """Planned bytes of one replicate's row of a block: its n respondents'
    uniforms and scratch, and its m count cells."""
    per_respondent = BYTES_PER_RESPONDENT + (BYTES_PER_JUMP_RESPONDENT if n <= JUMP_MAX_N else 0)
    return n * per_respondent + m * BYTES_PER_BLOCK_COUNT


def block_rows(n: int, m: int) -> int:
    """Replicates of n respondents over m values per block of the kernel."""
    return max(1, min(SEED_CHUNK, BLOCK_BYTES // block_row_bytes(n, m)))


def chunk_rows(m: int) -> int:
    """Replicates over m values per seed chunk of the kernel: as many as keep
    the chunk's count cells within ``BLOCK_BYTES``, at least one, and at most
    ``SEED_CHUNK``; never fewer than a block's rows at any n."""
    return max(1, min(SEED_CHUNK, BLOCK_BYTES // (m * BYTES_PER_BLOCK_COUNT)))


def replicate_ranges(replicates: int, workers: int) -> list[range]:
    """The contiguous ranges of replicate indices that a run on ``workers``
    threads hands out: all of them to one worker, or ``BLOCKS_PER_WORKER``
    per worker."""
    if workers == 1:
        return [range(replicates)]
    count = min(replicates, workers * BLOCKS_PER_WORKER)
    return [range(k * replicates // count, (k + 1) * replicates // count) for k in range(count)]


def planned_bytes(n: int, m: int, replicates: int, workers: int, keep_replicates: bool) -> int:
    """Memory a run of n respondents over m values plans for: each worker's
    block, seed chunk and count cells, the run's jump table, plus every
    replicate's result."""
    if keep_replicates:
        per_result = BYTES_PER_KEPT_RESULT + m * BYTES_PER_KEPT_COUNT
    else:
        per_result = BYTES_PER_RESULT
    # the uniforms and scratch take every row of a block; the m-cell arrays
    # only the rows of replicates a chunk holds
    per_worker = (
        block_row_bytes(n, 0) * block_rows(n, m)
        + min(chunk_rows(m), replicates) * m * BYTES_PER_BLOCK_COUNT
        + SEED_CHUNK * BYTES_PER_SEED
    )
    # the jump path's state table is one for all workers
    table = n * BYTES_PER_JUMP_TABLE_RESPONDENT if n <= JUMP_MAX_N else 0
    return workers * per_worker + table + replicates * per_result


def _check_memory(n: int, m: int, replicates: int, workers: int, keep_replicates: bool) -> None:
    """Refuse a run whose planned memory exceeds ``MEMORY_BUDGET_BYTES``."""
    planned = planned_bytes(n, m, replicates, workers, keep_replicates)
    plan = f"n={n} respondents over m={m} values on {workers} worker(s) and {replicates} replicates plan"
    _check_budget(planned, MEMORY_BUDGET_BYTES, plan, f"; lower --n, --replicates or {THREADS_ENV_VAR}")


class SimulationConfig(_Record):
    """One fully specified Monte Carlo run."""

    _fields = ("support", "population", "device", "n", "replicates", "seed")

    def __init__(
        self,
        support: SupportSpec,
        population: PopulationModel,
        device: Device,
        n: int,
        replicates: int,
        seed: int,
    ):
        _require_same_m(support.m, population.m)
        _require_same_m(support.m, device.m)
        self.__dict__.update(
            support=support, population=population, device=device, n=_sample_size(n),
            replicates=_as_int(replicates, "BAD_REPLICATES", "replicates", 1),
            seed=_as_int(seed, "BAD_SEED", "seed", 0),
        )


def replicate_stream(seed: int, replicate: int) -> np.random.Generator:
    """The dedicated generator for one replicate of a seeded run."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(replicate,)))


# --- the draw rules: the truth by inverse CDF, the response by the card -----


@functools.lru_cache(maxsize=16)
def cdf(population: PopulationModel) -> np.ndarray:
    """Cumulative proportions of a population; computed once per population
    value, frozen."""
    return _frozen(np.cumsum(population.pi_array))


@functools.lru_cache(maxsize=16)
def _search_levels(population: PopulationModel) -> tuple[np.ndarray, ...]:
    """``cdf[:-1]`` padded with +inf to 2**k - 1 entries, the fewest with
    2**k >= m, split into the k levels of a binary search over it: the
    level of step s holds the entries s-1, 3s-1, 5s-1, ... Computed once per
    population value, frozen."""
    m = population.m
    k = (m - 1).bit_length()
    table = np.full(2**k - 1, np.inf)
    table[: m - 1] = cdf(population)[:-1]
    return tuple(_frozen(table[2**j - 1::2 ** (j + 1)]) for j in reversed(range(k)))


def inverse_cdf(population: PopulationModel, u: np.ndarray) -> np.ndarray:
    """True-value indices for uniforms ``u`` in [0, 1), element by element.

    Index i takes the uniforms in [cdf[i-1], cdf[i]), and m-1 also takes a
    uniform at or above a last cumulative sum that rounded below 1. As the
    CDF is non-decreasing, that index, ``min(searchsorted(cdf, u, "right"),
    m - 1)``, is the number of entries of ``cdf[:-1]`` at or below u. A
    branchless binary search counts them over ``cdf[:-1]`` padded with +inf
    to 2**k - 1 entries, k = ceil(log2 m), which no uniform reaches:
    ``idx += step * (u >= table[idx + step - 1])`` for step = 2**(k-1) down
    to 1, one compare pass per step. It keeps idx / step, doubled before
    each step, so that each step reads one level of the table
    (:func:`_search_levels`). ``u`` is only read.
    """
    u = np.asarray(u)
    levels = _search_levels(population)
    out, flags, probe = np.empty(u.shape, np.int64), np.empty(u.shape, bool), np.empty(u.shape)
    np.greater_equal(u, levels[0][0], out=flags)
    np.copyto(out, flags)
    for level in levels[1:]:
        # indices stay in range; "clip" lets take write into probe unbuffered
        np.take(level, out, out=probe, mode="clip")
        np.greater_equal(u, probe, out=flags)
        out += out
        out += flags
    return out


def _forced_score(u, p: float, m: int, out: np.ndarray | None = None):
    """The forced-card score ((u - p) / (1 - p)) * m of uniforms u, evaluated
    in float64 in that order: of a float as a float, of an array into
    ``out``. A uniform at or above p forces index min(floor(score), m - 1).
    Each step is a correctly rounded operation by a positive constant, so the
    score is non-decreasing in u."""
    score = u - p if out is None else np.subtract(u, p, out=out)
    score /= 1.0 - p
    score *= m
    return score


@functools.lru_cache(maxsize=16)
def forced_cuts(device: Device) -> tuple[float, ...]:
    """Cut points t_1 .. t_(m-1) of the forced-card score; computed once per
    device value.

    The forced index is at least k exactly when u >= t_k, the smallest double
    whose :func:`_forced_score` reaches k. t_k is found by bisection over the
    bit patterns of the doubles from p, which scores 0, to 1.0, which scores
    m. A cut of 1.0 is one no uniform in [0, 1) reaches.
    """

    def bits(x: float) -> int:
        return struct.unpack("<q", struct.pack("<d", x))[0]

    def double(b: int) -> float:
        return struct.unpack("<d", struct.pack("<q", b))[0]

    p, m = device.p, device.m
    cuts = []
    for k in range(1, m):
        below, at = bits(p), bits(1.0)  # score(below) < k <= score(at)
        while at - below > 1:
            mid = (below + at) // 2
            if _forced_score(double(mid), p, m) >= k:
                at = mid
            else:
                below = mid
        cuts.append(double(at))
    return tuple(cuts)


def responses_from_uniforms(device: Device, true_indices: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Randomize true-value indices through the device, one uniform each.

    ``u`` has the shape of ``true_indices``. A uniform below p reports the
    true index; otherwise its :func:`_forced_score` picks the forced index
    among the m values. ``true_indices`` and ``u`` are only read.
    """
    score = _forced_score(u, device.p, device.m, out=np.empty(u.shape))
    # Only draws u >= p keep their forced index, and those score from 0 up;
    # a truthful draw scores below 0, and near p = 1 below the int64 range,
    # so the clip keeps the cast defined without changing a kept index.
    np.clip(score, -1.0, device.m - 1, out=score)
    out = score.astype(np.int64)
    truthful = np.less(u, device.p)
    delta = np.subtract(true_indices, out, out=score.view(np.int64))
    delta *= truthful
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


def sample_true_indices(
    population: PopulationModel, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw n true-value indices from the population by inverse CDF."""
    return inverse_cdf(population, rng.random(n))


def simulate_survey(config: SimulationConfig, replicate: int) -> ResponseSample:
    """Response counts for one replicate: truth draws first, then device draws."""
    rng = replicate_stream(config.seed, replicate)
    true_indices = sample_true_indices(config.population, config.n, rng)
    responses = draw_responses(config.device, true_indices, rng)
    counts = np.bincount(responses, minlength=config.support.m)
    return ResponseSample(counts=tuple(counts.tolist()))


def _hash_constants(const: int, mult: int, count: int) -> np.ndarray:
    """The next ``count + 1`` values of a SeedSequence hash constant, as a
    frozen uint32 column."""
    out = [const]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return _frozen(np.array(out, dtype=np.uint32)[:, None])


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
    return _frozen(scaled[:, None]), _hash_constants(const, _MULT_A, _POOL_SIZE)


def replicate_words(seed: int, start: int, stop: int) -> np.ndarray:
    """The ``generate_state(4, uint64)`` output of replicates ``start`` to
    ``stop - 1``, as a (8, stop - start) uint32 array: words (s1, s0, i1, i0),
    each split into its low and high 32 bits, one column per replicate.

    The spawn word i is mixed into each pool word, and the state generated,
    as uint32 array arithmetic over the whole range at once. Both paths of
    :func:`run_block` seed from here. Spawn indices must fit one uint32 word.
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
    return state


def replicate_states(seed: int, start: int, stop: int) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of replicates ``start`` to ``stop - 1``, each
    equal to ``replicate_stream(seed, i).bit_generator.state``.

    PCG64 seeds from the four words (s1, s0, i1, i0) of
    :func:`replicate_words`: inc = (i1:i0) << 1 | 1, and two LCG steps from
    state 0 with the seed added between them give
    state = ((s1:s0) + inc) * multiplier + inc, mod 2**128.
    """
    halves = replicate_words(seed, start, stop).astype(np.uint64)
    s1, s0, i1, i0 = (halves[0::2] | halves[1::2] << 32).tolist()
    states = []
    for hi, lo, inc_hi, inc_lo in zip(s1, s0, i1, i0):
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        states.append((((hi << 64 | lo) + inc) * _PCG64_MULT + inc & _MASK128, inc))
    return states


def _setter_uniforms(
    states: list[tuple[int, int]], generator: np.random.Generator, out: np.ndarray
) -> None:
    """Fill row r of ``out`` (k, 2n) with the first 2n uniforms of the stream
    whose PCG64 ``(state, inc)`` is ``states[r]``, by setting ``generator``'s
    state to each in turn."""
    bit_generator = generator.bit_generator
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    # each replicate's (state, inc) goes into the dict the setter reads
    for row, (pcg["state"], pcg["inc"]) in zip(out, states):
        bit_generator.state = state
        generator.random(out=row)


@functools.lru_cache(maxsize=16)
def _jump_table(n: int) -> np.ndarray:
    """The (17, 8n) float64 table that takes a replicate's seed limbs
    (:func:`_jump_limbs`) to its first 2n PCG64 states.

    With w = s1:s0, i = i1:i0 and inc = 2i + 1 as in
    :func:`replicate_states`, the state that gives output j (j = 1..2n) is
    M^(j+1) w + C_(j+2) inc = M^(j+1) w + (2 C_(j+2)) i + C_(j+2) mod 2**128,
    where M is the multiplier and C_t = sum of M^u for u < t; j = 0 is the
    seeded state. Rows 0-15 multiply the 16-bit limbs of the words
    (s1, s0, i1, i0), in :func:`replicate_words`' order: a limb of w by the
    coefficient M^(j+1), a limb of i by 2 C_(j+2) mod 2**128. Row 16
    multiplies a constant 1 by C_(j+2). The columns are limb-major: for the
    limb of weight 2**(16p), column 2n L + j - 1 holds, for 32-bit limb L of
    state j, the 16-bit limb 2L - p of the coefficient plus 2**16 times limb
    2L + 1 - p (p = 0 for the constant), so that the limbs @ table product
    gives T_2L + 2**16 T_(2L+1), where T_t sums the limb products of weight
    2**(16t). Every entry is below 2**32, and every sum of the 17 products at
    most 16 (2**16 - 1)(2**32 - 1) + 2**32 - 1 < 2**52: the float64 product
    is exact in any summation order.
    """
    a, c = _PCG64_MULT, 1 + _PCG64_MULT
    coeffs = []
    for _ in range(2 * n):
        a = a * _PCG64_MULT & _MASK128
        c = c + a & _MASK128
        coeffs += (a, 2 * c & _MASK128, c)
    # each coefficient's 16-bit limbs, least significant first, after 8 zeros
    limbs = np.zeros((3, 2 * n, 16), dtype="<u2")
    raw = b"".join(coeff.to_bytes(16, "little") for coeff in coeffs)
    limbs[:, :, 8:] = np.frombuffer(raw, dtype="<u2").reshape(2 * n, 3, 8).transpose(1, 0, 2)
    # the words' limbs, s1 and i1 (weights 2**64 up) before s0 and i0, then
    # the constant; limbs 2L - p and 2L + 1 - p of a coefficient are its 32-bit
    # limb L once it is shifted up p 16-bit limbs
    rows = [(w, p) for w in (0, 1) for p in (4, 5, 6, 7, 0, 1, 2, 3)] + [(2, 0)]
    table = np.empty((17, 4, 2 * n))
    for row, (w, p) in zip(table, rows):
        row[...] = np.ascontiguousarray(limbs[w, :, 8 - p : 16 - p]).view("<u4").T
    del coeffs, raw, limbs  # freed before the frozen copy: the build peaks at two tables
    return _frozen(table.reshape(17, 8 * n))


def _jump_limbs(words: np.ndarray) -> np.ndarray:
    """The (k, 17) float64 seed limbs of the k columns of ``words`` (8, k),
    from :func:`replicate_words`: row r holds the 16-bit limbs of column r,
    least significant first within each word, then a 1 for
    :func:`_jump_table`'s constant row."""
    limbs = np.empty((words.shape[1], 17))
    limbs[:, :16] = np.ascontiguousarray(words.T, dtype="<u4").view("<u2")
    limbs[:, 16] = 1.0
    return limbs


def _jump_uniforms(
    limbs: np.ndarray, table: np.ndarray, out: np.ndarray, sums: np.ndarray
) -> None:
    """Fill column r of ``out`` (2n, k) with the first 2n ``Generator.random``
    uniforms of the stream whose seed limbs (:func:`_jump_limbs`) are row r
    of ``limbs`` (k, 17), without a generator: every state comes from the
    seed through ``table`` (:func:`_jump_table`), one float64 matmul into
    ``sums`` (8n, k), which is overwritten.

    Row 2n L + j - 1 of ``sums`` holds 32-bit limb L of state j, so each of
    the four (2n, k) limb planes is one contiguous run, and the carry chain
    and the output step run in place in them.
    """
    np.matmul(table.T, limbs.T, out=sums)
    # each sum is an integer below 2**52: adding 2**52 puts it in the mantissa
    sums += 2.0**52
    v = sums.view(np.uint64)
    v0, v1, v2, v3 = v.reshape(4, len(out), -1)
    # clear the exponent bits above each sum, but in v3, whose shift by 32
    # below drops them
    v[:3 * len(out)] &= (1 << 52) - 1
    # the state's low 64 bits are v0 + v1 * 2**32 and its high 64 bits
    # v2 + v3 * 2**32, plus the carry out of the low half, mod 2**64; v3,
    # once added, is the temporary
    v3 <<= 32
    v2 += v3
    np.right_shift(v0, 32, out=v3)
    v1 += v3
    np.right_shift(v1, 32, out=v3)
    v2 += v3
    v1 <<= 32
    v0 &= _MASK32
    v1 |= v0
    lo, hi, tmp = v1, v2, v3
    # XSL-RR: hi ^ lo rotated right by the top six bits of hi
    lo ^= hi
    hi >>= 58
    np.right_shift(lo, hi, out=tmp)
    np.subtract(64, hi, out=hi)
    hi &= 63
    lo <<= hi
    lo |= tmp
    # Generator.random: the top 53 bits, times 2**-53
    lo >>= 11
    np.multiply(lo, 2.0**-53, out=out)


def _cut_planes(k: int, m: int) -> int:
    """The bool planes of scratch, each of the shape of a half of the
    uniforms, that :func:`_count_by_cuts` takes for a block of k replicates
    over m values: the truthful flags and one flag plane, level by level, for
    one replicate; the truthful flags and two families of m - 1 planes, all
    levels at once, for more."""
    return 2 if k == 1 else 2 * m - 1


def _block_arena(rows: int, n: int, m: int, jump: bool, cuts: bool) -> np.ndarray:
    """The one float64 allocation from which :func:`_block_views` carves
    every block of up to ``rows`` replicates of n respondents over m values,
    on the jump path or the setter path, counted by cuts or not: the
    uniforms, then the limb sums, or else the :func:`_cut_planes` bool
    planes of counting by cuts."""
    size = rows * n
    if jump:
        return np.empty(10 * size)
    planes = _cut_planes(rows, m) * size if cuts else 0  # bytes
    return np.empty(2 * size + -(-planes // 8))


def _block_views(arena: np.ndarray, k: int, n: int, m: int, jump: bool, cuts: bool) -> tuple:
    """A block of k replicates carved from ``arena`` (:func:`_block_arena`):
    its uniforms, its limb sums, the truth and device halves of its uniforms
    and, counted by cuts, its :func:`_cut_planes` bool planes (else None).

    On the jump path the uniforms are state-major, (2n, k), with output j of
    every stream in row j, so each half is a block of n rows; the (8n, k)
    limb sums of :func:`_jump_uniforms` follow them. The setter path has no
    limb sums (None) and keeps a row per replicate, (k, 2n), whose halves
    are its first and last n columns. The cut planes follow the uniforms,
    stacked, each of the shape of a half; on the jump path they lie in the
    limb sums, which are dead once the uniforms are out.
    """
    size = k * n
    if jump:
        shape = (n, k)
        u = arena[:2 * size].reshape(2 * n, k)
        sums = arena[2 * size:10 * size].reshape(8 * n, k)
        halves = u[:n], u[n:]
    else:
        shape = (k, n)
        u = arena[:2 * size].reshape(k, 2 * n)
        sums = None
        halves = u[:, :n], u[:, n:]
    if not cuts:
        return u, sums, halves, None
    planes = _cut_planes(k, m)
    return u, sums, halves, arena[2 * size:].view(bool)[:planes * size].reshape(planes, *shape)


def run_block(
    config: SimulationConfig,
    block: range,
    mu_hats: np.ndarray,
    counts: list | None,
) -> None:
    """Estimate replicates ``block`` of a run into ``mu_hats[i]``, and their
    counts into ``counts[i]`` when a list is given.

    The range is taken in seed chunks of :func:`chunk_rows` replicates. Each
    chunk's streams are seeded in one pass (:func:`replicate_words`, and on
    the jump path one cast of their limbs, :func:`_jump_limbs`). Block by
    block of :func:`block_rows`, each replicate's 2n uniforms are then drawn
    from its own v1 stream into the block (:func:`_block_views`), by
    :func:`_jump_uniforms` into a column up to ``JUMP_MAX_N`` respondents and
    through a generator set to each replicate's state into a row above it,
    and counted into its row of the chunk's counts, by :func:`_count_by_cuts`
    over at most ``CUTS_MAX_M`` values and by :func:`_count_rows` over more.
    The chunk's counts are estimated at once by
    :func:`~rrkit.estimation.mean_estimates`, which
    :func:`~rrkit.estimation.estimate_mean` calls on one row. The range that
    holds replicate 0 first replays it through :func:`simulate_survey` and
    :func:`~rrkit.estimation.estimate_mean`; the kernel must then reproduce
    its counts and every bit of its estimate, or ``RuntimeError`` is raised.
    """
    n, m = config.n, config.support.m
    jump = n <= JUMP_MAX_N
    axis = 0 if jump else 1  # the respondent axis of a block's halves
    rows = block_rows(n, m)
    step = chunk_rows(m)
    cuts = m <= CUTS_MAX_M
    # replayed, and the jump table built, before the arena is allocated, so
    # that their temporaries and the arena never coexist
    replayed = simulate_survey(config, 0) if block.start == 0 else None
    table = _jump_table(n) if jump else None
    x = config.support.values_array
    chunk_counts = np.empty((min(step, len(block)), m), dtype=np.int64)
    # One allocation per range for every block's uniforms, limb sums and
    # cut planes, overwritten by every block. Arrays this large, freed
    # and allocated again per replicate on the main thread (a serial run), can
    # go back to the operating system in between and page-fault afresh when
    # written: a serial n = 50 000 command with four fresh arrays per
    # replicate took 84-332 minor faults, 7-11 with scratch per range. The
    # index arrays of blocks over CUTS_MAX_M values are fresh per block: at
    # n = 50 000, m = 24, 43 faults per replicate, yet paired run_block passes
    # read 0.99 of the time with those arrays kept per range.
    arena = _block_arena(rows, n, m, jump, cuts)
    if cuts:
        levels = _cut_levels(config)  # looked up once per range
    else:
        # row r's responses are offset by r * m: a row on the jump path, a
        # column on the setter path
        offsets = np.arange(0, rows * m, m)
        if not jump:
            offsets = offsets[:, None]
    if not jump:
        generator = np.random.Generator(np.random.PCG64(0))
    carved = 0
    for chunk in range(block.start, block.stop, step):
        size = min(step, block.stop - chunk)
        if jump:
            limbs = _jump_limbs(replicate_words(config.seed, chunk, chunk + size))
        else:
            states = replicate_states(config.seed, chunk, chunk + size)
        for lo in range(0, size, rows):
            k = min(rows, size - lo)
            if k != carved:
                u, sums, halves, planes = _block_views(arena, k, n, m, jump, cuts)
                carved = k
            if jump:
                _jump_uniforms(limbs[lo:lo + k], table, u, sums)
            else:
                _setter_uniforms(states[lo:lo + k], generator, u)
            if cuts:
                _count_by_cuts(config, *halves, axis, planes, chunk_counts[lo:lo + k], levels)
            else:
                chunk_counts[lo:lo + k] = _count_rows(config, *halves, offsets[:k])
        filled = chunk_counts[:size]
        mu_hats[chunk:chunk + size] = estimation.mean_estimates(filled / n, config.device, x)
        if counts is not None:
            counts[chunk:chunk + size] = map(tuple, filled.tolist())
        if chunk == 0:
            _check_first_replicate(config, replayed, filled[0], mu_hats[0])


def _count_rows(
    config: SimulationConfig, truth_u: np.ndarray, draws: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Response counts, one row per replicate, from the replicates' truth
    uniforms ``truth_u`` and device uniforms ``draws``, both (n, k) with a
    column per replicate or (k, n) with a row; ``offsets`` holds r * m for
    each replicate r, as a row or a column to match. The index arrays are
    those of :func:`inverse_cdf` and :func:`responses_from_uniforms`, which
    allocate their own."""
    truth = inverse_cdf(config.population, truth_u)
    responses = responses_from_uniforms(config.device, truth, draws)
    responses += offsets
    m = config.support.m
    return np.bincount(responses.ravel(), minlength=len(offsets) * m).reshape(-1, m)


def _cut_levels(config: SimulationConfig) -> np.ndarray:
    """The (2, m - 1, 1, 1) float64 array of ``cdf[k-1]`` and of t_k,
    k = 1..m-1, that :func:`_count_by_cuts` compares truth and device
    uniforms with, one level per (1, 1) entry, so that a family of levels
    broadcasts against a half of the uniforms in either layout."""
    cuts = forced_cuts(config.device)
    return np.array([cdf(config.population)[:-1], cuts]).reshape(2, len(cuts), 1, 1)


def _count_by_cuts(
    config: SimulationConfig,
    truth: np.ndarray,
    draws: np.ndarray,
    axis: int,
    scratch: np.ndarray,
    out: np.ndarray,
    levels: np.ndarray,
) -> None:
    """Response counts of the r replicates of a block, into the (r, m) rows
    ``out``, from their truth uniforms ``truth`` and device uniforms
    ``draws``, with no index array. Both are (n, r), a column per replicate
    (the jump path's state-major halves), or (r, n), a row per replicate
    (the setter path's); ``axis``, 0 or 1, is their respondent axis.

    A truthful draw (device uniform below p) reports its true index, which is
    at least k exactly when its truth uniform is at or above ``cdf[k-1]``,
    the rule of :func:`inverse_cdf`; a forced draw's index is at least k
    exactly when its device uniform is at or above t_k (:func:`forced_cuts`),
    and t_k > p, so the two never flag the same draw. So the responses at or
    above k number the truthful draws past ``cdf[k-1]`` plus the device
    uniforms past t_k, and each count is the difference of two such numbers.

    One replicate is counted level by level, with ``count_nonzero`` over two
    flag planes. More are counted with every level at once: the m - 1
    truthful flag planes and the m - 1 forced ones, each family one
    broadcast compare, are joined by ``|=`` and summed over the respondent
    axis in one reduce, in the smallest unsigned integer type that holds n.
    ``scratch`` holds the :func:`_cut_planes` bool planes, all overwritten;
    ``levels`` the array of :func:`_cut_levels`, which the kernel forms once
    per range.
    """
    n, m = config.n, config.support.m
    truthful = scratch[0]
    np.less(draws, config.device.p, out=truthful)
    if len(out) == 1:
        flags, row = scratch[1], out[0]
        above = n
        for k, (level, cut) in enumerate(zip(*levels.reshape(2, -1).tolist())):
            np.greater_equal(truth, level, out=flags)
            flags &= truthful
            at_least = np.count_nonzero(flags)
            np.greater_equal(draws, cut, out=flags)
            at_least += np.count_nonzero(flags)
            row[k] = above - at_least
            above = at_least
        row[-1] = above
        return
    flags, forced = scratch[1:m], scratch[m:]
    np.greater_equal(truth, levels[0], out=flags)
    flags &= truthful
    np.greater_equal(draws, levels[1], out=forced)
    flags |= forced
    # the responses at or above 0, 1, ..., m, a column per replicate
    at_least = np.empty((m + 1, len(out)), np.min_scalar_type(n))
    at_least[0], at_least[m] = n, 0
    np.add.reduce(flags.view(np.uint8), axis=axis + 1, dtype=at_least.dtype, out=at_least[1:m])
    out[...] = (at_least[:-1] - at_least[1:]).T


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


class ReplicateRecord(_Record):
    """One replicate's mean estimate and response counts."""

    _fields = ("replicate", "mu_hat", "counts")

    # one of these per replicate under --replicate-csv, so it skips the binder
    def __init__(self, replicate, mu_hat, counts):
        self.__dict__.update(replicate=replicate, mu_hat=mu_hat, counts=counts)


class SimulationSummary(_Record):
    """Run-level results; ``records`` is populated only when per-replicate
    detail was requested, and is left out of the repr and the JSON document."""

    _fields = (
        "n", "replicates", "seed", "mu_x", "mean_mu_hat", "var_mu_hat_empirical",
        "var_mu_theoretical", "variance_ratio", "mc_se_mean", "records",
    )
    _defaults = {"records": ()}
    _repr_omits = ("records",)
    _json_fields = _fields[:-1]


def run_replicates(config: SimulationConfig, keep_replicates: bool = False) -> SimulationSummary:
    """Run every replicate, estimate the mean from each, and reduce in index order."""
    R = config.replicates
    workers = thread_count(R, config.n)
    _check_memory(config.n, config.support.m, R, workers, keep_replicates)
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
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for _ in pool.map(run, replicate_ranges(R, workers)):
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
