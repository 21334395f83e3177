"""Seeded Monte Carlo replication: stream derivation, determinism, calibration."""

import collections
import hashlib
import importlib.util
import json
import math
import os
import pathlib
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrkit import (
    Device,
    PopulationModel,
    ResponseSample,
    SimulationConfig,
    SupportSpec,
    ValidationError,
    cli,
    estimation,
    oracle,
    simulation,
)
from rrkit.design import design_device
from rrkit.estimation import estimate_mean
from rrkit.model import load_survey
from rrkit.simulation import (
    JUMP_MAX_N,
    MAX_THREADS,
    POOL_MIN_N,
    replicate_states,
    replicate_words,
    replicate_stream,
    responses_from_uniforms,
    run_replicates,
    sample_true_indices,
    simulate_survey,
    thread_count,
)


@pytest.fixture
def config3(support3, pop3):
    return SimulationConfig(
        support=support3,
        population=pop3,
        device=Device(p=0.5, m=3),
        n=200,
        replicates=40,
        seed=11,
    )


def test_replicate_streams_are_reproducible_and_distinct():
    a1 = replicate_stream(5, 0).random(8)
    a2 = replicate_stream(5, 0).random(8)
    b = replicate_stream(5, 1).random(8)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_true_index_frequencies(pop3):
    rng = np.random.default_rng(3)
    n = 200_000
    idx = sample_true_indices(pop3, n, rng)
    freq = np.bincount(idx, minlength=3) / n
    se = np.sqrt(np.array(pop3.pi) * (1 - np.array(pop3.pi)) / n)
    assert (np.abs(freq - pop3.pi_array) <= 3 * se).all()


def test_degenerate_population_draws_only_that_index():
    pop = PopulationModel(pi=(0.0, 1.0))
    idx = sample_true_indices(pop, 1000, np.random.default_rng(0))
    assert (idx == 1).all()


def test_simulate_survey_counts_sum_to_n(config3):
    sample = simulate_survey(config3, 0)
    assert sample.n == config3.n
    assert sample.m == 3


def test_simulate_survey_is_deterministic_per_replicate(config3):
    assert simulate_survey(config3, 3) == simulate_survey(config3, 3)
    assert simulate_survey(config3, 3) != simulate_survey(config3, 4)


def test_run_replicates_summary_fields(config3):
    summary = run_replicates(config3, keep_replicates=True)
    assert summary.replicates == 40
    assert summary.mu_x == pytest.approx(0.7)
    assert len(summary.records) == 40
    assert [r.replicate for r in summary.records] == list(range(40))
    doc = summary.to_json_dict()
    assert set(doc) == {
        "n",
        "replicates",
        "seed",
        "mu_x",
        "mean_mu_hat",
        "var_mu_hat_empirical",
        "var_mu_theoretical",
        "variance_ratio",
        "mc_se_mean",
    }


def test_records_dropped_by_default(config3):
    assert run_replicates(config3).records == ()


def test_single_replicate_has_no_empirical_variance(support3, pop3):
    cfg = SimulationConfig(
        support=support3, population=pop3, device=Device(p=0.5, m=3), n=50, replicates=1, seed=0
    )
    summary = run_replicates(cfg)
    assert summary.var_mu_hat_empirical is None
    assert summary.variance_ratio is None
    assert summary.mc_se_mean is None
    assert summary.var_mu_theoretical > 0


def test_thread_count_honors_env(monkeypatch):
    monkeypatch.setenv("RRKIT_THREADS", "3")
    assert thread_count(100) == 3
    assert thread_count(2) == 2  # never more workers than replicates
    monkeypatch.setenv("RRKIT_THREADS", "not-a-number")
    with pytest.raises(ValidationError):
        thread_count(10)
    monkeypatch.setenv("RRKIT_THREADS", "0")
    with pytest.raises(ValidationError):
        thread_count(10)


def _cpus(monkeypatch, count, usable):
    """``count`` CPUs on the machine, of which the process may run on
    ``usable``; None for a platform with no affinity call."""
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: count)
    if usable is None:
        monkeypatch.delattr(simulation.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(simulation.os, "sched_getaffinity", lambda pid: set(range(usable)), raising=False)


def test_default_is_serial_below_pool_min_n_and_a_thread_per_cpu_at_it(monkeypatch):
    monkeypatch.delenv("RRKIT_THREADS", raising=False)
    _cpus(monkeypatch, 6, 6)
    assert thread_count(100, POOL_MIN_N - 1) == 1
    assert thread_count(100, 10) == 1
    assert thread_count(100) == 1
    assert thread_count(100, POOL_MIN_N) == 6
    assert thread_count(4, POOL_MIN_N) == 4  # never more workers than replicates
    _cpus(monkeypatch, 6, None)
    assert thread_count(100, POOL_MIN_N) == 6
    _cpus(monkeypatch, None, None)
    assert thread_count(100, POOL_MIN_N) == 1


def test_default_counts_only_the_cpus_the_process_may_run_on(monkeypatch):
    """A process pinned to 2 of 64 CPUs starts 2 workers, and its memory
    plan counts 2 workers' blocks and seed chunks."""
    monkeypatch.delenv("RRKIT_THREADS", raising=False)
    _cpus(monkeypatch, 64, 2)
    assert thread_count(100, POOL_MIN_N) == 2
    assert thread_count(100, 10) == 1
    n = 20_000_000  # about 1 GB of block per worker: 2 fit the budget, 64 do not
    simulation._check_memory(n, 3, 100, thread_count(100, n), False)
    with pytest.raises(ValidationError) as e:
        simulation._check_memory(n, 3, 100, 64, False)
    assert e.value.code == "RESOURCE_LIMIT"


def test_env_overrides_the_default_in_both_directions(monkeypatch):
    _cpus(monkeypatch, 6, 6)
    monkeypatch.setenv("RRKIT_THREADS", "3")
    assert thread_count(100, 10) == 3
    monkeypatch.setenv("RRKIT_THREADS", "1")
    assert thread_count(100, POOL_MIN_N) == 1


def test_thread_count_ceiling(monkeypatch):
    # only the count is computed here: no pool is built, so no thread starts
    monkeypatch.setenv("RRKIT_THREADS", str(MAX_THREADS))
    assert thread_count(10**6) == MAX_THREADS
    for raw in (str(MAX_THREADS + 1), "100000", "-3"):
        monkeypatch.setenv("RRKIT_THREADS", raw)
        with pytest.raises(ValidationError) as e:
            thread_count(10**6)
        assert e.value.code == "BAD_ARGS"


def _serial_reference(config):
    """Replicates run one by one through the public stages, in index order."""
    out = []
    for i in range(config.replicates):
        sample = simulate_survey(config, i)
        out.append((i, estimate_mean(sample, config.device, config.support), sample.counts))
    return out


@pytest.mark.parametrize(
    "replicates, threads", [(7, "3"), (10, "4"), (27, "2"), (50, "3"), (3, "4"), (1, "4")]
)
def test_blocks_keep_replicate_order_and_bytes(
    support3, pop3, monkeypatch, replicates, threads
):
    # R not a multiple of the block count, and R below the requested workers
    cfg = SimulationConfig(
        support=support3, population=pop3, device=Device(p=0.3, m=3), n=15,
        replicates=replicates, seed=21,
    )
    monkeypatch.setenv("RRKIT_THREADS", "1")
    serial = run_replicates(cfg, keep_replicates=True)

    calls = []
    original = simulation.run_block

    def recording(config, block, *args):
        calls.extend((threading.get_ident(), i) for i in block)
        return original(config, block, *args)

    monkeypatch.setattr(simulation, "run_block", recording)
    monkeypatch.setenv("RRKIT_THREADS", threads)
    pooled = run_replicates(cfg, keep_replicates=True)

    assert pooled == serial
    assert [(r.replicate, r.mu_hat, r.counts) for r in pooled.records] == _serial_reference(cfg)
    assert repr(pooled.to_json_dict()) == repr(serial.to_json_dict())
    # every block is one contiguous run of indices, in order, on a single thread
    count = min(replicates, int(threads) * simulation.BLOCKS_PER_WORKER)
    blocks = [list(range(k * replicates // count, (k + 1) * replicates // count))
              for k in range(count)]
    by_thread = {}
    for ident, i in calls:
        by_thread.setdefault(ident, []).append(i)
    assert sorted(i for _, i in calls) == list(range(replicates))
    for block in blocks:
        owner = by_thread[next(ident for ident, i in calls if i == block[0])]
        start = owner.index(block[0])
        assert owner[start:start + len(block)] == block


def test_default_pool_at_pool_min_n_matches_serial(support3, pop3, monkeypatch):
    cfg = SimulationConfig(
        support=support3, population=pop3, device=Device(p=0.3, m=3), n=POOL_MIN_N,
        replicates=3, seed=4,
    )
    monkeypatch.setenv("RRKIT_THREADS", "1")
    serial = run_replicates(cfg, keep_replicates=True)
    monkeypatch.delenv("RRKIT_THREADS")
    _cpus(monkeypatch, 2, 2)
    assert thread_count(cfg.replicates, cfg.n) == 2
    assert run_replicates(cfg, keep_replicates=True) == serial


def test_memory_budget_counts_workers_and_kept_results(support3, pop3, monkeypatch):
    n = JUMP_MAX_N + 1  # the setter path, with no jump table
    cfg = SimulationConfig(
        support=support3, population=pop3, device=Device(p=0.3, m=3), n=n,
        replicates=4, seed=0,
    )
    # the block's arena as run_block allocates it, counted by cuts
    planned = (
        simulation._block_arena(simulation.block_rows(n, 3), n, 3, False, True).nbytes
        + simulation.WORKER_FIXED_BYTES
        + 4 * 3 * simulation.BYTES_PER_BLOCK_COUNT
        + simulation.SEED_CHUNK * simulation.BYTES_PER_SEED
        + 4 * simulation.BYTES_PER_RESULT
    )
    monkeypatch.setenv("RRKIT_THREADS", "1")
    monkeypatch.setattr(simulation, "MEMORY_BUDGET_BYTES", planned)
    run_replicates(cfg)  # exactly at the budget
    for threads, keep in (("2", False), ("1", True)):
        monkeypatch.setenv("RRKIT_THREADS", threads)
        with pytest.raises(ValidationError) as e:
            run_replicates(cfg, keep_replicates=keep)
        assert e.value.code == "RESOURCE_LIMIT"
    monkeypatch.setenv("RRKIT_THREADS", "1")
    monkeypatch.setattr(simulation, "MEMORY_BUDGET_BYTES", planned - 1)
    with pytest.raises(ValidationError) as e:
        run_replicates(cfg)
    assert e.value.code == "RESOURCE_LIMIT"


def test_results_do_not_depend_on_thread_count(config3, monkeypatch):
    monkeypatch.setenv("RRKIT_THREADS", "1")
    serial = run_replicates(config3, keep_replicates=True)
    monkeypatch.setenv("RRKIT_THREADS", "4")
    threaded = run_replicates(config3, keep_replicates=True)
    assert serial == threaded


def test_mean_and_variance_are_calibrated(support3, pop3):
    # moderately sized run: the average estimate must sit within 4 standard
    # errors of the truth and the empirical variance within 20% of theory
    cfg = SimulationConfig(
        support=support3,
        population=pop3,
        device=Device(p=0.5, m=3),
        n=400,
        replicates=2000,
        seed=77,
    )
    summary = run_replicates(cfg)
    se = (summary.var_mu_theoretical / cfg.replicates) ** 0.5
    assert abs(summary.mean_mu_hat - 0.7) <= 4 * se
    assert abs(summary.variance_ratio - 1.0) <= 0.2


def test_config_validation(support3, pop3):
    dev = Device(p=0.5, m=3)
    with pytest.raises(ValidationError) as e:
        SimulationConfig(support=support3, population=pop3, device=dev, n=0, replicates=5, seed=0)
    assert e.value.code == "BAD_N"
    with pytest.raises(ValidationError) as e:
        SimulationConfig(support=support3, population=pop3, device=dev, n=5, replicates=0, seed=0)
    assert e.value.code == "BAD_REPLICATES"
    with pytest.raises(ValidationError) as e:
        SimulationConfig(support=support3, population=pop3, device=dev, n=5, replicates=5, seed=-1)
    assert e.value.code == "BAD_SEED"
    with pytest.raises(ValidationError) as e:
        SimulationConfig(
            support=support3,
            population=PopulationModel(pi=(0.5, 0.5)),
            device=dev,
            n=5,
            replicates=5,
            seed=0,
        )
    assert e.value.code == "DIMENSION_MISMATCH"


def test_config_takes_numpy_integers_as_python_ints(support3, pop3):
    dev = Device(p=0.5, m=3)
    cfg = SimulationConfig(
        support=support3, population=pop3, device=dev, n=np.int64(5), replicates=np.uint16(4),
        seed=np.uint64(2**64 - 1),
    )
    assert (cfg.n, cfg.replicates, cfg.seed) == (5, 4, 2**64 - 1)
    assert {type(cfg.n), type(cfg.replicates), type(cfg.seed)} == {int}
    for field, code in (("n", "BAD_N"), ("replicates", "BAD_REPLICATES"), ("seed", "BAD_SEED")):
        for value in (True, 5.0, "5"):
            kwargs = {"n": 5, "replicates": 5, "seed": 0, field: value}
            with pytest.raises(ValidationError) as e:
                SimulationConfig(support=support3, population=pop3, device=dev, **kwargs)
            assert e.value.code == code


def test_stream_consumption_order_is_pinned(support3, pop3):
    """Replicate i draws n truth uniforms, then n device uniforms, from
    stream (seed, i). Reconstructing by hand must give the same counts."""
    from rrkit.simulation import draw_responses

    cfg = SimulationConfig(
        support=support3, population=pop3, device=Device(p=0.3, m=3), n=25, replicates=2, seed=9
    )
    sample = simulate_survey(cfg, 1)

    rng = replicate_stream(9, 1)
    cum = np.cumsum(pop3.pi_array)
    truth = np.minimum(np.searchsorted(cum, rng.random(25), side="right"), 2)
    responses = draw_responses(cfg.device, truth, rng)
    counts = tuple(int(c) for c in np.bincount(responses, minlength=3))
    assert sample.counts == counts


# --- block kernel -------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32 + 1, 2**64 + 1, 2**130 + 7])
def test_vectorised_seeding_matches_numpy(seed):
    for i in (0, 1, 2**31, 2**32 - 1):
        state = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,))).state["state"]
        assert replicate_states(seed, i, i + 1) == [(state["state"], state["inc"])]
    # one pass over a range gives each replicate its own stream's state
    states = replicate_states(seed, 5, 40)
    assert len(states) == 35
    for i in (5, 6, 39):
        state = replicate_stream(seed, i).bit_generator.state["state"]
        assert states[i - 5] == (state["state"], state["inc"])
    assert replicate_states(seed, 7, 7) == []


def test_seeding_refuses_spawn_indices_past_one_word():
    with pytest.raises(ValueError):
        replicate_states(0, 2**32 - 1, 2**32 + 1)


@st.composite
def jump_cases(draw):
    """A seed, a ragged range of replicates (near 2**32 or not) read as a
    column slice of a longer seeding pass, scratch rows to spare, and n on
    both sides of JUMP_MAX_N."""
    seed = draw(st.one_of(
        st.sampled_from([0, 2**32 - 1, 2**32 + 1]),
        st.integers(2**64, 2**127 - 1),
        st.integers(2**127, 2**130),
    ))
    k = draw(st.integers(1, 9))
    lead = draw(st.integers(0, 3))
    start = draw(st.one_of(st.integers(lead, 100), st.integers(2**32 - 40, 2**32 - k)))
    n = draw(st.integers(1, 2 * JUMP_MAX_N))
    return seed, start, k, lead, n, k + draw(st.integers(0, 3))


@settings(max_examples=80, deadline=None)
@given(case=jump_cases())
def test_jump_uniforms_match_generator_random(case):
    seed, start, k, lead, n, rows = case
    words = replicate_words(seed, start - lead, start + k)[:, lead:]
    out, sums, _, _ = simulation._block_views(
        simulation._block_arena(rows, n, 3, True, False), k, n, 3, True, False
    )
    simulation._jump_uniforms(simulation._jump_limbs(words), simulation._jump_table(n), out, sums)
    for r in range(k):
        assert out[:, r].tobytes() == replicate_stream(seed, start + r).random(2 * n).tobytes()


# n = 70 inside the jump path, JUMP_MAX_N on its edge
@pytest.mark.parametrize("n", [1, 70, JUMP_MAX_N])
def test_jump_table_products_are_exact_in_float64(n):
    """Every entry of the folded table is an integer below 2**32, and the
    largest sum the limbs can give (16 limbs of 2**16 - 1 and the constant 1)
    is below 2**52, so every matmul sum is exact."""
    table = simulation._jump_table(n)
    assert table.shape == (17, 8 * n)
    assert (table >= 0).all() and (table < 2**32).all()
    entries = table.astype(np.int64)
    assert (entries == table).all()
    top = np.array([2**16 - 1] * 16 + [1], dtype=np.int64)
    assert (top @ entries).max() < 2**52


@pytest.mark.parametrize("n", [1, 10, 70, JUMP_MAX_N])
def test_jump_table_build_peaks_near_the_table_it_keeps(n):
    """The table is built row by row from the coefficients' limbs, with no
    gathers over all the (coefficient, shift, limb) triples it does not keep."""
    tracemalloc.start()
    try:
        table = simulation._jump_table.__wrapped__(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * table.nbytes + 4096


def test_each_path_draws_its_side_of_jump_max_n(support3, pop3, monkeypatch):
    def refuse(*args):
        raise AssertionError("drawn on the wrong path")

    for n, other in ((JUMP_MAX_N, "_setter_uniforms"), (JUMP_MAX_N + 1, "_jump_uniforms")):
        cfg = SimulationConfig(
            support=support3, population=pop3, device=Device(p=0.3, m=3), n=n,
            replicates=5, seed=3,
        )
        with monkeypatch.context() as patch:
            patch.setattr(simulation, other, refuse)
            run_replicates(cfg)


@st.composite
def kernel_cases(draw):
    m = draw(st.integers(2, 40))
    weights = draw(st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0, 3.0]), min_size=m, max_size=m))
    if not any(weights):
        weights[draw(st.integers(0, m - 1))] = 1.0
    total = sum(weights)
    shift = draw(st.sampled_from([0.0, -7.5, 1e3, 1e6, -1e8]))
    scale = draw(st.sampled_from([1.0, 0.25, 3.0]))
    support = SupportSpec(values=tuple(shift + scale * k for k in range(m)), stigma=(True,) * m)
    return SimulationConfig(
        support=support,
        population=PopulationModel(pi=tuple(w / total for w in weights)),
        device=Device(p=draw(st.floats(1e-6, 1 - 1e-12)), m=m),
        n=draw(st.integers(1, 3000)),
        replicates=draw(st.integers(1, 9)),
        seed=draw(st.sampled_from([0, 31, 2**64 + 3])),
    )


@settings(max_examples=60, deadline=None)
@given(
    config=kernel_cases(),
    rows=st.integers(1, 4),
    seed_chunk=st.integers(1, 5),
    threads=st.sampled_from(["1", "3"]),
)
def test_kernel_matches_stage_functions(config, rows, seed_chunk, threads):
    """Kernel estimates and counts equal the one-replicate-at-a-time stages bit
    for bit, with blocks and seed chunks small enough to end ragged."""
    block_bytes = rows * simulation.block_row_bytes(config.n, config.support.m)
    with mock.patch.object(simulation, "BLOCK_BYTES", block_bytes), \
            mock.patch.object(simulation, "SEED_CHUNK", seed_chunk), \
            mock.patch.dict(os.environ, {"RRKIT_THREADS": threads}):
        summary = run_replicates(config, keep_replicates=True)
    expected = _serial_reference(config)
    assert [(r.replicate, r.counts) for r in summary.records] == [(i, c) for i, _, c in expected]
    got = np.array([r.mu_hat for r in summary.records])
    assert got.tobytes() == np.array([mu for _, mu, _ in expected]).tobytes()


def _assert_records_match_stage_functions(summary, config):
    """Kept counts and every bit of each estimate equal the stage functions'."""
    expected = _serial_reference(config)
    assert [(r.replicate, r.counts) for r in summary.records] == [(i, c) for i, _, c in expected]
    got = np.array([r.mu_hat for r in summary.records])
    assert got.tobytes() == np.array([mu for _, mu, _ in expected]).tobytes()


@pytest.mark.parametrize("rows, seed_chunk", [(1, 256), (3, 2)])
def test_kernel_matches_stage_functions_at_large_m(rows, seed_chunk, monkeypatch):
    m = 1000
    weights = np.random.default_rng(8).random(m) * (np.arange(m) % 7 != 0)  # zeros repeat CDF entries
    config = SimulationConfig(
        support=SupportSpec(values=tuple(0.5 * k - 3.0 for k in range(m)), stigma=(True,) * m),
        population=PopulationModel(pi=tuple(weights / weights.sum())),
        device=Device(p=0.35, m=m),
        n=2500,
        replicates=7,
        seed=2**64 + 5,
    )
    monkeypatch.setattr(simulation, "BLOCK_BYTES", rows * simulation.block_row_bytes(config.n, m))
    monkeypatch.setattr(simulation, "SEED_CHUNK", seed_chunk)
    monkeypatch.setenv("RRKIT_THREADS", "2")
    _assert_records_match_stage_functions(run_replicates(config, keep_replicates=True), config)


# n = 70 and 71 inside the jump path, JUMP_MAX_N and JUMP_MAX_N + 1 on its edge
@pytest.mark.parametrize("n", [1, 2, 10, 70, 71, JUMP_MAX_N, JUMP_MAX_N + 1])
@pytest.mark.parametrize("rows, seed_chunk, threads", [(256, 256, "1"), (3, 5, "1"), (2, 3, "3")])
def test_kernel_matches_stage_functions_at_small_n(n, rows, seed_chunk, threads, monkeypatch):
    # the hypothesis cases draw n from 1-3000 and so rarely reach the jump path
    m = 6
    config = SimulationConfig(
        support=SupportSpec(values=tuple(1e6 + 0.25 * k for k in range(m)), stigma=(True,) * m),
        population=PopulationModel(pi=(0.3, 0.0, 0.1, 0.25, 0.0, 0.35)),
        device=Device(p=0.35, m=m),
        n=n,
        replicates=19,
        seed=2**64 + 3,
    )
    monkeypatch.setattr(simulation, "BLOCK_BYTES", rows * simulation.block_row_bytes(n, m))
    monkeypatch.setattr(simulation, "SEED_CHUNK", seed_chunk)
    monkeypatch.setenv("RRKIT_THREADS", threads)
    _assert_records_match_stage_functions(run_replicates(config, keep_replicates=True), config)


def _first_one_row_n(m):
    """The fewest respondents at which a block over m values holds one replicate."""
    n = JUMP_MAX_N + 1
    while simulation.block_rows(n, m) > 1:
        n += 1
    return n


def _boundary_pairs(config):
    """(truth, device) uniform pairs on every edge that counting decides: each
    of the CDF's first m - 1 entries and the double below it, drawn truthfully;
    each forced cut and the double below it; p and the double below it."""
    p = config.device.p

    def below(x):
        return float(np.nextafter(x, 0.0))

    pairs = [(edge, draw) for level in simulation.cdf(config.population)[:-1].tolist()
             for edge in (level, below(level)) for draw in (below(p), 0.0)]
    pairs += [(0.5, draw) for cut in simulation.forced_cuts(config.device)
              for draw in (cut, below(cut))]
    pairs += [(0.0, p), (0.0, below(p))]
    return np.array([pair for pair in pairs if max(pair) < 1.0])  # uniforms lie in [0, 1)


def _splice_boundaries(patch, config):
    """Start the truth and device halves of every replicate's uniforms with
    config's boundary pairs, alike for both paths of the kernel and for the
    stage functions (and so for the replay of replicate 0)."""
    pairs = _boundary_pairs(config)
    n, size = config.n, len(pairs)

    def splice(row):
        row[:size], row[n:n + size] = pairs.T

    fill, jump = simulation._setter_uniforms, simulation._jump_uniforms
    stream = simulation.replicate_stream

    def spliced_fill(states, generator, out):
        fill(states, generator, out)
        for row in out:
            splice(row)

    def spliced_jump(limbs, table, out, sums):
        jump(limbs, table, out, sums)
        for column in out.T:
            splice(column)

    class SplicedStream:
        def __init__(self, seed, replicate):
            self.row = stream(seed, replicate).random(2 * n)
            splice(self.row)

        def random(self, size):
            head, self.row = self.row[:size], self.row[size:]
            return head

    patch.setattr(simulation, "_setter_uniforms", spliced_fill)
    patch.setattr(simulation, "_jump_uniforms", spliced_jump)
    patch.setattr(simulation, "replicate_stream", SplicedStream)


def _with(config, **changes):
    """A new SimulationConfig with the fields of ``config``, less ``changes``."""
    return SimulationConfig(**{**{name: getattr(config, name) for name in config._fields}, **changes})


def _one_row_config(m, p, pi):
    return SimulationConfig(
        support=SupportSpec(values=tuple(2.5 * k - 1e6 for k in range(m)), stigma=(True,) * m),
        population=PopulationModel(pi=pi),
        device=Device(p=p, m=m),
        n=_first_one_row_n(m),
        replicates=5,
        seed=2**127 + 5,
    )


def _zeros_every_third(m):
    weights = np.arange(1.0, m + 1) * (np.arange(m) % 3 != 1)  # zeros repeat CDF entries
    return tuple(weights / weights.sum())


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize(
    "case",
    ["survey_all_stig_m4", "survey_one_nonstig_m3"]
    + [pytest.param((m, p), id=f"m{m}-p{p!r}")
       for m in (2, simulation.CUTS_MAX_M, simulation.CUTS_MAX_M + 1)
       for p in (1e-13, 0.35, 1 - 1e-13)],
)
def test_kernel_matches_stage_functions_at_one_row_n(case, threads, monkeypatch, request):
    """At the first n of one-row blocks, counting by cuts (m up to
    CUTS_MAX_M, down to m = 2, whose broadcast compares one level) and by
    bincount (above it) both equal the stage functions, on streams that hit
    every cut, CDF entry and p, and the double below each."""
    if isinstance(case, str):
        survey = load_survey(request.getfixturevalue(case))
        device, _ = design_device(survey.policy, survey.support)
        config = _with(
            _one_row_config(survey.support.m, device.p, survey.population.pi),
            support=survey.support,
        )
    else:
        m, p = case
        config = _one_row_config(m, p, _zeros_every_third(m))
    monkeypatch.setenv("RRKIT_THREADS", threads)
    _splice_boundaries(monkeypatch, config)
    _assert_records_match_stage_functions(run_replicates(config, keep_replicates=True), config)


def test_each_counter_counts_its_side_of_cuts_max_m(monkeypatch):
    """Every block over at most CUTS_MAX_M values is counted by cuts, and every
    block over more through a bincount, whatever its rows: one, two (the
    first n of one-row blocks, less one, in blocks of two, two and one), or
    many on the jump path."""
    def refuse(*args):
        raise AssertionError("counted on the wrong path")

    top = simulation.CUTS_MAX_M
    for m, other in ((top, "_count_rows"), (top + 1, "_count_by_cuts")):
        for n in (_first_one_row_n(m), _first_one_row_n(m) - 1, JUMP_MAX_N):
            config = _with(_one_row_config(m, 0.3, _zeros_every_third(m)), n=n)
            with monkeypatch.context() as patch:
                patch.setattr(simulation, other, refuse)
                _splice_boundaries(patch, config)
                summary = run_replicates(config, keep_replicates=True)
                _assert_records_match_stage_functions(summary, config)


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(2, simulation.CUTS_MAX_M),
    p=st.one_of(
        st.floats(0.0, 1e-12, exclude_min=True),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(1.0 - 1e-12, 1.0, exclude_max=True),
    ),
    zeros=st.sets(st.integers(0, simulation.CUTS_MAX_M - 1)),
    seed=st.integers(0, 2**32 - 1),
    replicates=st.integers(1, 5),
    jump=st.booleans(),
    n=st.sampled_from([100, 255, 256, 300]),
)
def test_cut_counts_equal_the_bincount_of_stage_indices(m, p, zeros, seed, replicates, jump, n):
    """_count_by_cuts gives the bincount of the stage functions' responses of
    every replicate of a block, of one replicate or several, in the jump
    path's state-major layout or the setter path's row per replicate, on
    random uniforms and on every boundary pair. A count of n fits the
    several-replicate sums at n = 255, in one byte, and at n = 256, in two."""
    weights = [0.0 if k in zeros else 1.0 + k for k in range(m)]
    if not any(weights):
        weights[-1] = 1.0
    config = _one_row_config(m, p, tuple(w / sum(weights) for w in weights))
    config = _with(config, n=n)
    rows = np.random.default_rng(seed).random((replicates, 2 * n))
    pairs = _boundary_pairs(config)
    rows[:, :len(pairs)], rows[:, n:n + len(pairs)] = pairs.T
    expected = []
    for row in rows:
        truth = simulation.inverse_cdf(config.population, row[:n])
        responses = responses_from_uniforms(config.device, truth, row[n:])
        expected.append(np.bincount(responses, minlength=m).tolist())
    arena = simulation._block_arena(replicates, n, m, jump, True)
    u, _, halves, scratch = simulation._block_views(arena, replicates, n, m, jump, True)
    u[...] = rows.T if jump else rows
    got = np.empty((replicates, m), dtype=np.int64)
    levels = simulation._cut_levels(config)
    simulation._count_by_cuts(config, *halves, 0 if jump else 1, scratch, got, levels)
    assert got.tolist() == expected


def _gate_config(n, replicates):
    return SimulationConfig(
        support=SupportSpec(values=(-2.0, 0.5, 7.0), stigma=(True,) * 3),
        population=PopulationModel(pi=(0.2, 0.5, 0.3)),
        device=Device(p=0.3, m=3),
        n=n,
        replicates=replicates,
        seed=4,
    )


def test_thread_count_does_not_choose_the_estimate_path(monkeypatch):
    """At n = 10, m = 3 and 264 replicates, one worker's range holds them all,
    estimated as one seed chunk, and each of three workers' twelve ranges
    holds 22, estimated as one chunk. Every estimate comes from
    estimation.mean_estimates either way, with the same bits."""
    config = _gate_config(10, 264)
    blocks, estimates = {}, {}
    for threads in ("1", "3"):
        rows = []
        inner = estimation.mean_estimates

        def spy(proportions, device, x):
            if proportions.ndim == 2:  # a block, not the replay's one sample
                rows.append(len(proportions))
            return inner(proportions, device, x)

        with monkeypatch.context() as patch:
            patch.setenv("RRKIT_THREADS", threads)
            patch.setattr(estimation, "mean_estimates", spy)
            summary = run_replicates(config, keep_replicates=True)
        blocks[threads] = sorted(rows)
        estimates[threads] = np.array([r.mu_hat for r in summary.records]).tobytes()
        _assert_records_match_stage_functions(summary, config)
    assert blocks == {"1": [264], "3": [22] * 12}
    assert estimates["1"] == estimates["3"]


@pytest.mark.parametrize("p", [1e-13, 0.5e-12, 1 - 1e-13, 1 - 0.5e-12])
def test_kernel_matches_the_stage_functions_at_p_near_0_and_1(p, monkeypatch):
    config = _with(
        _one_row_config(3, p, (0.5, 0.0, 0.5)), n=5, replicates=300, seed=7
    )
    monkeypatch.setenv("RRKIT_THREADS", "1")
    _assert_records_match_stage_functions(run_replicates(config, keep_replicates=True), config)


@pytest.mark.filterwarnings("error")
def test_nan_estimates_keep_their_bits_and_the_run_ends_nonfinite(monkeypatch):
    # (w - q) / p overflows to +-inf at p = 1e-320, and the value 0 times an
    # infinite raw proportion makes the estimate NaN, with no warning; only
    # the counts (5, 5) leave both raw proportions 0
    config = SimulationConfig(
        support=SupportSpec(values=(0.0, 1.0), stigma=(True, True)),
        population=PopulationModel(pi=(0.3, 0.7)),
        device=Device(p=1e-320, m=2),
        n=10,
        replicates=300,
        seed=3,
    )
    mu_hats, counts = np.empty(300), [None] * 300
    simulation.run_block(config, range(300), mu_hats, counts)
    assert np.isnan(mu_hats).tolist() == [c != (5, 5) for c in counts]
    assert (5, 5) in counts
    expected = [estimate_mean(ResponseSample(counts=c), config.device, config.support) for c in counts]
    assert mu_hats.tobytes() == np.array(expected).tobytes()
    monkeypatch.setenv("RRKIT_THREADS", "1")
    with pytest.raises(ValidationError, match="var_mu_theoretical") as e:
        run_replicates(config)
    assert e.value.code == "NONFINITE_RESULT"
    # past a finite theoretical variance, the NaN estimates end the run
    monkeypatch.setattr(estimation, "variance_mean_theoretical", lambda *args: 1.0)
    with pytest.raises(ValidationError, match="mean_mu_hat") as e:
        run_replicates(config)
    assert e.value.code == "NONFINITE_RESULT"


@pytest.mark.filterwarnings("error")
def test_run_near_p_one_with_large_m_raises_no_warning(monkeypatch):
    # truthful draws score below -2**63 here before the cast to an index
    m = 2000
    config = SimulationConfig(
        support=SupportSpec(values=tuple(float(k) for k in range(m)), stigma=(True,) * m),
        population=PopulationModel(pi=(1.0 / m,) * m),
        device=Device(p=0.9999999999999999, m=m),
        n=50,
        replicates=3,
        seed=31,
    )
    for threads in ("1", "2"):
        monkeypatch.setenv("RRKIT_THREADS", threads)
        _assert_records_match_stage_functions(run_replicates(config, keep_replicates=True), config)


def _kernel_stages_script():
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "kernel_stages.py"
    spec = importlib.util.spec_from_file_location("kernel_stages", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_stages_script_checks_and_times_the_kernel(capsys):
    """scripts/kernel_stages.py checks the kernel's estimates against
    estimate_mean bit for bit and times the kernel's own functions, each
    stage of which a run must reach, in blocks of many replicates and of
    one."""
    script = _kernel_stages_script()
    kernel = {key: getattr(*key) for key in script.TIMED}
    for config in (script.config_for(3, 3, 200), script.config_for(6_000, 3, 3)):
        script.check(config)
        seconds = script.timed_pass(config)
        assert all(seconds[s] > 0 for s in ("seeding", "uniforms", "counting", "estimate"))
    assert {key: getattr(*key) for key in script.TIMED} == kernel
    script.main(["--n", "3", "--m", "3", "--replicates", "200", "--repeats", "1"])
    out = capsys.readouterr().out
    assert "jump path, bincount" in out and "agree bit for bit" in out


def test_kernel_stages_script_refuses_estimates_that_are_not_estimate_means(monkeypatch):
    script = _kernel_stages_script()
    inner = estimation.mean_estimates

    def batched(proportions, device, x):
        # one ulp off past a block's first row, as a sum over the block might
        # be; replicate 0 keeps its bits, so the kernel's own check passes
        out = inner(proportions, device, x)
        if proportions.ndim == 2:
            out[1:] = np.nextafter(out[1:], np.inf)
        return out

    monkeypatch.setattr(estimation, "mean_estimates", batched)
    with pytest.raises(SystemExit, match="replicate 1: kernel"):
        script.check(script.config_for(3, 3, 20))


def test_kernel_self_check_catches_a_seeding_fault(config3, monkeypatch):
    original = simulation.replicate_words
    monkeypatch.setattr(
        simulation, "replicate_words", lambda seed, start, stop: original(seed + 1, start, stop)
    )
    # the setter path (n = 200) and the jump path both seed through replicate_words
    for n in (config3.n, JUMP_MAX_N):
        with pytest.raises(RuntimeError, match="replicate 0"):
            run_replicates(_with(config3, n=n))


def test_block_rows_fit_block_bytes_with_the_count_cells():
    # the benchmark's shapes: mc_small_n (n = 10, m = 4) on the jump path in
    # blocks of many, mc_large_n (n = 50 000, m = 3) in blocks of one, both
    # in chunks of SEED_CHUNK
    assert simulation.block_rows(10, 4) == 528
    assert simulation.block_rows(50_000, 3) == 1
    assert simulation.chunk_rows(3) == simulation.chunk_rows(4) == 2048
    for n, m in ((10, 1000), (10, 350_000), (JUMP_MAX_N, 3), (JUMP_MAX_N + 1, 3), (500, 3000)):
        rows = simulation.block_rows(n, m)
        assert rows == 1 or rows * simulation.block_row_bytes(n, m) <= simulation.BLOCK_BYTES
        assert (rows + 1) * simulation.block_row_bytes(n, m) > simulation.BLOCK_BYTES or (
            rows == simulation.SEED_CHUNK
        )


def test_block_arenas_fit_the_planned_bytes_of_their_rows():
    """The arena that run_block allocates for a block, its uniforms with the
    limb sums on the jump path and the cut planes up to CUTS_MAX_M
    (2(m - 1) + 1 bool planes per replicate, in blocks of every size), fits
    with the block's count cells in BLOCK_BYTES, or, in a block of one
    replicate, in the bytes of its row. Above CUTS_MAX_M the arena holds no
    counting scratch: the index arrays are temporaries."""
    top = simulation.CUTS_MAX_M
    for m in (2, 3, top, top + 1, 1000):
        for n in (1, 10, JUMP_MAX_N, JUMP_MAX_N + 1, 500, 5_000, _first_one_row_n(m), 50_000):
            rows = simulation.block_rows(n, m)
            arena = simulation._block_arena(rows, n, m, n <= JUMP_MAX_N, m <= top)
            cells = rows * m * simulation.BYTES_PER_BLOCK_COUNT
            room = max(simulation.BLOCK_BYTES, simulation.block_row_bytes(n, m))
            assert arena.nbytes + cells <= room, (m, n)


def test_block_layout_is_rows_times_one_replicates_share():
    """A block's arena, its cut planes included, is k times a block of one's,
    on both paths and with either counter, so the planes of counting by cuts
    do not depend on the block's rows."""
    top = simulation.CUTS_MAX_M
    for m in (2, 3, top, top + 1, 40):
        for n in (1, 10, JUMP_MAX_N, JUMP_MAX_N + 1, 500, 6_000):
            for jump in (True, False):
                one = simulation._block_layout(1, n, m, jump)
                assert one[2] == (2 * m - 1 if m <= top else 0), (m, n, jump)
                for k in range(1, 5):
                    layout = simulation._block_layout(k, n, m, jump)
                    assert layout[:3] == one[:3] and layout[3] == k * one[3], (k, m, n, jump)


def test_seed_chunks_fit_block_bytes_with_their_count_cells():
    assert simulation.chunk_rows(4) == simulation.SEED_CHUNK >= 2000  # mc_small_n in one chunk
    assert simulation.chunk_rows(350_000) == 1
    for m in (2, 3, 4, 1000, 2730, 2731, 350_000):
        rows = simulation.chunk_rows(m)
        assert rows == 1 or rows * m * simulation.BYTES_PER_BLOCK_COUNT <= simulation.BLOCK_BYTES
        for n in (1, 10, JUMP_MAX_N, JUMP_MAX_N + 1, 500, 50_000):
            assert rows >= simulation.block_rows(n, m)


def test_memory_plan_at_m_350_000_holds_one_row_of_counts():
    # 256 rows of 350 000 count cells planned 4.30 GB before m capped the rows
    assert simulation.block_rows(10, 350_000) == 1
    planned = simulation.planned_bytes(10, 350_000, 256, 1, False)
    assert planned == (
        simulation._block_arena(1, 10, 350_000, True, False).nbytes
        + 10 * simulation.BYTES_PER_INDEX_RESPONDENT
        + simulation.WORKER_FIXED_BYTES
        + 350_000 * simulation.BYTES_PER_BLOCK_COUNT
        + simulation.SEED_CHUNK * simulation.BYTES_PER_SEED
        + simulation._jump_table(10).nbytes
        + 256 * simulation.BYTES_PER_RESULT
    )
    assert planned < 20 * 2**20
    simulation._check_memory(10, 350_000, 256, 1, False)


def _assert_plan_covers_traced_peak(cfg, monkeypatch):
    """Run cfg serially with and without records under tracemalloc; each
    peak must stay within the memory plan. Returns the summary with records."""
    monkeypatch.setenv("RRKIT_THREADS", "1")
    for keep in (False, True):
        run_replicates(cfg, keep_replicates=keep)  # caches filled outside the trace
        tracemalloc.start()
        try:
            summary = run_replicates(cfg, keep_replicates=keep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= simulation.planned_bytes(cfg.n, cfg.support.m, cfg.replicates, 1, keep)
    return summary


@pytest.mark.parametrize(
    "n, replicates", [(10, 3000), (JUMP_MAX_N, 3000), (500, 3000), (50_000, 20)]
)
def test_memory_plan_covers_the_traced_peak(support3, pop3, monkeypatch, n, replicates):
    cfg = SimulationConfig(
        support=support3, population=pop3, device=Device(p=0.3, m=3), n=n,
        replicates=replicates, seed=2,
    )
    _assert_plan_covers_traced_peak(cfg, monkeypatch)


@pytest.mark.parametrize(
    "m, n, replicates",
    [
        (1000, 500, 3000),  # kept counts tuples of m entries, all small ints
        (1000, 10, 768),  # three full blocks of 256 replicates by m cells
        (1000, 10, 10),  # one block, of which 10 rows hold replicates
        (100, 50_000, 100),  # counts near 500: an int object per kept count
        (16, 500, 3000),  # counted by cuts, with the most scratch per respondent
        (16, 50_000, 20),  # counted by cuts in blocks of one replicate, all 31 planes
        (17, JUMP_MAX_N, 3000),  # index arrays on the jump path, beside its limb sums
    ],
)
def test_memory_plan_covers_the_traced_peak_at_large_m(monkeypatch, m, n, replicates):
    cfg = SimulationConfig(
        support=SupportSpec(values=tuple(float(k) for k in range(m)), stigma=(True,) * m),
        population=PopulationModel(pi=(1.0 / m,) * m),
        device=Device(p=0.3, m=m),
        n=n,
        replicates=replicates,
        seed=2,
    )
    summary = _assert_plan_covers_traced_peak(cfg, monkeypatch)
    if n == 50_000:
        assert min(min(r.counts) for r in summary.records) > 256


@settings(max_examples=40, deadline=None)
@given(
    m=st.one_of(st.integers(2, simulation.CUTS_MAX_M), st.integers(simulation.CUTS_MAX_M + 1, 64)),
    n=st.one_of(st.integers(1, JUMP_MAX_N), st.integers(JUMP_MAX_N + 1, 3000)),
    rows=st.integers(1, 4),
)
@example(m=17, n=JUMP_MAX_N, rows=40)  # index arrays on the jump path, beside its limb sums
def test_one_block_peaks_within_its_plan(m, n, rows):
    """A run of one block of ``rows`` replicates in one seed chunk, on either
    path and with either counter, peaks under tracemalloc within its memory
    plan: the larger of the replay of replicate 0 and the block (its arena
    and, through a bincount, its index arrays), the fixed allowance for
    numpy's ufunc buffers, and the chunk's count cells and seeds. The jump
    table, built before the trace and kept by its cache, is left out of the
    plan. The explicit case, a jump-path block of 40 rows over 17 values,
    holds its index arrays beside its limb sums."""
    config = SimulationConfig(
        support=SupportSpec(values=tuple(float(k) for k in range(m)), stigma=(True,) * m),
        population=PopulationModel(pi=(1.0 / m,) * m),
        device=Device(p=0.3, m=m),
        n=n,
        replicates=rows,
        seed=2,
    )
    with mock.patch.object(simulation, "BLOCK_BYTES", rows * simulation.block_row_bytes(n, m)), \
            mock.patch.object(simulation, "SEED_CHUNK", rows), \
            mock.patch.dict(os.environ, {"RRKIT_THREADS": "1"}):
        assert simulation.block_rows(n, m) == simulation.chunk_rows(m) == rows
        run_replicates(config)  # caches filled outside the trace
        tracemalloc.start()
        try:
            run_replicates(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        planned = simulation.planned_bytes(n, m, rows, 1, False)
    if n <= JUMP_MAX_N:
        planned -= simulation._jump_table(n).nbytes
    assert peak <= planned


# --- law of the counts ----------------------------------------------------------


def _wilson_hilferty(df, z):
    """The chi-squared quantile with df degrees of freedom at standard normal
    quantile z, by the Wilson-Hilferty cube-root approximation."""
    a = 2.0 / (9.0 * df)
    return df * (1.0 - a + z * math.sqrt(a)) ** 3


# one-sided standard normal quantile of 1e-6, fixed before the runs
LAW_Z = 4.753


# True draws on the jump path and False on the setter path, each counted by
# bincount; "cuts" draws on the jump path in blocks of many replicates and
# "one-row cuts" in blocks of one, each counted by cuts
@pytest.mark.parametrize("path", [True, False, "cuts", "one-row cuts"])
def test_simulated_counts_follow_the_multinomial_law(path, monkeypatch):
    """Under the paper's model a replicate's counts are Multinomial(n, lambda)
    with lambda = p pi + (1 - p) / m, and replicates are independent. At n = 6,
    m = 3 (28 count vectors) the G statistic of the vectors' frequencies
    against oracle.enumeration_distribution stays below a Wilson-Hilferty
    threshold, and so does the lag-1 correlation of the estimates."""
    n, R = 6, 40_000
    config = SimulationConfig(
        support=SupportSpec(values=(0.0, 1.0, 2.0), stigma=(True,) * 3),
        population=PopulationModel(pi=(0.5, 0.3, 0.2)),
        device=Device(p=0.4, m=3),
        n=n,
        replicates=R,
        seed=2**64 + 17,
    )
    lam = oracle.response_distribution_oracle(config.device, config.population)
    law = oracle.enumeration_distribution(n, lam)
    assert len(law) == 28

    def refuse(*args):
        raise AssertionError("drawn on the wrong path")

    monkeypatch.setattr(simulation, "JUMP_MAX_N", JUMP_MAX_N if path else n - 1)
    monkeypatch.setattr(simulation, "_setter_uniforms" if path else "_jump_uniforms", refuse)
    if path in (True, False):
        monkeypatch.setattr(simulation, "CUTS_MAX_M", 2)
        monkeypatch.setattr(simulation, "_count_by_cuts", refuse)
    else:
        monkeypatch.setattr(simulation, "_count_rows", refuse)
    if path == "one-row cuts":
        monkeypatch.setattr(simulation, "BLOCK_BYTES", simulation.block_row_bytes(n, 3))
    else:
        assert simulation.block_rows(n, 3) > 1
    monkeypatch.setenv("RRKIT_THREADS", "1")
    summary = run_replicates(config, keep_replicates=True)
    seen = collections.Counter(r.counts for r in summary.records)
    assert set(seen) <= {counts for counts, _ in law}
    g = 2.0 * sum(seen[counts] * math.log(seen[counts] / (R * prob))
                  for counts, prob in law if seen[counts])
    assert g <= _wilson_hilferty(len(law) - 1, LAW_Z)
    mu = np.array([r.mu_hat for r in summary.records])
    lag1 = np.corrcoef(mu[:-1], mu[1:])[0, 1]
    assert abs(lag1) <= LAW_Z / math.sqrt(R)


# --- golden digests of the v1 stream --------------------------------------------

# simulate --replicate-csv at one shape per side of the kernel: (n, R) =
# (10, 600) on the jump path and (151, 50) on the setter path, in blocks of
# many replicates, and (6 000, 4) on the setter path in blocks of a few (of
# one when these digests were pinned; the stream does not depend on the
# rows), each on both shipped surveys and so counted by cuts; and the same
# three shapes ((6 000, 3) for the last) on a 17-value survey, above
# CUTS_MAX_M, counted by bincount. The shipped surveys' (10, 600) and (151, 50) digests date from
# when those blocks were counted by bincount too, so they pin the cuts
# counter to the bincount's counts. Each case pins the SHA-256 of the CSV
# and the float.hex of mean_mu_hat, var_mu_hat_empirical, mu_x,
# var_mu_theoretical and variance_ratio. mu_x and var_mu_theoretical are sums
# of Python floats (math.fsum and estimation._row_sum), with no BLAS dot, so
# their bits are the same on every numpy build.
GOLDEN_SEED = 12345
GOLDEN_STREAM = {
    ("m4", 10, 600): (
        "e5aae6b816165aaad8eedbf1969e5c791c2c159581b4cb6a6479a9230c3f1b5d",
        "0x1.d5cfaacd9e83ap-1", "0x1.45c97eea800eep+3",
        "0x1.0000000000000p+0", "0x1.4a70a3d70a3d9p+3", "0x1.f8ca61eb44cacp-1",
    ),
    ("m3", 10, 600): (
        "0ceb7ebdb116a029fdbb0a1391d49e5cdbb0b0ebd1fb8bfd6de67fb1f2d52243",
        "0x1.4840719881fa9p-1", "0x1.3f460085a9879p+1",
        "0x1.6666666666666p-1", "0x1.3ef9db22d0e58p+1", "0x1.003d1cc5aca15p+0",
    ),
    ("m4", 151, 50): (
        "71c1e49c79658e4174cafa1f768dba670764889f45d4c881c750aff8a24c35fd",
        "0x1.f9ba26a78081dp-1", "0x1.cd3c176247514p-1",
        "0x1.0000000000000p+0", "0x1.5e2295dec5574p-1", "0x1.513ae73b1e9b1p+0",
    ),
    ("m3", 151, 50): (
        "8d3caf4ffa85e0a4fb371b5b60ebc534ff2dd3b2e9690c389687f5f85bf49692",
        "0x1.633830ef5bb9bp-1", "0x1.bf303a182f9e6p-3",
        "0x1.6666666666666p-1", "0x1.51fce16a66ac1p-3", "0x1.52b60b21025f2p+0",
    ),
    ("m4", 6_000, 4): (
        "cf0e10ca452d5556125d4ea4cefc7f467d2514a0ae629b7d7cb1db7ba14ddebb",
        "0x1.0caf4f0d844cep+0", "0x1.47c86e5cc8337p-7",
        "0x1.0000000000000p+0", "0x1.19f9b82ef7ac0p-6", "0x1.299673a0dee95p-1",
    ),
    ("m3", 6_000, 4): (
        "36b52506dd455f114be8bace9d20958918b69642f85c2dc65921dc9dae491508",
        "0x1.6e1edb45c4be4p-1", "0x1.645e2bb74f6f1p-8",
        "0x1.6666666666666p-1", "0x1.10315ed607978p-8", "0x1.4f2adaae968c1p+0",
    ),
    ("m17", 10, 600): (
        "b2da4bbf1523307e75d1f3578bddda8eecf99fb12629a5bff2bc5b608ba7144f",
        "0x1.59c28f5c28f5ep+3", "0x1.bec83bd3512a8p+4",
        "0x1.5ec27b09ec27bp+3", "0x1.a70e11e684b97p+4", "0x1.0e5b9cb1748cbp+0",
    ),
    ("m17", 151, 50): (
        "6a1d1bb910d00745b631c66586f69e1d10c576027a95ce31cc9a138ee1091065",
        "0x1.64fcb8e860bfbp+3", "0x1.0ec0a75745e8cp+1",
        "0x1.5ec27b09ec27bp+3", "0x1.c0452901d2252p+0", "0x1.353eb8b570226p+0",
    ),
    ("m17", 6_000, 3): (
        "c59dbf6f18df5efb3f76e384a0440695020c0f098594cb3817ef81825f155c6a",
        "0x1.60fbd401845c9p+3", "0x1.897b0b2301401p-6",
        "0x1.5ec27b09ec27bp+3", "0x1.6901c42e85bcfp-5", "0x1.17072cdfd34c0p-1",
    ),
}


def _golden_survey(name, tmp_path, request):
    """The survey file of a golden case and the arguments it takes: a shipped
    survey at its designed p, or 17 values, three with no mass, at p = 0.3."""
    if name == "m3":
        return [str(request.getfixturevalue("survey_one_nonstig_m3"))]
    if name == "m4":
        return [str(request.getfixturevalue("survey_all_stig_m4"))]
    weights = [0.0 if k % 5 == 2 else k + 1.0 for k in range(17)]
    doc = {
        "values": list(range(17)),
        "stigmatizing": [True] * 17,
        "pi": [w / sum(weights) for w in weights],
    }
    path = tmp_path / "m17.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return [str(path), "--p", "0.3"]


@pytest.mark.parametrize("case", list(GOLDEN_STREAM), ids=lambda c: "-".join(map(str, c)))
def test_simulate_reproduces_the_golden_v1_stream(case, tmp_path, capsys, request):
    name, n, replicates = case
    csv = tmp_path / "replicates.csv"
    survey = _golden_survey(name, tmp_path, request)
    argv = ["simulate", "--survey", *survey, "--n", str(n), "--replicates", str(replicates),
            "--seed", str(GOLDEN_SEED), "--replicate-csv", str(csv)]
    assert cli.main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    got = (
        hashlib.sha256(csv.read_bytes()).hexdigest(),
        doc["mean_mu_hat"].hex(),
        doc["var_mu_hat_empirical"].hex(),
        doc["mu_x"].hex(),
        doc["var_mu_theoretical"].hex(),
        doc["variance_ratio"].hex(),
    )
    assert got == GOLDEN_STREAM[case]
