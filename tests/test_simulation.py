"""Seeded Monte Carlo replication: stream derivation, determinism, calibration."""

import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrkit import (
    Device,
    PopulationModel,
    SimulationConfig,
    SupportSpec,
    ValidationError,
    simulation,
)
from rrkit.estimation import estimate_mean
from rrkit.simulation import (
    MAX_THREADS,
    POOL_MIN_N,
    replicate_states,
    replicate_stream,
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


def test_default_is_serial_below_pool_min_n_and_a_thread_per_cpu_at_it(monkeypatch):
    monkeypatch.delenv("RRKIT_THREADS", raising=False)
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: 6)
    assert thread_count(100, POOL_MIN_N - 1) == 1
    assert thread_count(100, 10) == 1
    assert thread_count(100) == 1
    assert thread_count(100, POOL_MIN_N) == 6
    assert thread_count(4, POOL_MIN_N) == 4  # never more workers than replicates
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: None)
    assert thread_count(100, POOL_MIN_N) == 1


def test_env_overrides_the_default_in_both_directions(monkeypatch):
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: 6)
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
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: 2)
    assert thread_count(cfg.replicates, cfg.n) == 2
    assert run_replicates(cfg, keep_replicates=True) == serial


def test_memory_budget_counts_workers_and_kept_results(support3, pop3, monkeypatch):
    cfg = SimulationConfig(
        support=support3, population=pop3, device=Device(p=0.3, m=3), n=100,
        replicates=4, seed=0,
    )
    planned = (
        simulation.block_rows(100) * 100 * simulation.BYTES_PER_RESPONDENT
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


def test_stream_consumption_order_is_pinned(support3, pop3):
    """Replicate i draws n truth uniforms, then n device uniforms, from
    stream (seed, i). Reconstructing by hand must give the same counts."""
    from rrkit.device import draw_responses

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
    block_bytes = rows * config.n * simulation.BYTES_PER_RESPONDENT
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
    monkeypatch.setattr(simulation, "BLOCK_BYTES", rows * config.n * simulation.BYTES_PER_RESPONDENT)
    monkeypatch.setattr(simulation, "SEED_CHUNK", seed_chunk)
    monkeypatch.setenv("RRKIT_THREADS", "2")
    _assert_records_match_stage_functions(run_replicates(config, keep_replicates=True), config)


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


def test_kernel_self_check_catches_a_seeding_fault(config3, monkeypatch):
    original = simulation.replicate_states
    monkeypatch.setattr(
        simulation, "replicate_states", lambda seed, start, stop: original(seed + 1, start, stop)
    )
    with pytest.raises(RuntimeError, match="replicate 0"):
        run_replicates(config3)


@pytest.mark.parametrize("n, replicates", [(10, 3000), (500, 3000), (50_000, 20)])
def test_memory_plan_covers_the_traced_peak(support3, pop3, monkeypatch, n, replicates):
    cfg = SimulationConfig(
        support=support3, population=pop3, device=Device(p=0.3, m=3), n=n,
        replicates=replicates, seed=2,
    )
    monkeypatch.setenv("RRKIT_THREADS", "1")
    for keep in (False, True):
        run_replicates(cfg, keep_replicates=keep)  # caches filled outside the trace
        tracemalloc.start()
        try:
            run_replicates(cfg, keep_replicates=keep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= simulation.planned_bytes(n, replicates, 1, keep)
