#!/usr/bin/env python3
"""Where does a replicate of the simulate kernel spend its time, stage by stage, on each side of its forks?

    PYTHONPATH=src python scripts/kernel_stages.py [--n N,...] [--m M,...] [--replicates R] [--repeats K]

The kernel, ``simulation.run_block``, forks twice on a run's shape. It draws
each block's uniforms on the jump path up to ``simulation.JUMP_MAX_N``
respondents and on the setter path above it; and it counts every block over
at most ``simulation.CUTS_MAX_M`` values by cuts, and every block over more
through a bincount. For each n and m given, the script runs ``run_block``
over R replicates (uniform population, p = 0.3, seed 31) on each side of
each fork: both stream paths, by setting ``JUMP_MAX_N`` to n or n - 1 for the
pass, each with both counters, by setting ``CUTS_MAX_M`` to m or m - 1. The
side the kernel takes with its own limits is marked with ``*``. A shape
whose serial run, with its counts kept, is over the memory budget is
refused, as ``run_replicates`` would refuse it, before anything runs.

Before timing, the script checks that every side gives the same estimates and
counts bit for bit, and that every estimate equals
``estimation.estimate_mean`` of its replicate's counts bit for bit. It then
times the sides in turn, K passes each, each pass led by the next side, and
prints the microseconds per replicate of each stage, the best of the K
passes. The stages are the kernel's own functions, timed through wrappers set
on their modules for the pass:

- tables: ``_cut_levels``, the cdf and the cut points that counting by
  cuts compares with, or ``_search_levels``, the levels of the binary search
  that counting through a bincount reads, once per range (and once for the
  replay of replicate 0);
- seeding: ``replicate_words`` (numpy's SeedSequence pool of the seed, and
  the spawn word's mixing re-derived over the chunk) and the cast of its
  limbs (``_jump_limbs``) on the jump path, ``replicate_states``, which
  calls ``replicate_words``, on the setter path, once per seed chunk;
- uniforms: ``_jump_uniforms`` or ``_setter_uniforms``, once per block;
- counting: ``_count_rows`` or ``_count_by_cuts``, once per block;
- estimate: ``estimation.mean_estimates``, once per seed chunk (and once for
  the replay of replicate 0);
- rest: the rest of ``run_block`` (its allocations, the replay of replicate
  0, the loop);
- reduce: the mean and variance of the estimates.

Under each table, ``jump/setter`` is the median over the passes of the jump
path's total over the setter path's, with each counter that ran on both, and
``cuts/bincount`` the same on each path. These ratios of paired passes place
a crossing that best-of-K columns, drawn on a shared host, may not. Each
wrapper adds a fraction of a microsecond per call to the stage it times.
"""

import argparse
import contextlib
import itertools
import statistics
import time

import numpy as np

from rrkit import (
    Device, PopulationModel, ResponseSample, SupportSpec, ValidationError, estimation, simulation,
)

STAGES = ("tables", "seeding", "uniforms", "counting", "estimate", "rest", "reduce")
# the kernel's functions, by module and name, each timed as the stage it belongs to
TIMED = {
    (simulation, "_cut_levels"): "tables",
    (simulation, "_search_levels"): "tables",
    (simulation, "replicate_words"): "seeding",
    (simulation, "_jump_limbs"): "seeding",
    (simulation, "replicate_states"): "seeding",
    (simulation, "_jump_uniforms"): "uniforms",
    (simulation, "_setter_uniforms"): "uniforms",
    (simulation, "_count_rows"): "counting",
    (simulation, "_count_by_cuts"): "counting",
    (estimation, "mean_estimates"): "estimate",
}
# each fork's two branches, the first taken where its flag is set; a side of
# the kernel is a pair of flags (jump, cuts), one branch of each fork
FORKS = (("jump", "setter"), ("cuts", "bincount"))


def config_for(n, m, replicates):
    return simulation.SimulationConfig(
        support=SupportSpec(values=tuple(float(k) for k in range(m)), stigma=(True,) * m),
        population=PopulationModel(pi=(1.0 / m,) * m),
        device=Device(p=0.3, m=m),
        n=n,
        replicates=replicates,
        seed=31,
    )


@contextlib.contextmanager
def forced(config, side):
    """Make run_block take ``side`` on ``config``'s n and m."""
    n, m = config.n, config.support.m
    saved = simulation.JUMP_MAX_N, simulation.CUTS_MAX_M
    simulation.JUMP_MAX_N = n if side[0] else n - 1
    simulation.CUTS_MAX_M = m if side[1] else m - 1
    try:
        yield
    finally:
        simulation.JUMP_MAX_N, simulation.CUTS_MAX_M = saved


def sides():
    """The sides run_block can take at any n and m: both stream paths, each
    with both counters."""
    return list(itertools.product((True, False), repeat=2))


def label(side):
    """The side's stream path and counter, as in FORKS."""
    return " ".join(names[not flag] for names, flag in zip(FORKS, side))


@contextlib.contextmanager
def timed_stages(seconds):
    """Add each call's seconds to its stage in ``seconds``, once: a timed
    function called inside another, as ``replicate_states`` calls
    ``replicate_words``, counts in the outer call's stage alone."""
    clock = time.perf_counter
    running = False

    def wrap(inner, stage):
        def timed(*args):
            nonlocal running
            if running:
                return inner(*args)
            running = True
            start = clock()
            try:
                return inner(*args)
            finally:
                seconds[stage] += clock() - start
                running = False

        return timed

    saved = {key: getattr(*key) for key in TIMED}
    for (module, name), stage in TIMED.items():
        setattr(module, name, wrap(saved[module, name], stage))
    try:
        yield
    finally:
        for (module, name), inner in saved.items():
            setattr(module, name, inner)


def timed_pass(config):
    """One run_block over every replicate; returns the seconds per stage."""
    seconds = dict.fromkeys(STAGES, 0.0)
    mu_hats = np.empty(config.replicates)
    with timed_stages(seconds):
        start = time.perf_counter()
        simulation.run_block(config, range(config.replicates), mu_hats, None)
        total = time.perf_counter() - start
    start = time.perf_counter()
    mu_hats.mean(), mu_hats.var(ddof=1)
    seconds["reduce"] = time.perf_counter() - start
    timed = sum(seconds[stage] for stage in set(TIMED.values()))
    seconds["rest"] = total - timed
    return seconds


def check(config):
    """Every kernel estimate must equal estimate_mean of its replicate's
    counts, bit for bit; returns the estimates and the counts."""
    mu_hats, counts = np.empty(config.replicates), [None] * config.replicates
    simulation.run_block(config, range(config.replicates), mu_hats, counts)
    for i, (got, c) in enumerate(zip(mu_hats.tolist(), counts)):
        expected = estimation.estimate_mean(ResponseSample(counts=c), config.device, config.support)
        if got.hex() != expected.hex():
            raise SystemExit(f"replicate {i}: kernel {got!r} vs estimate_mean {expected!r}")
    return mu_hats.tobytes(), counts


def paired_passes(config, found, repeats):
    """Seconds per stage of ``repeats`` passes on each side, the sides taken
    in turn and each pass led by the next side."""
    passes = {side: [] for side in found}
    for i in range(repeats):
        lead = i % len(found)
        for side in found[lead:] + found[:lead]:
            with forced(config, side):
                seconds = timed_pass(config)
            seconds["total"] = sum(seconds.values())
            passes[side].append(seconds)
    return passes


def median_ratios(passes, fork):
    """For each side on the fork's first branch whose twin on the second (the
    side that differs in this fork alone) ran: the side's branch of the other
    fork, and the median over the passes of the two sides' total times."""
    for side, first in passes.items():
        twin = side[:fork] + (False,) + side[fork + 1:]
        if side[fork] and twin in passes:
            ratios = [a["total"] / b["total"] for a, b in zip(first, passes[twin])]
            yield FORKS[1 - fork][not side[1 - fork]], statistics.median(ratios)


def report(config, repeats):
    n, m, R = config.n, config.support.m, config.replicates
    chosen = (n <= simulation.JUMP_MAX_N, m <= simulation.CUTS_MAX_M)
    found = sides()
    print(f"n = {n}, m = {m}, R = {R}: chunk rows {simulation.chunk_rows(m)}")
    results = {}
    for side in found:
        with forced(config, side):
            results[side] = check(config)
            rows = simulation.block_rows(n, m)
        path, counter = label(side).split()
        print(f"{'*' if side == chosen else ' '} {path} path, {counter}, block rows {rows}")
    for side in found[1:]:
        if results[side] != results[found[0]]:
            raise SystemExit(f"n = {n}, m = {m}: {label(side)} and {label(found[0])} differ")
    print("both sides of each fork give the same estimates and counts bit for bit")
    print("the kernel's estimates and estimate_mean's agree bit for bit")
    passes = paired_passes(config, found, repeats)
    print(f"us per replicate, best of {repeats} passes, the sides in turn")
    print(f"  {'':<10}" + "".join(f"{label(side):>17}" for side in found))
    for name in STAGES + ("total",):
        best = [min(s[name] for s in passes[side]) / R * 1e6 for side in found]
        print(f"  {name:<10}" + "".join(f"{us:17.3f}" for us in best))
    for fork, names in enumerate(FORKS):
        ratios = [f"{ratio:.2f} ({other})" for other, ratio in median_ratios(passes, fork)]
        if ratios:
            print(f"  {'/'.join(names)}: {', '.join(ratios)}; medians of the paired passes")


def main(argv=None) -> None:
    def sizes(text):
        return [int(v) for v in text.split(",")]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=sizes, default=[10], help="respondents, a comma list")
    parser.add_argument("--m", type=sizes, default=[4], help="support sizes, a comma list")
    parser.add_argument("--replicates", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.replicates < 2:
        parser.error("--replicates must be at least 2: the reduce stage takes a sample variance")
    try:
        configs = [config_for(n, m, args.replicates) for n, m in itertools.product(args.n, args.m)]
        # refused as run_replicates would refuse a serial run that keeps its counts
        for config in configs:
            simulation._check_memory(config.n, config.support.m, args.replicates, 1, True)
    except ValidationError as e:
        parser.error(str(e))
    print(f"JUMP_MAX_N = {simulation.JUMP_MAX_N}, CUTS_MAX_M = {simulation.CUTS_MAX_M}")
    for config in configs:
        report(config, args.repeats)


if __name__ == "__main__":
    main()
