#!/usr/bin/env python3
"""Where does a replicate of the simulate kernel spend its time, stage by stage?

    PYTHONPATH=src python scripts/kernel_stages.py [--n N] [--m M] [--replicates R] [--repeats K]

Runs ``simulation.run_block`` over R replicates of n respondents over m values
(uniform population, p = 0.3, seed 31) and prints the microseconds per
replicate of each stage, the best of K passes. The stages are the kernel's
own functions, timed through wrappers set on their modules for the pass:

- seeding: ``replicate_words`` on the jump path, ``replicate_states`` on the
  setter path;
- uniforms: ``_jump_uniforms`` or ``_setter_uniforms``;
- counting: ``_count_rows``, or ``_count_by_cuts`` for one-row blocks;
- estimate: ``estimation.mean_estimates``, once per block (and once for the
  replay of replicate 0);
- rest: the rest of ``run_block`` (its allocations, the replay of replicate
  0, the loop);
- reduce: the mean and variance of the estimates.

Before timing, the script checks that every kernel estimate equals
``estimation.estimate_mean`` of the replicate's counts bit for bit. Each
wrapper adds a fraction of a microsecond per call to the stage it times.
"""

import argparse
import contextlib
import time

import numpy as np

from rrkit import Device, PopulationModel, ResponseSample, SupportSpec, estimation, simulation

STAGES = ("seeding", "uniforms", "counting", "estimate", "rest", "reduce")
# the kernel's functions, by module and name, each timed as the stage it belongs to
TIMED = {
    (simulation, "replicate_words"): "seeding",
    (simulation, "replicate_states"): "seeding",
    (simulation, "_jump_uniforms"): "uniforms",
    (simulation, "_setter_uniforms"): "uniforms",
    (simulation, "_count_rows"): "counting",
    (simulation, "_count_by_cuts"): "counting",
    (estimation, "mean_estimates"): "estimate",
}


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
def timed_stages(seconds):
    """Add each call's seconds to its stage in ``seconds``."""
    clock = time.perf_counter

    def wrap(inner, stage):
        def timed(*args):
            start = clock()
            try:
                return inner(*args)
            finally:
                seconds[stage] += clock() - start

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
    timed = sum(seconds[s] for s in ("seeding", "uniforms", "counting", "estimate"))
    seconds["rest"] = total - timed
    return seconds


def check(config):
    """Every kernel estimate must equal estimate_mean of its replicate's
    counts, bit for bit."""
    mu_hats, counts = np.empty(config.replicates), [None] * config.replicates
    simulation.run_block(config, range(config.replicates), mu_hats, counts)
    for i, (got, c) in enumerate(zip(mu_hats.tolist(), counts)):
        expected = estimation.estimate_mean(ResponseSample(counts=c), config.device, config.support)
        if got.hex() != expected.hex():
            raise SystemExit(f"replicate {i}: kernel {got!r} vs estimate_mean {expected!r}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=10)
    parser.add_argument("--m", type=int, default=4)
    parser.add_argument("--replicates", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args(argv)
    config = config_for(args.n, args.m, args.replicates)
    n, m, R = config.n, config.support.m, config.replicates
    check(config)
    best = dict.fromkeys(STAGES + ("total",), float("inf"))
    for _ in range(args.repeats):
        seconds = timed_pass(config)
        seconds["total"] = sum(seconds.values())
        best = {name: min(best[name], seconds[name]) for name in best}
    rows = simulation.block_rows(n, m)
    path = "jump" if n <= simulation.JUMP_MAX_N else "setter"
    counter = "cuts" if rows == 1 and m <= simulation.CUTS_MAX_M else "bincount"
    print(f"n = {n}, m = {m}, R = {R}: {path} path, {counter}, block rows {rows}")
    print("the kernel's estimates and estimate_mean's agree bit for bit")
    print(f"us per replicate, best of {args.repeats} passes")
    for name in STAGES + ("total",):
        print(f"  {name:<10}{best[name] / R * 1e6:10.3f}")


if __name__ == "__main__":
    main()
