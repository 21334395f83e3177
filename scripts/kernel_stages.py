#!/usr/bin/env python3
"""Where does a replicate of the simulate kernel spend its time, stage by stage?

    PYTHONPATH=src python scripts/kernel_stages.py [--n N] [--m M] [--replicates R] [--repeats K]

Runs ``simulation.run_block`` over R replicates of n respondents over m values
(uniform population, p = 0.3, seed 31) once reading the run's estimate table
and once with a dot per row, alternating, and prints the microseconds per
replicate of each path's stages, the best of K passes. The stages are the
kernel's own functions, timed through wrappers set on the module for the pass:

- fill: ``_estimate_table``, once per pass of the table path, as
  ``run_replicates`` builds it before any block is drawn;
- seeding: ``replicate_words`` on the jump path, ``replicate_states`` on the
  setter path;
- uniforms: ``_jump_uniforms`` or ``_setter_uniforms``;
- counting: ``_count_rows``, or ``_count_by_cuts`` for one-row blocks;
- estimate: ``_estimate_by_table``, a gather per block; or one dot per row
  (``_estimate_rows``);
- rest: the rest of ``run_block`` (its allocations, the replay of replicate
  0, the loop);
- reduce: the mean and variance of the estimates.

The table is built whether or not ``simulation.memo_codes`` admits it at R
(only its cap on bytes holds), so that both sides of the gate can be timed.
Before timing, the script checks that both paths give the same estimates bit
for bit, and replicate 0 ``estimation.estimate_mean``'s. Each wrapper adds a
fraction of a microsecond per call to the stage it times.
"""

import argparse
import contextlib
import dataclasses
import time

import numpy as np

from rrkit import Device, PopulationModel, SupportSpec, estimation, simulation

STAGES = ("fill", "seeding", "uniforms", "counting", "estimate", "rest", "reduce")
# the kernel's functions, each timed as the stage it belongs to
TIMED = {
    "replicate_words": "seeding",
    "replicate_states": "seeding",
    "_jump_uniforms": "uniforms",
    "_setter_uniforms": "uniforms",
    "_count_rows": "counting",
    "_count_by_cuts": "counting",
    "_estimate_by_table": "estimate",
    "_estimate_rows": "estimate",
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


def estimate_table(config):
    """The run's estimate table, whatever the replicates per count vector;
    None where the table would pass its cap on bytes."""
    return simulation._estimate_table(dataclasses.replace(config, replicates=2**62))


@contextlib.contextmanager
def timed_stages(seconds):
    """Add each call's seconds to its stage in ``seconds``."""
    clock = time.perf_counter

    def wrap(name, stage):
        inner = getattr(simulation, name)

        def timed(*args):
            start = clock()
            try:
                return inner(*args)
            finally:
                seconds[stage] += clock() - start

        return timed

    saved = {name: getattr(simulation, name) for name in TIMED}
    for name, stage in TIMED.items():
        setattr(simulation, name, wrap(name, stage))
    try:
        yield
    finally:
        for name, inner in saved.items():
            setattr(simulation, name, inner)


def timed_pass(config, table):
    """The table's fill (where ``table``) and one run_block over every
    replicate; returns the seconds per stage and the estimates."""
    seconds = dict.fromkeys(STAGES, 0.0)
    mu_hats = np.empty(config.replicates)
    estimates = None
    if table:
        start = time.perf_counter()
        estimates = estimate_table(config)
        seconds["fill"] = time.perf_counter() - start
    with timed_stages(seconds):
        start = time.perf_counter()
        simulation.run_block(config, range(config.replicates), mu_hats, None, estimates)
        total = time.perf_counter() - start
    start = time.perf_counter()
    mu_hats.mean(), mu_hats.var(ddof=1)
    seconds["reduce"] = time.perf_counter() - start
    seconds["rest"] = total - sum(seconds[s] for s in ("seeding", "uniforms", "counting", "estimate"))
    return seconds, mu_hats


def check(config):
    """Both estimate paths must give the same estimates, and replicate 0
    estimate_mean's, bit for bit; returns whether the table path exists at
    this n and m."""
    def run(estimates):
        mu_hats = np.empty(config.replicates)
        simulation.run_block(config, range(config.replicates), mu_hats, None, estimates)
        return mu_hats

    by_rows = run(None)
    expected = estimation.estimate_mean(
        simulation.simulate_survey(config, 0), config.device, config.support
    )
    if by_rows[0].hex() != expected.hex():
        raise SystemExit(f"replicate 0: per-row dot {by_rows[0]!r} vs estimate_mean {expected!r}")
    estimates = estimate_table(config)
    if estimates is not None and run(estimates).tobytes() != by_rows.tobytes():
        raise SystemExit(f"table estimates differ from the per-row dots at n={config.n}, m={config.support.m}")
    return estimates is not None


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=10)
    parser.add_argument("--m", type=int, default=4)
    parser.add_argument("--replicates", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args(argv)
    config = config_for(args.n, args.m, args.replicates)
    n, m, R = config.n, config.support.m, config.replicates
    paths = (True, False) if check(config) else (False,)
    best = {table: dict.fromkeys(STAGES + ("total",), float("inf")) for table in paths}
    for _ in range(args.repeats):
        for table in paths:
            seconds, _ = timed_pass(config, table)
            seconds["total"] = sum(seconds.values())
            best[table] = {name: min(best[table][name], seconds[name]) for name in best[table]}
    rows = simulation.block_rows(n, m)
    path = "jump" if n <= simulation.JUMP_MAX_N else "setter"
    counter = "cuts" if rows == 1 and m <= simulation.CUTS_MAX_M else "bincount"
    gate = "keeps a table" if simulation.memo_codes(n, m, R) else "keeps no table"
    print(f"n = {n}, m = {m}, R = {R}: {path} path, {counter}, block rows {rows}; the gate {gate}")
    if True in paths:
        print("the table and the row dots agree bit for bit")
    print(f"us per replicate, best of {args.repeats} passes")
    print(f"  {'stage':<10}" + "".join(f"{'table' if table else 'row dots':>10}" for table in paths))
    for name in STAGES + ("total",):
        print(f"  {name:<10}" + "".join(f"{best[table][name] / R * 1e6:10.3f}" for table in paths))


if __name__ == "__main__":
    main()
