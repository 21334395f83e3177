#!/usr/bin/env python3
"""Where does a replicate of the simulate kernel spend its time, stage by stage?

    PYTHONPATH=src python scripts/kernel_stages.py [--n N] [--m M] [--replicates R] [--repeats K]

Runs ``simulation.run_block`` over R replicates of n respondents over m values
(uniform population, p = 0.3, seed 31) once with the estimate memo and once
with a dot per row, alternating, and prints the microseconds per replicate of
each path's stages, the best of K passes. The stages are the kernel's own
functions, timed through wrappers set on the module for the pass:

- seeding: ``replicate_words`` on the jump path, ``replicate_states`` on the
  setter path;
- uniforms: ``_jump_uniforms`` or ``_setter_uniforms``;
- counting: ``_count_rows``, or ``_count_by_cuts`` for one-row blocks;
- estimate: ``_estimate_by_memo``, and within it the fills (its calls of
  ``_estimate_rows``, one dot per count vector it had not seen); or one dot
  per row (``_estimate_rows``);
- rest: the rest of ``run_block`` (its allocations, the replay of replicate
  0, the loop);
- reduce: the mean and variance of the estimates.

The memo is kept whether or not ``simulation.memo_codes`` admits it at n and m
(where a block holds one row there is none to share), so that both sides of
its gate can be timed. Before timing, the script checks that both paths give
the same estimates bit for bit, and replicate 0 ``estimation.estimate_mean``'s.
Each wrapper adds a fraction of a microsecond per call to the stage it times.
"""

import argparse
import contextlib
import os
import time

import numpy as np

from rrkit import Device, PopulationModel, SupportSpec, estimation, simulation

STAGES = ("seeding", "uniforms", "counting", "estimate", "fills", "rest", "reduce")
# the kernel's functions, each timed as the stage it belongs to
TIMED = {
    "replicate_words": "seeding",
    "replicate_states": "seeding",
    "_jump_uniforms": "uniforms",
    "_setter_uniforms": "uniforms",
    "_count_rows": "counting",
    "_count_by_cuts": "counting",
    "_estimate_by_memo": "estimate",
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


@contextlib.contextmanager
def estimate_path(n, m, memo):
    """Make run_block keep an estimate memo over every code (memo) or none."""
    saved = simulation.memo_codes
    if memo:
        simulation.memo_codes = lambda n, m, r: (n + 1) ** (m - 1) if simulation.block_rows(n, m) > 1 else 0
    else:
        simulation.memo_codes = lambda n, m, r: 0
    try:
        yield
    finally:
        simulation.memo_codes = saved


@contextlib.contextmanager
def timed_stages(seconds, fills):
    """Add each call's seconds to its stage in ``seconds``; count in
    ``fills[0]`` the rows that the memo hands to ``_estimate_rows``, whose
    time goes to "fills" as well as to "estimate"."""
    clock = time.perf_counter
    in_memo = [False]

    def wrap(name, stage):
        inner = getattr(simulation, name)

        def timed(*args):
            nested = name == "_estimate_rows" and in_memo[0]
            if name == "_estimate_by_memo":
                in_memo[0] = True
            start = clock()
            try:
                return inner(*args)
            finally:
                elapsed = clock() - start
                if name == "_estimate_by_memo":
                    in_memo[0] = False
                if nested:
                    seconds["fills"] += elapsed
                    fills[0] += len(args[1])
                else:
                    seconds[stage] += elapsed

        return timed

    saved = {name: getattr(simulation, name) for name in TIMED}
    for name, stage in TIMED.items():
        setattr(simulation, name, wrap(name, stage))
    try:
        yield
    finally:
        for name, inner in saved.items():
            setattr(simulation, name, inner)


def timed_pass(config, memo):
    """One run_block over every replicate; returns the seconds per stage, the
    memo's fills and the estimates."""
    seconds, fills = dict.fromkeys(STAGES, 0.0), [0]
    mu_hats = np.empty(config.replicates)
    with estimate_path(config.n, config.support.m, memo), timed_stages(seconds, fills):
        start = time.perf_counter()
        simulation.run_block(config, range(config.replicates), mu_hats, None)
        total = time.perf_counter() - start
    start = time.perf_counter()
    mu_hats.mean(), mu_hats.var(ddof=1)
    seconds["reduce"] = time.perf_counter() - start
    seconds["rest"] = total - sum(seconds[s] for s in ("seeding", "uniforms", "counting", "estimate"))
    return seconds, fills[0], mu_hats


def check(config):
    """Both estimate paths must give the same estimates, and replicate 0
    estimate_mean's, bit for bit."""
    mu_hats = {}
    for memo in (True, False):
        with estimate_path(config.n, config.support.m, memo):
            mu_hats[memo] = np.empty(config.replicates)
            simulation.run_block(config, range(config.replicates), mu_hats[memo], None)
    expected = estimation.estimate_mean(
        simulation.simulate_survey(config, 0), config.device, config.support
    )
    if mu_hats[False][0].hex() != expected.hex():
        raise SystemExit(f"replicate 0: per-row dot {mu_hats[False][0]!r} vs estimate_mean {expected!r}")
    if mu_hats[True].tobytes() != mu_hats[False].tobytes():
        raise SystemExit(f"memoised estimates differ from the per-row dots at n={config.n}, m={config.support.m}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=10)
    parser.add_argument("--m", type=int, default=4)
    parser.add_argument("--replicates", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args()
    os.environ["RRKIT_THREADS"] = "1"
    config = config_for(args.n, args.m, args.replicates)
    n, m, R = config.n, config.support.m, config.replicates
    check(config)
    paths = (True, False) if simulation.block_rows(n, m) > 1 else (False,)
    best = {memo: dict.fromkeys(STAGES + ("total",), float("inf")) for memo in paths}
    for _ in range(args.repeats):
        for memo in paths:
            seconds, fills, _ = timed_pass(config, memo)
            if memo:
                memo_fills = fills
            seconds["total"] = sum(seconds.values()) - seconds["fills"]
            best[memo] = {name: min(best[memo][name], seconds[name]) for name in best[memo]}
    rows = simulation.block_rows(n, m)
    path = "jump" if n <= simulation.JUMP_MAX_N else "setter"
    counter = "cuts" if rows == 1 and m <= simulation.CUTS_MAX_M else "bincount"
    gate = "keeps a memo" if simulation.memo_codes(n, m, R) else "keeps no memo"
    print(f"n = {n}, m = {m}, R = {R}: {path} path, {counter}, block rows {rows}; the gate {gate}")
    if True in paths:
        print(f"memo and row dots agree bit for bit; the memo filled {memo_fills} of {R} rows")
    print(f"us per replicate, best of {args.repeats} passes")
    print(f"  {'stage':<10}" + "".join(f"{'memo' if memo else 'row dots':>10}" for memo in paths))
    for name in STAGES + ("total",):
        if name != "fills" or True in paths:
            cells = "".join(
                f"{best[memo][name] / R * 1e6:10.3f}" if memo or name != "fills" else f"{'':>10}"
                for memo in paths
            )
            print(f"  {name:<10}{cells}")


if __name__ == "__main__":
    main()
