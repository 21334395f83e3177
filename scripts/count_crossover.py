#!/usr/bin/env python3
"""Where does counting by cuts stop paying?

    PYTHONPATH=src python scripts/count_crossover.py [--repeats K] [--rows R]

``simulate`` counts a block of replicates in one of two ways: through index
arrays and a bincount (``simulation._count_rows``), or, for a block of one
replicate, by comparing its uniforms with the CDF and the device's forced
cuts (``simulation._count_by_cuts``, used up to ``simulation.CUTS_MAX_M``
values). This script first checks that both give the same counts for a few
populations (zeros in pi included), p from near 0 to near 1, and every m and
n below. It then prints, per m and n, the microseconds per replicate each
counter takes over R fixed rows of uniforms, one row per call, each the best
of K passes; and the bincount counter once more over the rows a block holds
at that n and m, one call per block, which is what runs there today.
``CUTS_MAX_M`` is set from the one-row columns at n = 5 500, just above the
n from which blocks hold one replicate: the cuts' cost grows with m, and
their lead over the bincount is smallest at the smallest n.
"""

import argparse
import time

import numpy as np

from rrkit import Device, PopulationModel, SupportSpec, simulation

MS = (2, 3, 4, 8, 16, 24, 32)
NS = (2_000, 5_500, 16_000, 50_000)


def config(n, m, p=0.3, pi=None):
    return simulation.SimulationConfig(
        support=SupportSpec(values=tuple(float(k) for k in range(m)), stigma=(True,) * m),
        population=PopulationModel(pi=pi or (1.0 / m,) * m),
        device=Device(p=p, m=m),
        n=n,
        replicates=1,
        seed=0,
    )


def bincount_counter(cfg, rows):
    """Count ``rows`` rows per call through index arrays and a bincount."""
    n, m = cfg.n, cfg.support.m
    scratch = [np.empty((rows, n), dtype=np.int64), np.empty((rows, n), dtype=np.int64),
               np.empty((rows, n), dtype=bool), np.empty((rows, n))]
    offsets = np.arange(0, rows * m, m)[:, None]

    def count(u):
        k = len(u)
        return simulation._count_rows(cfg, u, offsets[:k], [a[:k] for a in scratch])

    return count


def cuts_counter(cfg):
    """Count one row per call by comparisons against the cut points, paired
    once, as the kernel pairs them once per range."""
    scratch = (np.empty(cfg.n, dtype=bool), np.empty(cfg.n, dtype=bool))
    levels = simulation._cut_levels(cfg)
    return lambda u: simulation._count_by_cuts(cfg, u[0], scratch, levels=levels)


def check():
    """Both counters must give the same counts, row by row."""
    rng = np.random.default_rng(5)
    for m in MS:
        weights = rng.random(m) * (np.arange(m) % 3 != 1)  # zeros repeat CDF entries
        pi = tuple(weights / weights.sum())
        for p in (1e-12, 0.3, 0.9, 1 - 1e-12):
            for n in (1, 7, 2_000):
                cfg = config(n, m, p, pi)
                u = rng.random((4, 2 * n))
                expected = bincount_counter(cfg, 4)(u)
                cuts = cuts_counter(cfg)
                got = np.concatenate([cuts(u[r:r + 1]) for r in range(4)])
                if not np.array_equal(got, expected):
                    raise SystemExit(f"counters differ: m {m}, p {p!r}, n {n}")


def best_us(count, u, step, repeats):
    """Microseconds per row of ``count`` over ``u``, ``step`` rows per call."""
    best = float("inf")
    for _ in range(repeats + 1):  # the first pass warms caches
        start = time.perf_counter()
        for lo in range(0, len(u), step):
            count(u[lo:lo + step])
        best = min(best, time.perf_counter() - start)
    return best / len(u) * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--rows", type=int, default=20, help="rows of uniforms timed per pass")
    args = parser.parse_args()
    check()
    print(f"both counters agree; CUTS_MAX_M = {simulation.CUTS_MAX_M}")
    print(f"us per replicate, best of {args.repeats} x {args.rows} rows")
    print(f"{'m':>3} {'n':>6} {'cuts':>9} {'bincount':>9} {'blocked':>9} {'rows':>5}")
    rng = np.random.default_rng(31)
    for m in MS:
        for n in NS:
            cfg = config(n, m)
            u = rng.random((args.rows, 2 * n))
            rows = simulation.block_rows(n, m)
            cells = (
                best_us(cuts_counter(cfg), u, 1, args.repeats),
                best_us(bincount_counter(cfg, 1), u, 1, args.repeats),
                best_us(bincount_counter(cfg, rows), u, rows, args.repeats),
            )
            print(f"{m:>3} {n:>6}" + "".join(f" {c:>9.1f}" for c in cells) + f" {rows:>5}")


if __name__ == "__main__":
    main()
