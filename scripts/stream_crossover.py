#!/usr/bin/env python3
"""Where does the jump-ahead v1 stream stop paying?

    PYTHONPATH=src python scripts/stream_crossover.py [--replicates R] [--repeats K] [--m M]

``simulate`` fills each block of replicates with their 2n uniforms in one of
two ways: by setting one generator's PCG64 state to each replicate's in turn
(the setter path), or by computing every state from the seeds directly (the
jump path, used up to ``simulation.JUMP_MAX_N`` respondents). This script
first checks that both give ``Generator.random``'s bits for a few seeds and
replicate ranges. It then prints, per n and path, the microseconds per
replicate of seeding plus uniforms, in the seed chunks and block rows the
kernel gives each path at m values, and of the whole serial kernel
(``run_replicates`` with ``RRKIT_THREADS=1``, uniform population, p = 0.3),
each the best of K passes over R replicates. The two paths are timed in
turn, K times, so that both see the same load; beside each pair of columns
``j/s`` is the median of the K jump/setter ratios, which resolves the
crossing where the best-of-K columns, drawn on a shared host, may not. The
jump path's larger scratch leaves it fewer rows per block, so the kernel
columns cross at a lower n than the stream columns; ``JUMP_MAX_N`` is set
from the kernel columns.
"""

import argparse
import contextlib
import os
import statistics
import time

import numpy as np

from rrkit import Device, PopulationModel, SupportSpec, simulation

SIZES = (1, 10, 30, 50, 60, 70, 80, 90, 100, 500)


@contextlib.contextmanager
def path(n, jump):
    """Make the kernel take the jump (or the setter) path at n respondents."""
    saved, simulation.JUMP_MAX_N = simulation.JUMP_MAX_N, n if jump else n - 1
    try:
        yield
    finally:
        simulation.JUMP_MAX_N = saved


def rows(n, m, jump):
    """Block rows the kernel gives a path at n respondents over m values."""
    with path(n, jump):
        return simulation.block_rows(n, m)


def setter_fill(seed, start, stop, n, m):
    """Uniforms of replicates start..stop-1 through the setter path."""
    out = np.empty((stop - start, 2 * n))
    generator = np.random.Generator(np.random.PCG64(0))
    step = rows(n, m, jump=False)
    for chunk in range(start, stop, simulation.chunk_rows(m)):
        end = min(chunk + simulation.chunk_rows(m), stop)
        states = simulation.replicate_states(seed, chunk, end)
        for lo in range(0, end - chunk, step):
            k = min(step, end - chunk - lo)
            at = chunk - start + lo
            simulation._setter_uniforms(states[lo:lo + k], generator, out[at:at + k])
    return out


def jump_fill(seed, start, stop, n, m):
    """Uniforms of replicates start..stop-1 through the jump path."""
    out = np.empty((stop - start, 2 * n))
    step = rows(n, m, jump=True)
    table, scratch = simulation._jump_table(n), simulation._jump_scratch(step, n)
    for chunk in range(start, stop, simulation.chunk_rows(m)):
        end = min(chunk + simulation.chunk_rows(m), stop)
        limbs = simulation._jump_limbs(simulation.replicate_words(seed, chunk, end))
        for lo in range(0, end - chunk, step):
            k = min(step, end - chunk - lo)
            at = chunk - start + lo
            simulation._jump_uniforms(limbs[lo:lo + k], table, out[at:at + k], scratch)
    return out


def check(m):
    """Both paths must give Generator.random's uniforms, bit for bit."""
    for seed in (0, 2**32 + 1, 2**64 + 3, 2**127 + 3):
        for start in (0, 2**32 - 300):
            for n in SIZES:
                stop = start + 300
                setter, jump = setter_fill(seed, start, stop, n, m), jump_fill(seed, start, stop, n, m)
                if setter.tobytes() != jump.tobytes():
                    raise SystemExit(f"paths differ: seed {seed}, replicates {start}.., n {n}")
                for r in (0, 1, 255, 299):
                    expected = simulation.replicate_stream(seed, start + r).random(2 * n)
                    if expected.tobytes() != jump[r].tobytes():
                        raise SystemExit(f"Generator.random differs: seed {seed}, replicate {start + r}, n {n}")


def paired_us(setter, jump, replicates, repeats):
    """Each path's best microseconds per replicate over ``repeats`` passes
    that time the two in turn, first one then the other leading, and the
    median of the passes' jump/setter ratios."""
    setter(), jump()  # tables and caches built outside the timing
    times = ([], [])
    for i in range(repeats):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for side in order:
            start = time.perf_counter()
            (setter, jump)[side]()
            times[side].append(time.perf_counter() - start)
    ratio = statistics.median(j / s for s, j in zip(*times))
    return min(times[0]) / replicates * 1e6, min(times[1]) / replicates * 1e6, ratio


def kernel(n, m, replicates, jump):
    """A serial run_replicates on the given path."""
    config = simulation.SimulationConfig(
        support=SupportSpec(values=tuple(float(k) for k in range(m)), stigma=(True,) * m),
        population=PopulationModel(pi=(1.0 / m,) * m),
        device=Device(p=0.3, m=m),
        n=n,
        replicates=replicates,
        seed=31,
    )

    def run():
        with path(n, jump):
            simulation.run_replicates(config)

    return run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replicates", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--m", type=int, default=4, help="support size, for the block rows")
    args = parser.parse_args()
    os.environ["RRKIT_THREADS"] = "1"
    check(args.m)
    R, m = args.replicates, args.m
    print(f"bit-identical to Generator.random on both paths; JUMP_MAX_N = {simulation.JUMP_MAX_N}")
    print(f"us per replicate, best of {args.repeats} x {R} replicates, m = {m}; "
          f"j/s: median jump/setter ratio of the {args.repeats} passes")
    print(f"{'':>5} {'seeding + uniforms':>25} {'whole kernel':>25}")
    print(f"{'n':>5}" + f" {'setter':>9} {'jump':>9} {'j/s':>5}" * 2 + f" {'rows s/j':>10}")
    for n in SIZES:
        stream = paired_us(
            lambda: setter_fill(31, 0, R, n, m), lambda: jump_fill(31, 0, R, n, m), R, args.repeats
        )
        whole = paired_us(kernel(n, m, R, False), kernel(n, m, R, True), R, args.repeats)
        print(f"{n:>5}" + "".join(f" {s:>9.2f} {j:>9.2f} {r:>5.2f}" for s, j, r in (stream, whole))
              + f" {rows(n, m, False):>5}/{rows(n, m, True)}")


if __name__ == "__main__":
    main()
