#!/usr/bin/env python3
"""Where does `rrkit verify` spend its time, check by check, and stage by stage inside the two grid searches?

    PYTHONPATH=src python scripts/verify_stages.py [--grid-step STEP,...] [--repeats K]

For each grid step given, the script runs
``verification.run_verification(STEP)`` K times in this process and prints
the microseconds of each of its checks, the best of the K passes. Inside the two checks that search the simplex grid
(``alpha_guarantee_tight`` and ``beta_guarantee_tight``) it splits the time
into stages, timed through wrappers set on their modules for the pass:

- lattice: ``oracle._search_blocks``, taking the search's input. Where the
  lattice fits one block, the whole input (the lattice, the witness
  appended, the mass filter applied) is built once per process and then
  served from a cache, so after the first pass this is the cache lookup;
  a streamed lattice is built, appended to and filtered block by block here;
- validate + renormalize: ``privacy._population_columns``, which checks the
  points by the population rules and divides them by their sums. It
  remembers the columns of a frozen input, so after the first pass this is
  the lookup of that memo;
- posterior + fold: the rest of ``privacy.alpha_values`` or
  ``beta_values``: the posterior rows, each folded into the running max or
  min as it forms, and alpha's reduced-form self-check;
- reduce: the rest of ``oracle.simplex_grid_search``: its arguments checked
  and the argmax over the values;
- rest: the rest of the check, which measures the witness population one at
  a time.

Below the table, where the lattice fits one block, it times one cold build
of each search's input: the lattice, the witness, the filter and the
validation, with every cache emptied first.

Before timing, the script checks that the timed run reports the same checks,
outcomes and details as an untimed one, and exits non-zero if it does not.
Each wrapper adds a fraction of a microsecond per call to the stage it times.
"""

import argparse
import contextlib
import math
import time
from collections import defaultdict

from rrkit import Device, model, oracle, privacy, verification

GRID_CHECKS = ("alpha_guarantee_tight", "beta_guarantee_tight")
STAGES = ("lattice", "validate + renormalize", "posterior + fold", "reduce", "rest")
# the functions whose calls are timed, by module and name, each as the span it measures
SPANS = {
    (oracle, "simplex_grid_search"): "search",
    (privacy, "alpha_values"): "objective",
    (privacy, "beta_values"): "objective",
    (privacy, "_population_columns"): "validate + renormalize",
}


def check_functions():
    """The names of verification's checks, each a ``_check_*`` function that
    run_verification looks up in its module when it runs."""
    return sorted(name for name in vars(verification) if name.startswith("_check_"))


@contextlib.contextmanager
def patched(replacements):
    saved = {key: getattr(*key) for key in replacements}
    for (module, name), wrapper in replacements.items():
        setattr(module, name, wrapper)
    try:
        yield
    finally:
        for (module, name), inner in saved.items():
            setattr(module, name, inner)


def timed_pass(step):
    """One run_verification; returns the report, the check functions in the
    order they ran, the seconds of each (check function, span) pair, with
    "total" as the check's own span, and the arguments with which each
    check took its grid search's input."""
    clock = time.perf_counter
    seconds, running, searches = defaultdict(float), [None], {}

    def timed_check(inner, name):
        def timed(*args):
            running[0] = name
            start = clock()
            try:
                return inner(*args)
            finally:
                seconds[name, "total"] += clock() - start

        return timed

    def timed_span(inner, span):
        def timed(*args, **kwargs):
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                seconds[running[0], span] += clock() - start

        return timed

    def timed_blocks(inner):
        # the blocks of a streamed lattice are built as they are taken
        def timed(*args):
            searches[running[0]] = args
            blocks = iter(inner(*args))
            while True:
                start = clock()
                block = next(blocks, None)
                seconds[running[0], "lattice"] += clock() - start
                if block is None:
                    return
                yield block

        return timed

    replacements = {
        (verification, name): timed_check(getattr(verification, name), name)
        for name in check_functions()
    }
    replacements.update({key: timed_span(getattr(*key), span) for key, span in SPANS.items()})
    replacements[oracle, "_search_blocks"] = timed_blocks(oracle._search_blocks)
    with patched(replacements):
        report = verification.run_verification(step)
    order = list(dict.fromkeys(name for name, _ in seconds))
    return report, order, seconds, searches


def stages(seconds, name):
    """The stages of one grid check, from the spans timed inside it."""
    def span(key):
        return seconds[name, key]

    return {
        "lattice": span("lattice"),
        "validate + renormalize": span("validate + renormalize"),
        "posterior + fold": span("objective") - span("validate + renormalize"),
        "reduce": span("search") - span("objective") - span("lattice"),
        "rest": span("total") - span("search"),
    }


def input_build_us(args, repeats):
    """Best-of-K microseconds to build one grid search's input afresh and
    validate it, from the arguments it took its input with, every cache
    emptied first; None where the lattice streams in blocks and is never
    cached."""
    k, m = args[:2]
    if math.comb(k + m - 1, m - 1) > oracle._block_rows(m):
        return None
    device = Device(p=0.5, m=m)  # _population_columns reads only its m
    best = math.inf
    for _ in range(repeats):
        oracle._lattice.cache_clear()
        oracle._search_input.cache_clear()
        model._REMEMBERED.clear()
        start = time.perf_counter()
        (columns,) = oracle._search_blocks(*args)
        privacy._population_columns(device, columns.T)
        best = min(best, time.perf_counter() - start)
    return best * 1e6


def report(step, repeats):
    plain = verification.run_verification(step).to_json_dict()
    passes = []
    for _ in range(repeats):
        result, order, seconds, searches = timed_pass(step)
        if result.to_json_dict() != plain:
            raise SystemExit("the timed run reports differently from the untimed one")
        passes.append(seconds)
    if not plain["passed"]:
        raise SystemExit("verification failed; the timings would describe a broken build")
    names = [check["name"] for check in plain["checks"]]
    if len(names) != len(order):
        raise SystemExit(f"{len(names)} checks reported, {len(order)} timed")
    print(f"grid step {step}: us per check, best of {repeats} passes")
    total = 0.0
    for name, function in zip(names, order):
        best = min(s[function, "total"] for s in passes) * 1e6
        total += best
        print(f"  {name:<28}{best:12.1f}")
        if name in GRID_CHECKS:
            per_stage = [stages(s, function) for s in passes]
            for stage in STAGES:
                print(f"    {stage:<26}{min(p[stage] for p in per_stage) * 1e6:12.1f}")
    print(f"  {'sum of the checks':<28}{total:12.1f}")
    builds = {
        name: input_build_us(searches[function], repeats)
        for name, function in zip(names, order)
        if name in GRID_CHECKS
    }
    if None in builds.values():
        print("the lattice streams in blocks, built afresh by each search")
    else:
        print(
            "building the lattice, once per process, with each search's witness, "
            f"filter and validation, best of {repeats}: "
            + ", ".join(f"{name} {us:.1f} us" for name, us in builds.items())
        )


def main(argv=None) -> None:
    def steps(text):
        return [float(v) for v in text.split(",")]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid-step", type=steps, default=[0.01], help="a comma list")
    parser.add_argument("--repeats", type=int, default=20)
    args = parser.parse_args(argv)
    for step in args.grid_step:
        report(step, args.repeats)


if __name__ == "__main__":
    main()
