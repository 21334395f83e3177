"""rrkit benchmark: end-to-end CLI metrics on four workloads, and a traced run
that gives per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is a closed loop: one client issues one CLI command at a time and waits
for it. ``RRKIT_THREADS`` is removed from the environment, so the simulate
pool runs its default ``os.cpu_count()`` workers. Commands go through
``rrkit.cli.main(argv)`` in this process (``mc_*``, ``verify_fine_grid``) or
``python -m rrkit`` in a fresh interpreter (``cli_session``), and every
output is checked by ``checks.py``, which does not import rrkit.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics: the workload runs once untraced, alternating default and
single-worker commands, and once under the probes of ``tracer.py``. The
last line of standard output is the JSON result; the lines before it are a
readable report. See README.md in this directory for what each metric and
workload is for.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Iterable, Iterator

import checks
import tracer as tracing
from tracer import A, B, END, ID, NAME, PARENT, START

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SURVEYS = ROOT / "surveys"
WORK = HERE / ".work"
SURVEY_FILES = ("all_stigmatizing_m4.json", "one_nonstigmatizing_m3.json")
THREADS_ENV = "RRKIT_THREADS"

# fresh interpreters timed per run for setup_s, cli.import_s and cli.interpreter_s
SETUP_SAMPLES = 11
# a tail percentile needs this many samples beyond it
TAIL_MIN_BEYOND = 10
COMMAND_TIMEOUT_S = 120
# share of a traced run spent untraced; the traced rest keeps every span in memory
UNTRACED_SHARE = 0.75


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "simulate", "verify" or "session"
    tail_pct: int  # fixed per workload, so op_s_tail compares like with like across commits
    survey: str = ""
    n: int = 0
    replicates: int = 0
    grid_step: float = 0.0
    calibration: str = "python"  # the MachineSpeed loop that tracks what dominates its commands

    @property
    def fresh_process(self) -> bool:
        return self.kind == "session"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc_small_n", "simulate", 90, survey=SURVEY_FILES[0], n=10, replicates=2000),
        Workload("mc_large_n", "simulate", 90, survey=SURVEY_FILES[1], n=50_000, replicates=200,
                 calibration="numpy"),
        Workload("verify_fine_grid", "verify", 75, grid_step=0.01),
        Workload("cli_session", "session", 90),
    )
}

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclasses.dataclass
class Op:
    """One CLI command, the check its output must pass, and the work it completes."""

    argv: list[str]
    check: Callable[[int, str], str | None]
    work: int = 1
    prepare: Callable[[], None] | None = None


def survey_path(name: str) -> str:
    return str(SURVEYS / name)


@functools.cache
def survey(name: str) -> checks.Survey:
    return checks.Survey.load(survey_path(name))


def simulate_op(name: str, n: int, replicates: int, seed: int) -> Op:
    return Op(
        ["simulate", "--survey", survey_path(name), "--n", str(n),
         "--replicates", str(replicates), "--seed", str(seed)],
        functools.partial(checks.check_simulate, survey=survey(name), n=n,
                          replicates=replicates, seed=seed),
        work=replicates,
    )


def survey_ops(name: str) -> list[Op]:
    """`design --survey` and `privacy --survey` on one survey file."""
    return [
        Op(["design", "--survey", survey_path(name)],
           functools.partial(checks.check_design_survey, survey=survey(name))),
        Op(["privacy", "--survey", survey_path(name)],
           functools.partial(checks.check_privacy, survey=survey(name))),
    ]


def counts_op(rng: random.Random, name: str) -> Op:
    """`estimate` on a counts file drawn from ``rng``, written just before the command runs."""
    counts = [rng.randint(20, 400) for _ in range(survey(name).m)]
    path = WORK / f"counts-{os.getpid()}.json"
    return Op(
        ["estimate", "--survey", survey_path(name), "--counts", str(path)],
        functools.partial(checks.check_estimate, survey=survey(name), counts=counts),
        prepare=lambda: path.write_text(json.dumps(counts), encoding="utf-8"),
    )


def make_ops(workload: Workload, seed: int) -> Iterator[Op]:
    """The workload's endless command sequence; the same seed gives the same commands."""
    rng = random.Random(seed)
    for cycle in itertools.count():
        if workload.kind == "simulate":
            yield simulate_op(workload.survey, workload.n, workload.replicates, rng.getrandbits(31))
        elif workload.kind == "verify":
            yield Op(["verify", "--grid-step", repr(workload.grid_step)], checks.check_verify)
        else:
            yield Op(["design", "--m", "4", "--xi", "0.1"],
                     functools.partial(checks.check_design_m, m=4, xi=0.1))
            for name in SURVEY_FILES:
                yield from survey_ops(name)
            yield Op(["table"], checks.check_table)
            yield counts_op(rng, SURVEY_FILES[cycle % 2])


def reference_ops(seed: int) -> list[Op]:
    """One small command per layer group, traced when a workload's own commands
    never reach a layer, so that every per-layer metric is measured on every run."""
    rng = random.Random(seed)
    return [
        simulate_op(SURVEY_FILES[0], 10, 200, rng.getrandbits(31)),
        Op(["verify", "--grid-step", "0.05"], checks.check_verify),
        *survey_ops(SURVEY_FILES[0]),
        *survey_ops(SURVEY_FILES[1]),
        counts_op(rng, SURVEY_FILES[0]),
    ]


# --- running commands -------------------------------------------------------

def child_env(threads: str | None = None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    if threads is not None:
        env[THREADS_ENV] = threads
    return env


def run_child(args: list[str], threads: str | None = None) -> tuple[int, str, float]:
    """Run ``python ARGS`` in a fresh interpreter; return (exit code, stdout, wall seconds)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(threads), capture_output=True,
        text=True, timeout=COMMAND_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, time.perf_counter() - start


def run_in_process(argv: list[str], threads: str | None = None) -> tuple[int, str, float]:
    from rrkit import cli

    out, err = io.StringIO(), io.StringIO()
    if threads is not None:
        os.environ[THREADS_ENV] = threads
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            rc = cli.main(argv)
            elapsed = time.perf_counter() - start
    finally:
        os.environ.pop(THREADS_ENV, None)
    return rc, out.getvalue(), elapsed


def run_fresh(argv: list[str], threads: str | None = None) -> tuple[int, str, float]:
    return run_child(["-m", "rrkit", *argv], threads)


class Tally:
    """Attempted and failed commands across every phase of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def run(self, op: Op, execute, **kwargs) -> float | None:
        """Run one command and check it; its wall seconds, or None if it failed."""
        self.attempted += 1
        try:
            if op.prepare is not None:
                op.prepare()
            rc, stdout, elapsed = execute(op.argv, **kwargs)
            reason = op.check(rc, stdout)
        except Exception as exc:  # noqa: BLE001 - a command that raises is a failed operation
            reason = f"raised {exc!r}"
        if reason is None:
            return elapsed
        self.failed += 1
        self.reasons.append(f"{' '.join(op.argv)}: {reason}")
        return None


@dataclasses.dataclass
class Loop:
    starts: list[float]  # perf_counter at the start of each successful command
    times: list[float]  # its wall seconds
    work: list[int]  # the work it completed


def closed_loop(tally: Tally, ops: Iterator[Op], execute, seconds: float,
                before: Callable[[], None] = lambda: None, **kwargs) -> Loop:
    """Issue commands one after another, calling ``before`` ahead of each,
    until ``seconds`` have passed."""
    loop = Loop([], [], [])
    start = time.perf_counter()
    while True:
        op = next(ops)
        before()
        began = time.perf_counter()
        elapsed = tally.run(op, execute, **kwargs)
        if elapsed is not None:
            loop.starts.append(began)
            loop.times.append(elapsed)
            loop.work.append(op.work)
        if time.perf_counter() - start >= seconds:
            return loop


def python_loop() -> None:
    total = 0
    for i in range(50_000):
        total += i * i


def numpy_loop() -> None:
    import numpy

    values = numpy.random.default_rng(0).random(200_000)
    numpy.sort(values)
    numpy.sort(values)


# fixed loops whose speed tracks the machine's, with their nominal times
CALIBRATIONS = {"python": (python_loop, 0.003), "numpy": (numpy_loop, 0.005)}


class MachineSpeed:
    """How fast this machine runs a fixed loop around a given moment, against nominal.

    A machine that shares its cores with other tenants drifts in speed by
    about 20% within seconds and between minutes, moving every time a run
    measures. The loop is timed before each command; a time measured at a
    moment is reported multiplied by the loop's nominal time over the median
    of the five loop timings nearest that moment. The loop should match what
    dominates the timed work: interpreted Python for start-up and most
    workloads, numpy array passes for ``mc_large_n``. README.md gives the
    spreads this removes. The loops are the benchmark's own code, so no
    change to rrkit moves them.
    """

    WINDOW = 5

    def __init__(self, kind: str):
        self.kind = kind
        self.loop, self.nominal_s = CALIBRATIONS[kind]
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        self.loop()
        self.at.append(start)
        self.took.append(time.perf_counter() - start)

    def scale(self, when: float, seconds: float) -> float:
        """``seconds`` measured at ``when``, at nominal speed."""
        i = bisect.bisect(self.at, when)
        lo = min(max(0, i - self.WINDOW // 2 - 1), max(0, len(self.took) - self.WINDOW))
        return seconds * self.nominal_s / statistics.median(self.took[lo:lo + self.WINDOW])

    def describe(self) -> str:
        return (f"the {self.kind} loop took a median {statistics.median(self.took) * 1e3:.3f} ms"
                f" over {len(self.took)} timings, against {self.nominal_s * 1e3:g} ms nominal")


def tail(times: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile at the highest of pct, 90, 75, 50 that leaves
    TAIL_MIN_BEYOND samples above it (p50 when none does)."""
    ordered = sorted(times)
    n = len(ordered)
    for p in sorted({pct, 90, 75, 50}, reverse=True):
        rank = math.ceil(p / 100 * n)
        if p <= pct and n - rank >= TAIL_MIN_BEYOND or p == 50:
            return ordered[max(rank, 1) - 1], p


def fresh_start(command: str) -> float:
    """Wall seconds of ``python -c COMMAND`` in a fresh interpreter."""
    return run_child(["-c", command])[2]


SETUP_COMMAND = "import rrkit.cli; rrkit.cli.build_parser()"


# --- end-to-end run ------------------------------------------------------------

def end_to_end(workload: Workload, seed: int, seconds: float, tally: Tally, report) -> dict:
    execute = run_fresh if workload.fresh_process else run_in_process
    speed = MachineSpeed(workload.calibration)  # scales command times
    interp = speed if workload.calibration == "python" else MachineSpeed("python")  # set-up
    setup: list[tuple[float, float]] = []  # (start, wall seconds) of each fresh interpreter

    def calibrate() -> None:
        interp.sample()
        if speed is not interp:
            speed.sample()

    def sample_setup() -> None:
        calibrate()
        began = time.perf_counter()
        setup.append((began, fresh_start(SETUP_COMMAND)))

    def before_command() -> None:
        # set-up samples are spread over the run, so they see the same machine as the commands
        if not setup or time.perf_counter() - setup[-1][0] >= seconds / SETUP_SAMPLES:
            sample_setup()
        calibrate()

    run_child(["-c", SETUP_COMMAND])  # settle the bytecode cache before timing
    ops = make_ops(workload, seed)
    tally.run(next(ops), execute)  # warm-up, checked but not timed
    loop = closed_loop(tally, ops, execute, seconds, before=before_command)
    if not loop.times:
        raise RuntimeError("no command succeeded; see the failures above")
    while len(setup) < 3:
        sample_setup()
    calibrate()
    who = resource.RUSAGE_CHILDREN if workload.fresh_process else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    times = [speed.scale(when, t) for when, t in zip(loop.starts, loop.times)]
    n = len(times)
    tail_s, tail_pct = tail(times, workload.tail_pct)
    metrics = {
        "setup_s": statistics.median(interp.scale(when, t) for when, t in setup),
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_s,
        "work_per_s": sum(loop.work) / sum(times),
        "peak_rss_mb": peak_rss_mb,
    }
    wall = {
        "setup_s": statistics.median(t for _, t in setup),
        "op_s_p50": statistics.median(loop.times),
        "op_s_tail": tail(loop.times, tail_pct)[0],
        "work_per_s": sum(loop.work) / sum(loop.times),
    }

    def line(name: str, unit: str, detail: str) -> None:
        report(f"{name:17s} {metrics[name]:<10.5g} {unit:3s}  wall {wall[name]:.5g} {unit}; {detail}")

    report(f"times are scaled to nominal machine speed; {speed.describe()}"
           + ("" if speed is interp else f"; for set-up, {interp.describe()}"))
    line("setup_s", "s", f"median of {len(setup)} fresh interpreters importing rrkit.cli")
    line("op_s_p50", "s", f"median of {n} commands")
    line("op_s_tail", "s", f"p{tail_pct} of {n} commands, {n - math.ceil(tail_pct / 100 * n)} beyond it")
    if workload.kind == "simulate":
        report(f"replicates_per_s  {metrics['work_per_s']:<10.5g} 1/s  R={workload.replicates}"
               f" per command at n={workload.n}; printed as work_per_s")
    unit_of_work = "replicates" if workload.kind == "simulate" else "commands"
    line("work_per_s", "1/s", f"{unit_of_work} completed per second of command time")
    report(f"error_rate        {tally.failed / tally.attempted:<10.5g}       {tally.failed} of"
           f" {tally.attempted} commands failed, warm-up included; printed as failed/attempted")
    report(f"peak_rss_mb       {peak_rss_mb:<10.5g} MB   max resident set of "
           + ("the command processes" if workload.fresh_process else "the benchmark process"))
    return {name: {"value": value, "unit": END_TO_END[name]} for name, value in metrics.items()}


# --- traced run ------------------------------------------------------------------

PER_LAYER = {
    "simulation.replicate_stream.us": "us",
    "simulation.simulate_survey.self_us": "us",
    "simulation.run_replicates.self_us_per_rep": "us",
    "simulation.sample_true_indices.us": "us",
    "device.draw_responses.us": "us",
    "simulation.workers": "count",
    "simulation.replicates": "count",
    "simulation.pool_speedup": "ratio",
    "device.respondents": "count",
    "device.bytes_computed": "bytes",
    "model.ResponseSample.us": "us",
    "estimation.estimate_mean.us": "us",
    "model.PopulationModel.us": "us",
    "model.PopulationModel.calls": "count",
    "privacy.alpha_measure.us": "us",
    "privacy.alpha_measure.calls": "count",
    "privacy.beta_measure.us": "us",
    "privacy.beta_measure.calls": "count",
    "oracle.simplex_grid_search.self_s": "s",
    "oracle.grid_points_evaluated": "count",
    "oracle.grid_points_kept_ratio": "ratio",
    "oracle.enumeration.us": "us",
    "verification.run_verification.s": "s",
    "cli.import_s": "s",
    "cli.interpreter_s": "s",
    "model.load_survey.us": "us",
    "design.design_device.us": "us",
    "estimation.estimate_report.us": "us",
    "privacy.privacy_report.us": "us",
    "privacy.revealing_probabilities.calls_per_report": "count",
    "trace.overhead_ratio": "ratio",
}


class LayerSums:
    """Per-layer totals over traced commands, fed one command's spans at a time.

    Times are inclusive wall times per call, measured on the calling thread,
    so on the pool they include waits for the interpreter lock. Self times
    subtract the part of a span that its children, on any thread, cover.
    Per-command figures divide by the commands that reached the layer.
    """

    SELF_TIMED = ("simulation.simulate_survey", "simulation.run_replicates",
                  "oracle.simplex_grid_search")

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.a: Counter[str] = Counter()
        self.b: Counter[str] = Counter()
        self.ops: Counter[str] = Counter()
        self.revealing_in_report = 0

    def add(self, spans: list[tuple]) -> None:
        """Spans of one command."""
        children: dict[int, list[tuple]] = defaultdict(list)
        by_id = {}
        for span in spans:
            children[span[PARENT]].append(span)
            by_id[span[ID]] = span
        self.ops.update({span[NAME] for span in spans})
        for span in spans:
            name = span[NAME]
            self.calls[name] += 1
            self.ns[name] += span[END] - span[START]
            self.a[name] += span[A]
            self.b[name] += span[B]
            if name in self.SELF_TIMED:
                self.self_ns[name] += self_time(span, children[span[ID]])
            if name == "privacy.revealing_probabilities":
                parent = by_id.get(span[PARENT])
                while parent is not None and parent[NAME] != "privacy.privacy_report":
                    parent = by_id.get(parent[PARENT])
                self.revealing_in_report += parent is not None

    def mean_us(self, name: str) -> float | None:
        return ratio(self.ns[name] / 1e3, self.calls[name])

    def per_op(self, name: str, total: Counter) -> float | None:
        return ratio(total[name], self.ops[name])

    def metrics(self) -> dict[str, float | None]:
        """Every span-derived per-layer metric; None where no span reached the layer."""
        sim, runs, grid = self.SELF_TIMED
        draws, reports = "device.draw_responses", "privacy.privacy_report"
        return {
            "simulation.replicate_stream.us": self.mean_us("simulation.replicate_stream"),
            "simulation.simulate_survey.self_us": ratio(self.self_ns[sim] / 1e3, self.calls[sim]),
            "simulation.run_replicates.self_us_per_rep": ratio(self.self_ns[runs] / 1e3, self.a[runs]),
            "simulation.sample_true_indices.us": self.mean_us("simulation.sample_true_indices"),
            "device.draw_responses.us": self.mean_us(draws),
            "simulation.workers": ratio(self.a["simulation.thread_count"],
                                        self.calls["simulation.thread_count"]),
            "simulation.replicates": self.per_op(runs, self.a),
            "device.respondents": self.per_op(draws, self.a),
            "device.bytes_computed": self.per_op(draws, self.b),
            "model.ResponseSample.us": self.mean_us("model.ResponseSample"),
            "estimation.estimate_mean.us": self.mean_us("estimation.estimate_mean"),
            "model.PopulationModel.us": self.mean_us("model.PopulationModel"),
            "model.PopulationModel.calls": self.per_op("model.PopulationModel", self.calls),
            "privacy.alpha_measure.us": self.mean_us("privacy.alpha_measure"),
            "privacy.alpha_measure.calls": self.per_op("privacy.alpha_measure", self.calls),
            "privacy.beta_measure.us": self.mean_us("privacy.beta_measure"),
            "privacy.beta_measure.calls": self.per_op("privacy.beta_measure", self.calls),
            "oracle.simplex_grid_search.self_s": ratio(self.self_ns[grid] / 1e9, self.ops[grid]),
            "oracle.grid_points_evaluated": self.per_op(grid, self.a),
            "oracle.grid_points_kept_ratio": ratio(self.a[grid], self.b[grid]),
            "oracle.enumeration.us": self.mean_us("oracle.enumeration"),
            "verification.run_verification.s":
                ratio(self.ns["verification.run_verification"] / 1e9,
                      self.calls["verification.run_verification"]),
            "model.load_survey.us": self.mean_us("model.load_survey"),
            "design.design_device.us": self.mean_us("design.design_device"),
            "estimation.estimate_report.us": self.mean_us("estimation.estimate_report"),
            "privacy.privacy_report.us": self.mean_us(reports),
            "privacy.revealing_probabilities.calls_per_report":
                ratio(self.revealing_in_report, self.calls[reports]),
        }


def ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def self_time(span: tuple, children: list[tuple]) -> int:
    """Span duration minus the union of its children's intervals within it."""
    covered, reach = 0, span[START]
    for child in sorted(children, key=lambda c: c[START]):
        lo, hi = max(child[START], reach), min(child[END], span[END])
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span[END] - span[START] - covered


def run_traced(tally: Tally, tracer: tracing.Tracer, ops: Iterable[Op], fresh: bool,
               seconds: float | None, op_ids: Iterator[int]) -> tuple[LayerSums, list[float]]:
    """Run commands under the probes: every op given, or a closed loop for
    ``seconds``. Returns the per-layer totals and each successful command's wall time."""
    sums = LayerSums()
    child_spans = WORK / f"spans-child-{os.getpid()}.csv"

    def execute(argv):
        op_id = next(op_ids)
        if fresh:
            rc, out, elapsed = run_child([str(HERE / "tracer.py"), str(child_spans), "--", *argv])
            spans = tracing.read_spans(child_spans, op_id)
            tracer.extend(spans)
        else:
            tracer.begin_op(op_id)
            rc, out, elapsed = run_in_process(argv)
            spans = tracer.drain()
        sums.add(spans)
        return rc, out, elapsed

    if not fresh:
        tracing.install(tracer)
    try:
        if seconds is None:
            times = [t for t in (tally.run(op, execute) for op in ops) if t is not None]
        else:
            times = closed_loop(tally, iter(ops), execute, seconds).times
    finally:
        tracer.restore()
        tracer.drain()
        child_spans.unlink(missing_ok=True)
    return sums, times


def per_layer(workload: Workload, seed: int, seconds: float, tally: Tally, report) -> dict:
    fresh = workload.fresh_process
    execute = run_fresh if fresh else run_in_process
    run_child(["-c", SETUP_COMMAND])
    interpreter, imported = [], []
    for _ in range(SETUP_SAMPLES):
        interpreter.append(fresh_start("pass"))
        imported.append(fresh_start(SETUP_COMMAND))
    ops = make_ops(workload, seed)
    tally.run(next(ops), execute)

    # untraced: default pool and one worker, alternating so drift hits both alike
    default, serial = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds * UNTRACED_SHARE or not (default and serial):
        for times, threads in ((default, None), (serial, "1")):
            elapsed = tally.run(next(ops), execute, threads=threads)
            if elapsed is not None:
                times.append(elapsed)

    tracer = tracing.Tracer()
    sums, traced = run_traced(tally, tracer, ops, fresh, seconds * (1 - UNTRACED_SHARE),
                              itertools.count(1))
    if not (default and serial and traced):
        raise RuntimeError("no command succeeded; see the failures above")
    own = sums.metrics()
    missing = [name for name, value in own.items() if value is None]
    if missing:
        reference, _ = run_traced(tally, tracer, reference_ops(seed), False, None,
                                  itertools.count(-1, -1))
        own.update({name: reference.metrics()[name] for name in missing})
    tracer_out = WORK / f"spans-{workload.name}.csv"
    tracer.write(tracer_out)

    median_default = statistics.median(default)
    own["simulation.pool_speedup"] = statistics.median(serial) / median_default
    own["trace.overhead_ratio"] = statistics.median(traced) / median_default
    own["cli.interpreter_s"] = statistics.median(interpreter)
    own["cli.import_s"] = statistics.median(imported) - own["cli.interpreter_s"]

    report(f"untraced: {len(default)} default and {len(serial)} RRKIT_THREADS=1 commands;"
           f" traced: {len(traced)} commands; spans written to {tracer_out.relative_to(ROOT)}")
    if missing:
        report("layers this workload never reaches, measured on the reference commands"
               f" instead: {', '.join(missing)}")
    for name, unit in PER_LAYER.items():
        report(f"{name:50s} {own[name]:.6g} {unit}{' (reference)' if name in missing else ''}")
    return {name: {"value": own[name], "unit": unit} for name, unit in PER_LAYER.items()}


# --- entry point -------------------------------------------------------------------

def load_rrkit() -> None:
    """Import rrkit from this checkout's src/, or exit non-zero without a result."""
    needed = [SRC / "rrkit" / "__init__.py", *(SURVEYS / name for name in SURVEY_FILES)]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        sys.exit(f"perfbench: not an rrkit checkout, missing {', '.join(absent)}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rrkit.cli

    if not Path(rrkit.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported rrkit from {rrkit.cli.__file__}, not from {SRC}")


def run(workload: Workload, seed: int, seconds: float, trace: bool, report=print) -> dict:
    """Run one workload and return the result object printed as the last line."""
    os.environ.pop(THREADS_ENV, None)
    load_rrkit()
    WORK.mkdir(exist_ok=True)
    import numpy

    report(f"workload {workload.name}  seed {seed}  seconds {seconds}  trace {int(trace)}  |"
           f" closed loop, 1 client  | nproc {os.cpu_count()}  python {platform.python_version()}"
           f"  numpy {numpy.__version__}  {THREADS_ENV} unset")
    tally = Tally()
    try:
        measure = per_layer if trace else end_to_end
        metrics = measure(workload, seed, seconds, tally, report)
    finally:
        (WORK / f"counts-{os.getpid()}.json").unlink(missing_ok=True)
        for reason in tally.reasons[:10]:
            report(f"FAILED {reason}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
