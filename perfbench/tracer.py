"""Span tracing around rrkit's public functions, from outside the package.

A probe replaces a function at the name where its caller looks it up: the
simulation module imports ``draw_responses`` and ``ResponseSample`` by name,
so those are wrapped in ``rrkit.simulation``; verification and the CLI reach
``privacy.*``, ``oracle.*``, ``estimation.*`` and ``design.*`` through the
module, so those are wrapped on the module. ``restore`` puts every original
back.

Each call records a span: (name, start_ns, end_ns, id, parent, op, thread,
a, b), where a and b are two integers a probe may attach (a count, a size).
Parents come from a per-thread stack; a span opened on a pool worker whose
stack is empty takes as parent the innermost open span of the thread that
started the op, so replicate spans nest under ``run_replicates``. Spans are
kept in memory, packed at 68 bytes each, until ``write`` saves them as CSV.

Run as a script, it executes one CLI command under the probes in a fresh
interpreter and writes that process's spans:

    python perfbench/tracer.py SPANS_FILE -- design --m 4 --xi 0.1
"""

from __future__ import annotations

import csv
import functools
import inspect
import itertools
import math
import struct
import sys
import threading
import time
from typing import Iterable, Iterator

NAME, START, END, ID, PARENT, OP, THREAD, A, B = range(9)
COLUMNS = ("name", "start_ns", "end_ns", "id", "parent", "op", "thread", "a", "b")
# one pack call per span appends to a bytearray in a single step, so pool
# workers recording at the same time cannot interleave their fields
_SPAN = struct.Struct("<iqqqqqQqq")


class Tracer:
    def __init__(self):
        self.op = 0
        self._buf = bytearray()
        self._drained = 0
        self._names: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._origin: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        if name not in self._names:
            self._names.append(name)
        return self._names.index(name)

    def begin_op(self, op: int) -> None:
        """Start a new operation; the calling thread becomes its origin."""
        self.op = op
        self._origin = self._stack()

    def wrap(self, owner, attr: str, name: str, info=None) -> None:
        """Replace ``owner.attr`` by a timed wrapper. ``info(args, kwargs, result)``
        returns the span's (a, b) integers."""
        original = getattr(owner, attr)
        self._originals.append((owner, attr, original))
        name_id = self._name_id(name)

        @functools.wraps(original)
        def probe(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                top = self._origin[-1:]
                parent = top[0] if top else 0
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            a, b = (0, 0) if info is None else info(args, kwargs, result)
            self._buf.extend(_SPAN.pack(
                name_id, start, end, span_id, parent, self.op, threading.get_ident(), a, b))
            return result

        setattr(owner, attr, probe)

    def restore(self) -> None:
        """Put every wrapped function back, last wrapped first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def extend(self, spans: Iterable[tuple]) -> None:
        """Add spans recorded elsewhere, such as in a child process."""
        for span in spans:
            self._buf.extend(_SPAN.pack(self._name_id(span[NAME]), *span[1:]))

    def _decode(self, start: int) -> Iterator[tuple]:
        with memoryview(self._buf) as view:
            for fields in _SPAN.iter_unpack(view[start:]):
                yield (self._names[fields[0]], *fields[1:])

    def drain(self) -> list[tuple]:
        """Spans recorded since the previous drain."""
        spans = list(self._decode(self._drained))
        self._drained = len(self._buf)
        return spans

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(COLUMNS)
            out.writerows(self._decode(0))


def read_spans(path, op: int) -> list[tuple]:
    """Spans saved by ``Tracer.write``, relabelled as belonging to ``op``."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return [(row[0], *map(int, row[1:OP]), op, *map(int, row[OP + 1:])) for row in rows]


def _draw_info(args, kwargs, result):
    """Respondents randomized, and bytes computed (not measured) from array
    sizes: the index array read, the float64 uniforms drawn, the responses returned."""
    indices = args[1]
    return len(indices), indices.nbytes + 8 * len(indices) + result.nbytes


def _grid_info(signature: inspect.Signature):
    """Points the search evaluated, and the points it generated: every lattice
    point of the simplex plus the extra points it was handed."""

    def info(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        m, step = bound.arguments["m"], bound.arguments["step"]
        k = round(1.0 / step)
        extra = len(bound.arguments.get("extra_points", ()))
        return result.points_evaluated, math.comb(k + m - 1, m - 1) + extra

    return info


def install(tracer: Tracer) -> None:
    """Wrap every rrkit function the per-layer metrics read, at its lookup site."""
    from rrkit import cli, design, estimation, model, oracle, privacy, simulation, verification

    probes = [
        (simulation, "run_replicates", "simulation.run_replicates",
         lambda a, k, r: (a[0].replicates, 0)),
        (simulation, "thread_count", "simulation.thread_count", lambda a, k, r: (r, 0)),
        (simulation, "simulate_survey", "simulation.simulate_survey", None),
        (simulation, "replicate_stream", "simulation.replicate_stream", None),
        (simulation, "sample_true_indices", "simulation.sample_true_indices", None),
        (simulation, "draw_responses", "device.draw_responses", _draw_info),
        (simulation, "ResponseSample", "model.ResponseSample", None),
        (verification, "ResponseSample", "model.ResponseSample", None),
        (cli, "ResponseSample", "model.ResponseSample", None),
        (model, "PopulationModel", "model.PopulationModel", None),
        (verification, "PopulationModel", "model.PopulationModel", None),
        (oracle, "PopulationModel", "model.PopulationModel", None),
        (cli, "load_survey", "model.load_survey", None),
        (design, "design_device", "design.design_device", None),
        (estimation, "estimate_mean", "estimation.estimate_mean", None),
        (estimation, "estimate_report", "estimation.estimate_report", None),
        (privacy, "revealing_probabilities", "privacy.revealing_probabilities", None),
        (privacy, "alpha_measure", "privacy.alpha_measure", None),
        (privacy, "beta_measure", "privacy.beta_measure", None),
        (privacy, "privacy_report", "privacy.privacy_report", None),
        (oracle, "simplex_grid_search", "oracle.simplex_grid_search",
         _grid_info(inspect.signature(oracle.simplex_grid_search))),
        (oracle, "enumeration_moments", "oracle.enumeration", None),
        (oracle, "enumeration_expectation", "oracle.enumeration", None),
        (verification, "run_verification", "verification.run_verification", None),
    ]
    for owner, attr, name, info in probes:
        tracer.wrap(owner, attr, name, info)


def _main(argv: list[str]) -> int:
    spans_path, sep, *command = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE -- COMMAND [ARGS...]")
    from rrkit import cli

    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(command)
    finally:
        tracer.restore()
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
