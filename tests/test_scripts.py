"""The measurement scripts under scripts/ still run against the package."""

import importlib.util
import itertools
import os
import pathlib
import subprocess
import sys

import pytest

from rrkit import simulation

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run(script, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_scripts_run_at_their_smallest_arguments():
    """Each script imports kernel names and options of its own; a change that
    drops one fails here instead of at the next measurement."""
    for argv in (
        ("privacy_efficiency_sweep.py", "--steps", "2", "--n", "10"),
        ("replication_study.py", "--n", "10", "--replicates", "2"),
    ):
        done = _run(*argv)
        assert done.returncode == 0, (argv, done.stderr)
        assert done.stdout.strip(), argv


def test_kernel_stages_runs_both_sides_of_both_forks():
    """At n = 3 blocks hold many replicates, so only the stream fork runs; at
    n = 6 000 they hold one, and both counters run on both paths."""
    done = _run("kernel_stages.py", "--n", "3,6000", "--m", "3", "--replicates", "3", "--repeats", "1")
    assert done.returncode == 0, done.stderr
    small, large = done.stdout.split("n = 6000")
    for path in ("jump", "setter"):
        assert f"{path} path, bincount" in small and f"{path} path, cuts" not in small
        assert f"{path} path, bincount" in large and f"{path} path, cuts" in large
    for part in (small, large):
        assert "both sides of each fork give the same estimates and counts bit for bit" in part
        assert "jump/setter: " in part
    assert "cuts/bincount: " in large and "cuts/bincount: " not in small


def test_kernel_stages_refuses_sides_that_differ(monkeypatch):
    """Counts that one side alone gets wrong past replicate 0 still agree with
    estimate_mean and pass the kernel's own check; the comparison of the
    sides must catch them."""
    spec = importlib.util.spec_from_file_location("kernel_stages", ROOT / "scripts" / "kernel_stages.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    inner, calls = simulation._count_by_cuts, itertools.count()

    def swapped(config, u, scratch, out, levels):
        inner(config, u, scratch, out, levels)
        if next(calls) % 3 == 1:  # the second replicate of each three-replicate run
            out[0, :2] = out[0, 1::-1].copy()

    monkeypatch.setattr(simulation, "_count_by_cuts", swapped)
    with pytest.raises(SystemExit, match="jump bincount and jump cuts differ"):
        script.report(script.config_for(6_000, 3, 3), repeats=1)


def test_replication_study_refuses_fewer_than_two_replicates():
    done = _run("replication_study.py", "--n", "10", "--replicates", "1")
    assert done.returncode == 2
    assert "--replicates must be at least 2" in done.stderr
    assert "Traceback" not in done.stderr
