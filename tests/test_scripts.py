"""The measurement scripts under scripts/ still run against the package."""

import importlib.util
import itertools
import os
import pathlib
import subprocess
import sys

import numpy as np
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
    """Both counters run on both paths at every block shape: at n = 3 blocks
    hold many replicates, at n = 6 000 one."""
    done = _run("kernel_stages.py", "--n", "3,6000", "--m", "3", "--replicates", "3", "--repeats", "1")
    assert done.returncode == 0, done.stderr
    small, large = done.stdout.split("n = 6000")
    assert "block rows 1\n" not in small and "block rows 1\n" in large
    for part in (small, large):
        for path, counter in itertools.product(("jump", "setter"), ("cuts", "bincount")):
            assert f"{path} path, {counter}" in part
        assert "both sides of each fork give the same estimates and counts bit for bit" in part
        assert "jump/setter: " in part and "cuts/bincount: " in part


def test_kernel_stages_refuses_sides_that_differ(monkeypatch):
    """Counts that one side alone gets wrong past replicate 0 still agree with
    estimate_mean and pass the kernel's own check; the comparison of the
    sides must catch them, in blocks of many replicates and of one."""
    spec = importlib.util.spec_from_file_location("kernel_stages", ROOT / "scripts" / "kernel_stages.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    inner, replicates = simulation._count_by_cuts, itertools.count()

    def swapped(config, truth, draws, axis, scratch, out, levels):
        inner(config, truth, draws, axis, scratch, out, levels)
        for row in out:
            if next(replicates) % 3 == 1:  # the second replicate of each three-replicate run
                row[:] = np.roll(row, 1)  # changes every row of counts not all equal

    monkeypatch.setattr(simulation, "_count_by_cuts", swapped)
    for n in (10, 6_000):
        with pytest.raises(SystemExit, match="jump bincount and jump cuts differ"):
            script.report(script.config_for(n, 3, 3), repeats=1)


def test_verify_stages_splits_both_grid_checks_cached_and_streamed():
    """At step 0.25 the lattice fits one block and is cached; at 0.005 its
    20 301 points stream in blocks of 14 563."""
    done = _run("verify_stages.py", "--grid-step", "0.25,0.005", "--repeats", "1")
    assert done.returncode == 0, done.stderr
    cached, streamed = done.stdout.split("grid step 0.005")
    assert "building the lattice, once per process" in cached
    assert "the lattice streams in blocks" in streamed
    for part in (cached, streamed):
        for check in ("posterior_matches_oracle", "alpha_guarantee_tight",
                      "beta_guarantee_tight", "estimator_unbiased"):
            assert f"  {check} " in part
        for stage in ("lattice", "validate + renormalize", "posterior + fold", "reduce", "rest"):
            assert part.count(f"    {stage} ") == 2, stage


def test_replication_study_refuses_fewer_than_two_replicates():
    done = _run("replication_study.py", "--n", "10", "--replicates", "1")
    assert done.returncode == 2
    assert "--replicates must be at least 2" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (("replication_study.py", "--n", "10", "--p", "2"), "--p: device parameter p must lie in (0, 1)"),
        (("replication_study.py", "--n", "0"), "argument --n: expected comma-separated integers >= 1"),
        (("replication_study.py", "--n", "10,abc"), "argument --n: expected comma-separated integers >= 1"),
        (("privacy_efficiency_sweep.py", "--n", "0"), "--n must be at least 1"),
        (("privacy_efficiency_sweep.py", "--steps", "0"), "--steps must be at least 2"),
        (("privacy_efficiency_sweep.py", "--steps", "1"), "--steps must be at least 2"),
        (("kernel_stages.py", "--repeats", "0"), "--repeats must be at least 1"),
        (("kernel_stages.py", "--replicates", "0"), "--replicates must be at least 2"),
        (("kernel_stages.py", "--replicates", "1"), "--replicates must be at least 2"),
        (("kernel_stages.py", "--n", "0"), "sample size must be an integer >= 1, got 0"),
        (("kernel_stages.py", "--m", "1"), "support needs at least two values"),
        (("verify_stages.py", "--repeats", "0"), "--repeats must be at least 1"),
        (("verify_stages.py", "--grid-step", "0.3"), "--grid-step: step 0.3 must evenly divide 1"),
        (("verify_stages.py", "--grid-step", "0"), "--grid-step: step 0.0 must evenly divide 1"),
    ],
)
def test_scripts_refuse_bad_arguments_with_one_line(argv, message):
    """Out-of-range or unparsable arguments end in argparse's usage and one
    error line, exit 2, before any table is printed."""
    done = _run(*argv)
    assert done.returncode == 2
    assert message in done.stderr
    assert "Traceback" not in done.stderr
    assert not done.stdout
