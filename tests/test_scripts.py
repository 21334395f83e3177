"""The measurement scripts under scripts/ still run against the package."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_scripts_run_at_their_smallest_arguments():
    """Each script imports kernel names and options of its own; a change that
    drops one fails here instead of at the next measurement."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    for argv in (
        ("count_crossover.py", "--repeats", "1", "--rows", "1"),
        ("stream_crossover.py", "--replicates", "1", "--repeats", "1"),
        ("privacy_efficiency_sweep.py", "--steps", "2", "--n", "10"),
        ("replication_study.py", "--n", "10", "--replicates", "2"),
    ):
        done = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, (argv, done.stderr)
        assert done.stdout.strip(), argv
