"""What a command loads: each imports only the modules it runs, and the
package resolves its names and submodules on first use."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import rrkit

SRC = pathlib.Path(rrkit.__file__).resolve().parents[1]
SURVEYS = pathlib.Path(__file__).resolve().parent.parent / "surveys"
M3 = str(SURVEYS / "one_nonstigmatizing_m3.json")
M4 = str(SURVEYS / "all_stigmatizing_m4.json")

# Runs ``cli.main(argv)`` in a fresh interpreter and prints its exit code and
# the modules it loaded beyond those the interpreter started with.
RUN_COMMAND = """
import contextlib, io, json, sys
started = set(sys.modules)
from rrkit import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "loaded": sorted(set(sys.modules) - started)}))
"""

SIMULATE_STACK = ("rrkit.simulation", "concurrent.futures")
VERIFY_STACK = ("rrkit.verification", "rrkit.oracle")
# what no command but simulate and verify may load; ``dataclasses`` loads
# ``inspect``, and the model types are plain classes to keep both out
HEAVY = ("numpy", *SIMULATE_STACK, *VERIFY_STACK, "dataclasses", "inspect")


def run_fresh(source: str, *args: str, flags: tuple[str, ...] = ()) -> str:
    env = {k: v for k, v in os.environ.items() if k != "RRKIT_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", source, *args], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_by(argv: list[str]) -> set[str]:
    doc = json.loads(run_fresh(RUN_COMMAND, json.dumps(argv)))
    assert doc["code"] == 0
    return set(doc["loaded"])


@pytest.mark.parametrize(
    "argv",
    [
        ["design", "--m", "4", "--xi", "0.1"],
        ["design", "--survey", M3],
        ["design", "--survey", M4],
        ["table"],
        ["table", "--format", "json", "--m", "2,7", "--xi", "0.25"],
    ],
)
def test_design_and_table_leave_numpy_out(argv):
    loaded = loaded_by(argv)
    assert "rrkit.design" in loaded
    for name in ("rrkit.privacy", "rrkit.estimation", *HEAVY):
        assert name not in loaded


@pytest.mark.parametrize("p", [None, "0.3"], ids=["designed_p", "given_p"])
@pytest.mark.parametrize("survey", [M3, M4], ids=["m3", "m4"])
@pytest.mark.parametrize("command", ["privacy", "estimate"])
def test_privacy_and_estimate_leave_numpy_out(command, survey, p, tmp_path):
    argv = [command, "--survey", survey]
    if command == "estimate":
        counts = tmp_path / "counts.json"
        counts.write_text("[120, 95, 85]" if survey == M3 else "[40, 30, 20, 10]", encoding="utf-8")
        argv += ["--counts", str(counts)]
    if p is not None:
        argv += ["--p", p]
    loaded = loaded_by(argv)
    assert f"rrkit.{'privacy' if command == 'privacy' else 'estimation'}" in loaded
    for name in HEAVY:
        assert name not in loaded


@pytest.mark.parametrize("command", ["privacy", "estimate"])
def test_privacy_and_estimate_leave_typing_out(command, tmp_path):
    # an installed package's .pth file may load typing as the interpreter
    # starts, which would hide it here; -S starts without site and its .pth files
    argv = [command, "--survey", M3]
    if command == "estimate":
        counts = tmp_path / "counts.json"
        counts.write_text("[120, 95, 85]", encoding="utf-8")
        argv += ["--counts", str(counts)]
    doc = json.loads(run_fresh(RUN_COMMAND, json.dumps(argv), flags=("-S",)))
    assert doc["code"] == 0
    assert "typing" not in doc["loaded"]


def test_cli_import_and_parser_leave_dataclasses_out():
    source = (
        "import json, sys; started = set(sys.modules); import rrkit.cli; "
        "rrkit.cli.build_parser(); print(json.dumps(sorted(set(sys.modules) - started)))"
    )
    loaded = set(json.loads(run_fresh(source)))
    assert "rrkit.cli" in loaded
    for name in HEAVY:
        assert name not in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["design", "--m", "4", "--xi", "0.1"],
        ["design", "--survey", M3],
        ["table"],
        ["privacy", "--survey", M4],
        ["simulate", "--survey", M3, "--n", "20", "--replicates", "5"],
        ["verify", "--grid-step", "0.25"],
    ],
    ids=lambda argv: argv[0] if len(argv) < 3 or argv[1] != "--survey" else f"{argv[0]}-survey",
)
def test_no_command_loads_dataclasses(argv):
    # every rrkit type is a record; numpy loads inspect but not dataclasses,
    # so simulate and verify leave it out too
    assert "dataclasses" not in loaded_by(argv)


def test_verify_leaves_simulation_out():
    loaded = loaded_by(["verify", "--grid-step", "0.25"])
    assert "rrkit.verification" in loaded
    assert "rrkit.simulation" not in loaded


def test_simulate_leaves_verification_out():
    loaded = loaded_by(["simulate", "--survey", M3, "--n", "20", "--replicates", "5"])
    assert "rrkit.simulation" in loaded
    for name in VERIFY_STACK:
        assert name not in loaded


def test_package_import_loads_no_submodule():
    source = (
        "import json, sys; started = set(sys.modules); import rrkit; "
        "print(json.dumps(sorted(set(sys.modules) - started)))"
    )
    loaded = json.loads(run_fresh(source))
    assert "rrkit" in loaded and "numpy" not in loaded
    assert not [name for name in loaded if name.startswith("rrkit.")]


@pytest.mark.parametrize("name", sorted(rrkit.__all__))
def test_every_export_is_its_module_attribute(name):
    module = importlib.import_module(f"rrkit.{rrkit._MODULE_OF[name]}")
    assert getattr(rrkit, name) is getattr(module, name)
    assert name in dir(rrkit)


def test_all_lists_each_export_once():
    assert len(rrkit.__all__) == len(set(rrkit.__all__)) == 44


@pytest.mark.parametrize(
    "name",
    ["design", "estimation", "model", "oracle", "privacy", "simulation", "verification"],
)
def test_submodules_resolve_as_attributes_in_a_fresh_interpreter(name):
    source = (
        "import sys, rrkit\n"
        f"module = rrkit.{name}\n"
        f"assert module is sys.modules['rrkit.{name}'], module\n"
    )
    run_fresh(source)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from rrkit import *", namespace)
    assert set(rrkit.__all__) <= set(namespace)
    assert namespace["run_replicates"] is rrkit.simulation.run_replicates


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        rrkit.no_such_name
    assert not hasattr(rrkit, "planned_bytes")
    with pytest.raises(ImportError):
        exec("from rrkit import no_such_name", {})


def test_closed_form_moments_leave_numpy_out():
    # var_mu_theoretical, the summed proportion variance and mu_X are m-term
    # sums of Python floats
    source = (
        "import sys\n"
        "from rrkit import Device, PopulationModel, SupportSpec, estimation\n"
        "device, population = Device(p=0.3, m=3), PopulationModel(pi=(0.5, 0.3, 0.2))\n"
        "support = SupportSpec(values=(0.0, 1.0, 2.0), stigma=(True, False, True))\n"
        "print(estimation.variance_mean_theoretical(device, support, population, 100),\n"
        "      estimation.total_variance_proportions_theoretical(device, population, 100),\n"
        "      population.mean(support), 'numpy' in sys.modules)\n"
    )
    *values, numpy_loaded = run_fresh(source).split()
    assert [float(v) > 0.0 for v in values] == [True] * 3
    assert numpy_loaded == "False"
