"""Each ``ghz3d`` subcommand imports only the modules it runs.

The test session has imported every module already, so each subcommand runs
in a fresh interpreter that prints its ``sys.modules``; its artifacts are
checked against the goldens of ``test_golden``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghz3d

from test_cli import RATES
from test_golden import ARTIFACTS, GOLDEN, MERMIN_NOISE, _sha256

SRC = Path(ghz3d.__file__).parents[1]
PIPELINE = {"ghz3d.states", "ghz3d.elements", "ghz3d.experiment"}

#: the modules each subcommand must leave unloaded
NOT_LOADED = {
    "counts": {"numpy", *PIPELINE, "ghz3d.tomography", "ghz3d.spectral"},
    "hom": {"ghz3d.states", "ghz3d.experiment", "ghz3d.tomography"},
    "witness": PIPELINE,
    "mermin": {"numpy", *PIPELINE, "ghz3d.tomography"},
    "simulate": {"numpy", "ghz3d.tomography", "ghz3d.spectral"},
}

RUN_CLI = "import json, sys; from ghz3d.cli import main; code = main(sys.argv[1:]); print(json.dumps(sorted(sys.modules))); sys.exit(code)"


def _fresh_modules(code: str, *args: str) -> set[str]:
    """The ``numpy``, ``numpy.ma`` and ``ghz3d`` modules loaded after ``code``
    ran in a new interpreter; ``code`` prints ``sorted(sys.modules)`` as its
    last line."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    return {m for m in loaded if m in ("numpy", "numpy.ma", "ghz3d") or m.startswith("ghz3d.")}


def test_import_ghz3d_loads_no_submodule():
    assert _fresh_modules("import json, sys, ghz3d; print(json.dumps(sorted(sys.modules)))") == {"ghz3d"}


def test_import_experiment_loads_no_numpy():
    loaded = _fresh_modules("import json, sys, ghz3d.experiment; print(json.dumps(sorted(sys.modules)))")
    assert "ghz3d.elements" in loaded and "numpy" not in loaded


BUILD_LOCAL_UNITARIES = """
import json, sys
from ghz3d.elements import ElementSpec, NotUnitary, build_element

def spec(matrix):
    return ElementSpec("LOCAL_UNITARY", ("B",), {"matrix": matrix, "basis": [0, 1, -1]})

def rejected(bad):
    try:
        build_element(bad)
    except NotUnitary:
        return True
    raise AssertionError(f"built a non-unitary matrix: {bad}")

swap, shear = [[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
specs = [spec(swap), spec(shear)]
# neither the params check nor the build and its unitarity check needs numpy
built = build_element(specs[0])
assert built.image(("B", 0, 0)) == ((("B", 1, 0), 1 + 0j),)
assert rejected(specs[1])
assert "numpy" not in sys.modules
import numpy as np

specs += [spec(np.array(swap)), spec(np.array(shear))]
assert build_element(specs[2]).entries == built.entries
assert rejected(specs[3])
try:
    spec(np.array([["1", "0", "0"]] * 3))
except ValueError as exc:
    assert "matrix[0][0] must be a number" in str(exc), exc
else:
    raise AssertionError("an array of strings passed the params check")
print(json.dumps(sorted(sys.modules)))
"""


def test_local_unitary_builds_from_lists_and_arrays_and_rejects_non_unitary():
    assert "numpy" in _fresh_modules(BUILD_LOCAL_UNITARIES)


def test_reexports_resolve_on_every_access(monkeypatch):
    # a tracer that rebinds states.apply, and puts it back, is seen through ghz3d.apply
    from ghz3d import states

    assert all(hasattr(ghz3d, name) for name in ghz3d.__all__)
    original = states.apply
    monkeypatch.setattr(states, "apply", lambda m, state: state)
    assert ghz3d.apply is states.apply is not original
    monkeypatch.undo()
    assert ghz3d.apply is states.apply is original


@pytest.mark.parametrize("command", sorted(NOT_LOADED))
def test_subcommand_imports_only_what_it_runs(command, tmp_path):
    out = tmp_path / "out"
    args = [command, "--out", str(out)]
    if command == "counts":
        rates = tmp_path / "rates.json"
        rates.write_text(json.dumps(RATES))
        args += ["--config", str(rates)]
    loaded = _fresh_modules(RUN_CLI, *args)
    assert "ghz3d.cli" in loaded
    assert not loaded & NOT_LOADED[command]
    assert "numpy.ma" not in loaded  # about 15 ms of import that no command needs
    if command == "simulate":
        golden = dict(zip(("state.json", "report.json"), GOLDEN["default"]))
    else:
        golden = ARTIFACTS[command]
    assert {name: _sha256(out / name) for name in golden} == golden


def test_mermin_with_a_noise_config_imports_no_numpy(tmp_path):
    # the config reader builds the noise parameters, which tomography re-exports
    cfg, digest = MERMIN_NOISE["skewed_weights"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    loaded = _fresh_modules(RUN_CLI, "mermin", "--config", str(path), "--out", str(tmp_path / "out"))
    assert "ghz3d.contradiction" in loaded
    assert not loaded & NOT_LOADED["mermin"]
    assert _sha256(tmp_path / "out" / "mermin.json") == digest
