"""The benchmark's own jobs still run and pass their checks.

``perfbench/workloads.py`` calls the ``ghz3d`` API by name and signature from
outside the package, so changing a function it calls breaks a benchmark run.
This test loads the workloads by path, takes the first jobs of each workload
through the steps a benchmark worker takes (spec, prepare, run, collect,
reference, check) and asserts that no check finds a problem.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


workloads = _load_workloads()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_the_first_benchmark_jobs_pass_their_checks(name, tmp_path):
    wl = workloads.WORKLOADS[name](tmp_path)
    for i in range(6):
        spec = wl.spec(5, i)
        out = wl.collect(wl.run(wl.prepare(spec, i)), i)
        assert wl.check(spec, out, wl.reference(spec, out)) == [], f"{name} job {i}"
