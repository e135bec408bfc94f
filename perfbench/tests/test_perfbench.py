"""Tests of the benchmark itself: the job generators, the span arithmetic,
the tracer's wrapping, and every per-job correctness check.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# --- generators ---------------------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    wl = workloads.WORKLOADS[name]()
    first = [wl.spec(7, i) for i in range(20)]
    again = [workloads.WORKLOADS[name]().spec(7, i) for i in range(20)]
    assert json.dumps(first) == json.dumps(again)
    other = [wl.spec(8, i) for i in range(20)]
    assert other[0] == first[0]  # the reference job ignores the seed
    assert all(a != b for a, b in zip(first[1:], other[1:]))


def test_state_sweep_blocks_have_a_fixed_mix():
    wl = workloads.StateSweep()
    for seed in (1, 2):
        block = [wl.spec(seed, i) for i in range(1, 1 + workloads.BLOCK)]
        sorters = sorted((s["odd_swaps"], s["swap_phase"]) for s in block)
        assert sorters == sorted(workloads.SORTERS * 2)
        assert sum(s["c1_over_c2"] is not None for s in block) == 2
        assert sum(s["overlap"] < 1.0 for s in block) == 4
        assert len({json.dumps(s["mirrors"], sort_keys=True) for s in block}) == workloads.BLOCK


def test_mirror_stations_match_the_package():
    from ghz3d import experiment

    assert workloads.MIRROR_STATIONS == experiment.MIRROR_STATIONS
    assert workloads.DEFAULT_MIRRORS == experiment.DEFAULT_MIRRORS


# --- span arithmetic ----------------------------------------------------------


def _span(name, start, end, parent, job=1, counters=None):
    return [name, start, end, parent, job, counters]


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),  # overlaps b: together they cover 1..6
        _span("b", 3.0, 6.0, 0),
        _span("c", 8.0, 12.0, 0),  # clipped to the parent's end: covers 8..10
        _span("a_child", 2.0, 3.0, 1),
        _span("leaf", 4.5, 5.0, 2),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 2.5, 4.0, 1.0, 0.5])


def test_totals_sum_per_name_over_the_selected_jobs():
    tree = [
        _span("job", 0.0, 4.0, -1, job=1),
        _span("x", 0.0, 1.0, 0, job=1, counters={"n": 2}),
        _span("x", 2.0, 3.0, 0, job=1, counters={"n": 3}),
        _span("x", 5.0, 9.0, -1, job=0, counters={"n": 100}),
    ]
    tot = spans.totals(tree, {1})
    assert tot["job"] == {"calls": 1, "self_s": pytest.approx(2.0)}
    assert tot["x"] == {"calls": 2, "self_s": pytest.approx(2.0), "n": 5}


def test_tracer_wraps_aliases_and_counts_offdiag_calls():
    import ghz3d
    from ghz3d import experiment, states, tomography

    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert experiment.apply is states.apply is ghz3d.apply
        tracer.job = 1
        rho = tomography.noise_model(tomography.NoiseParams.table1())
        records = tomography.simulate_counts(rho, tomography.build_witness_plan(), 1000, seed=3)
        tomography.estimate_fidelity(records, n_resamples=10)
        experiment.run_pipeline(experiment.PipelineConfig())
        with tracer.paused():
            experiment.run_pipeline(experiment.PipelineConfig())
    finally:
        restore()
    assert experiment.apply is states.apply and not hasattr(states.apply, "__wrapped__")
    tot = spans.totals(tracer.spans, {1})
    # 3 elements x (1 plan build + 11 estimates: the base and 10 resamples)
    assert tot["tomography.offdiag_projectors"]["calls"] == 3 + 3 * 11
    assert tot["tomography.estimate_fidelity"]["resamples"] == 10
    assert tot["experiment.run_pipeline"]["calls"] == 1
    names = {s[spans.NAME] for s in tracer.spans}
    parents = {tracer.spans[s[spans.PARENT]][spans.NAME] for s in tracer.spans if s[spans.NAME] == "states.apply"}
    assert "states.check_unitary" in names and parents == {"experiment.run_pipeline"}


def test_tail_percentile_keeps_ten_jobs_beyond():
    times = [float(i) for i in range(1, 41)]
    value, pct = run.tail(times)
    assert value == 30.0 and pct == 75.0
    assert run.tail([1.0, 2.0, 3.0]) == (3.0, 100.0)


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# --- correctness checks fail on perturbed results -------------------------------


def _job(wl, seed, i):
    spec = wl.spec(seed, i)
    out = wl.collect(wl.run(wl.prepare(spec, i)), i)
    out.pop("spans", None)
    return spec, out, wl.reference(spec, out)


def _first(wl, seed, predicate):
    return next(i for i in range(1, 200) if predicate(wl.spec(seed, i)))


@pytest.fixture(scope="module")
def state_jobs():
    wl = workloads.StateSweep()
    c2_default = _first(
        wl, 1, lambda s: s["odd_swaps"] and s["swap_phase"] == 1.0 and s["c1_over_c2"] is not None
    )
    return wl, _job(wl, 1, 0), _job(wl, 1, c2_default)


def _set(path, value):
    def mutate(spec, out, ref):
        target = {"out": out, "ref": ref}
        *keys, last = path
        for k in keys:
            target = target[k]
        target[last] = value(target[last]) if callable(value) else value

    return mutate


STATE_PERTURBATIONS = {
    "probability off the oracle": _set(("out", "probability"), lambda p: p + 1e-9),
    "probability above 1": _set(("out", "probability"), 1.5),
    "a combo missing": lambda spec, out, ref: out["classification"].popitem(),
    "combo probability negative": lambda spec, out, ref: out["classification"]["even|even"].__setitem__(3, -0.5),
    "hom value off the oracle": lambda spec, out, ref: out["hom"][0][1].__setitem__(1, out["hom"][0][1][1] + 1e-9),
}


@pytest.mark.parametrize("which", ["reference", "c2"])
def test_state_sweep_checks_pass_then_fail_when_perturbed(state_jobs, which):
    wl, ref_job, c2_job = state_jobs
    spec, out, ref = ref_job if which == "reference" else c2_job
    assert ref, "default-sorter jobs are checked against the oracle"
    assert wl.check(spec, out, ref) == []
    for label, mutate in STATE_PERTURBATIONS.items():
        o, r = copy.deepcopy(out), copy.deepcopy(ref)
        mutate(spec, o, r)
        assert wl.check(spec, o, r), label


def test_state_sweep_reference_job_checks_term_set_and_counts(state_jobs):
    wl, (spec, out, ref), _ = state_jobs
    o = copy.deepcopy(out)
    o["terms"][0][0][0][1] = 5
    assert any("term set" in p for p in wl.check(spec, o, ref))
    o = copy.deepcopy(out)
    o["classification"]["even|even"][0] = "CROSS_BLOCKED"
    assert any("3/4/2" in p for p in wl.check(spec, o, ref))


@pytest.fixture(scope="module")
def verify_job():
    wl = workloads.VerifyDataset()
    return wl, _job(wl, 1, 0)


VERIFY_PERTURBATIONS = {
    "unsampled F": _set(("ref", "F_unsampled"), lambda f: f + 1e-6),
    "sampled F": _set(("out", "witness", "F"), lambda f: f + 1.0),
    "F_max": _set(("out", "witness", "F_max"), 0.7),
    "Mermin quantum value": _set(("out", "mermin", "quantum_value"), 8.9 + 0j),
    "closed-form noise expectation": _set(("out", "mermin", "noise_closed"), lambda v: v + 1e-6),
    "measured product": lambda spec, out, ref: out["mermin"]["products"]["XXX"].__setitem__(1, 0.5 + 0j),
    "distribution norm": lambda spec, out, ref: out["mermin"]["products"]["YYY"].__setitem__(0, 0.9),
    "LR distinct values": _set(("out", "mermin", "lr_distinct"), 15),
    "visibility_numeric": _set(("ref", "visibility_numeric"), lambda v: v + 1e-6),
    "P4 dip depth": lambda spec, out, ref: out["hom"]["p4"].__setitem__(12, out["hom"]["p4"][12] * 1.01),
    "P4 symmetry": lambda spec, out, ref: out["hom"]["p4"].__setitem__(0, out["hom"]["p4"][0] * 1.01),
    "dip fit": lambda spec, out, ref: out["hom"]["fit"].__setitem__(1, 0.2),
    "count arithmetic": _set(("out", "counts", "corrected"), -1.0),
}


def test_verify_dataset_checks_pass_then_fail_when_perturbed(verify_job):
    wl, (spec, out, ref) = verify_job
    assert wl.check(spec, out, ref) == []
    for label, mutate in VERIFY_PERTURBATIONS.items():
        o, r = copy.deepcopy(out), copy.deepcopy(ref)
        mutate(spec, o, r)
        assert wl.check(spec, o, r), label


@pytest.fixture(scope="module")
def cli_jobs():
    # the CLI writes inside the checkout, as the benchmark does
    work = ROOT / ".perfbench_work" / "tests"
    wl = workloads.CliCold(work)
    try:
        yield wl, {wl.spec(1, i)["command"]: _job(wl, 1, i) for i in range(1, 6)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()


def _replace_file(name, text):
    return lambda spec, out, ref: out["files"].__setitem__(name, text.encode())


def _edit_json(name, key, value):
    def mutate(spec, out, ref):
        data = json.loads(out["files"][name])
        data[key] = value
        out["files"][name] = json.dumps(data).encode()

    return mutate


CLI_PERTURBATIONS = {
    "simulate": _edit_json("report.json", "success_probability", 2.0),
    "hom": lambda spec, out, ref: out["files"].__setitem__("dip.csv", out["files"]["dip.csv"].rsplit(b"\n", 2)[0] + b"\n"),
    "witness": _edit_json("witness.json", "n_settings", 218),
    "mermin": _edit_json("mermin.json", "distinct_value_count", 15),
    "counts": _edit_json("counts.json", "corrected", -1.0),
}


@pytest.mark.parametrize("command", workloads.COMMANDS)
def test_cli_cold_checks_pass_then_fail_when_perturbed(cli_jobs, command):
    wl, jobs = cli_jobs
    spec, out, ref = jobs[command]
    assert wl.check(spec, out, ref) == []
    generic = {
        "exit code": lambda s, o, r: o.__setitem__("returncode", 1),
        "missing artifact": lambda s, o, r: o["files"].popitem(),
        "unparsable artifact": _replace_file(sorted(out["files"])[0], "{not json\n1,x"),
    }
    for label, mutate in {**generic, "content": CLI_PERTURBATIONS[command]}.items():
        o = copy.deepcopy(out)
        mutate(spec, o, ref)
        assert wl.check(spec, o, ref), f"{command}: {label}"
