"""The ghz3d benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one seeded workload (``state_sweep``, ``verify_dataset``, ``cli_cold``,
or ``all`` for the three in turn) against this checkout's ``src/ghz3d``,
checks every job, and prints a human-readable summary followed by one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced run.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads
from worker import MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

#: fresh worker interpreters per run.  Each times its import and job 0
#: (setup_s and first_job_s are the medians) and then takes every FRESH-th
#: job for 1/FRESH of the run, which averages out per-process speed
#: differences (memory layout) while the jobs of all workers together stay
#: contiguous, so the per-block mix of state_sweep and the command cycle of
#: cli_cold are kept
FRESH = 6
#: runs of ``python -X importtime`` per traced run
IMPORT_RUNS = 3
#: wall-clock budget of one benchmark invocation
BUDGET_S = 175.0

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("first_job_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: span totals reported per job: (span name, counter keys)
PER_LAYER_SPANS = (
    ("states.apply", ("calls", "self_s", "terms_out")),
    ("states.extend_identity", ("calls", "self_s")),
    ("states.check_unitary", ("calls", "self_s", "modes")),
    ("states.tensor", ("self_s",)),
    ("states.postselect", ("calls", "self_s")),
    ("elements.build_element", ("calls", "self_s")),
    ("elements.project", ("calls", "self_s")),
    ("experiment.run_pipeline", ("self_s",)),
    ("experiment.classify_terms", ("calls", "self_s")),
    ("experiment.hom_scan", ("self_s",)),
    ("tomography.estimate_fidelity", ("calls", "self_s", "resamples")),
    ("tomography.offdiag_projectors", ("calls", "self_s")),
    ("tomography.simulate_counts", ("self_s", "settings")),
    ("tomography.noise_model", ("self_s",)),
    ("tomography.witness_bound", ("self_s",)),
    ("contradiction.lr_enumerate", ("self_s",)),
    ("contradiction.build_operators", ("self_s",)),
    ("contradiction.measurement_protocol", ("self_s",)),
    ("spectral.p4_numeric", ("calls", "self_s", "failures")),
    ("spectral.fit_dip", ("calls", "self_s", "failures")),
    ("kernels.lr_scan", ("self_s", "assignments")),
    ("kernels.p4_sums", ("calls", "self_s", "flops", "bytes")),
    ("cli.dump_json", ("self_s",)),
)
#: metric suffix and unit of a counter key (others: the key, count/job)
_KEYS = {
    "calls": ("calls", "count/job"),
    "self_s": ("self_s", "s/job"),
    "flops": ("flops_computed", "flop/job"),
    "bytes": ("bytes_computed", "B/job"),
}


def _span_metric(span: str, key: str) -> tuple[str, str]:
    suffix, unit = _KEYS.get(key, (key, "count/job"))
    return f"{span}.{suffix}", unit


PER_LAYER = (
    *(_span_metric(span, k) for span, keys in PER_LAYER_SPANS for k in keys),
    ("states.postselect.kept_frac", "frac"),
    ("elements.project.kept_frac", "frac"),
    ("counts.self_s", "s/job"),
    ("import.total_s", "s"),
    ("import.scipy_s", "s"),
    ("import.numpy_s", "s"),
    ("import.ghz3d_s", "s"),
    *((f"cli.{c}.wall_s", "s") for c in workloads.COMMANDS),
    ("cli.bytes_written", "B/job"),
    ("trace.spans", "count/job"),
    ("trace.job_s", "s"),
    ("trace.overhead_frac", "frac"),
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("time budget exhausted")
        return left


def run_child(argv: list[str], deadline: Deadline) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=workloads.child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=deadline.left())
    except (subprocess.TimeoutExpired, BenchError):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[1:3]} did not finish within the time budget") from None
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def worker(mode: str, workload: str, seed: int, first: int, stride: int, limit: float, work: Path, deadline: Deadline) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(HERE / "worker.py"), mode, workload, *map(str, (seed, first, stride, limit, work))]
    proc = run_child(argv, deadline)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {mode} {workload} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 jobs beyond it, and that percentile.

    With 10 jobs or fewer no such percentile exists; the maximum (p100) is
    reported instead.
    """
    ordered = sorted(times)
    k = len(ordered) - 11
    if k < 0:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def import_breakdown(workload: str, deadline: Deadline) -> dict[str, float]:
    """Median self import time per top-level package, from ``-X importtime``."""
    runs = []
    for _ in range(IMPORT_RUNS):
        argv = [sys.executable, "-X", "importtime", "-c", "import " + ", ".join(MODULES[workload])]
        proc = run_child(argv, deadline)
        if proc.returncode != 0:
            raise BenchError(f"import of {workload} modules failed:\n{proc.stderr[-3000:]}")
        by_top = {"total": 0.0, "scipy": 0.0, "numpy": 0.0, "ghz3d": 0.0}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            seconds = int(self_us) / 1e6
            by_top["total"] += seconds
            top = name.strip().split(".")[0]
            if top in by_top:
                by_top[top] += seconds
        runs.append(by_top)
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def machine_facts(seed: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass

    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba": importlib.util.find_spec("numba") is not None,
        "seed": seed,
    }


def _summary(runs: list[dict]) -> dict:
    """Attempted and failed jobs, first problems and the output digest."""
    digests = {}
    for r in runs:
        digests.update(r["digests"])
    combined = hashlib.sha256(json.dumps(sorted(digests.items(), key=lambda kv: int(kv[0]))).encode())
    return {
        "attempted": sum(len(r["jobs"]) for r in runs),
        "failed": sum(1 for r in runs for *_, good in r["jobs"] if not good),
        "problems": [p for r in runs for p in r["problems"]][:10],
        "digest": combined.hexdigest(),
        "digest_jobs": sorted(int(i) for i in digests),
    }


def end_to_end(workload: str, seed: int, seconds: float, work: Path, deadline: Deadline) -> tuple[dict, dict]:
    fresh = [worker("loop", workload, seed, 1 + k, FRESH, seconds / FRESH, work, deadline) for k in range(FRESH)]
    timed = [job for r in fresh for job in r["jobs"][1:]]
    ok = [wall for _, wall, good in timed if good]
    times = ok or [wall for _, wall, _ in timed]
    tail_s, tail_p = tail(times)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in fresh),
        "jobs_per_s": len(ok) / sum(wall for _, wall, _ in timed),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "first_job_s": statistics.median(r["first_job_s"] for r in fresh),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in fresh),
    }
    notes = {
        **_summary(fresh),
        "job_tail_percentile": tail_p,
        "timed_jobs": len(times),
        "fresh_interpreters": len(fresh),
    }
    return metrics, notes


def per_layer(workload: str, seed: int, seconds: float, work: Path, deadline: Deadline) -> tuple[dict, dict]:
    plain = worker("loop", workload, seed, 1, 1, seconds / 2, work, deadline)
    n = len(plain["jobs"]) - 1
    traced = worker("traced", workload, seed, 1, 1, n, work, deadline)
    recorded = json.loads((work / "spans.json").read_text())
    measured = set(range(1, n + 1))
    tot = spans.totals(recorded, measured)
    denom = max(n, 1)

    def per_job(span: str, key: str) -> float:
        return tot.get(span, {}).get(key, 0) / denom

    values = {_span_metric(span, k)[0]: per_job(span, k) for span, keys in PER_LAYER_SPANS for k in keys}
    post, proj = tot.get("states.postselect", {}), tot.get("elements.project", {})
    values["states.postselect.kept_frac"] = post.get("terms_out", 0) / max(post.get("terms_in", 0), 1)
    values["elements.project.kept_frac"] = proj.get("nonzero", 0) / max(proj.get("calls", 0), 1)
    values["counts.self_s"] = sum(t["self_s"] for s, t in tot.items() if s.startswith("counts.")) / denom
    for key, seconds_ in import_breakdown(workload, deadline).items():
        values[f"import.{key}_s"] = seconds_
    plain_jobs = plain["jobs"][1:]
    for command in workloads.COMMANDS:
        walls = [wall for (_, wall, _), c in zip(plain_jobs, plain["commands"][1:]) if c == command]
        values[f"cli.{command}.wall_s"] = statistics.median(walls) if walls else 0.0
    values["cli.bytes_written"] = sum(plain["bytes_written"][1:]) / denom
    values["trace.spans"] = sum(1 for s in recorded if s[spans.JOB] in measured) / denom
    traced_s = sum(wall for _, wall, _ in traced["jobs"][1:])
    plain_s = sum(wall for _, wall, _ in plain_jobs)
    values["trace.job_s"] = traced_s / denom
    values["trace.overhead_frac"] = traced_s / plain_s - 1 if plain_s else 0.0
    return values, _summary([plain, traced])


def report(workload: str, trace: bool, metrics: dict, notes: dict, units: dict) -> None:
    print(f"== {workload} ({'traced, per layer' if trace else 'untraced, end to end'})")
    for name, value in metrics.items():
        extra = ""
        if name == "job_tail_s":
            extra = f"  (p{notes['job_tail_percentile']:.0f} of {notes['timed_jobs']} jobs)"
        elif name == "job_p50_s":
            extra = f"  ({notes['timed_jobs']} jobs)"
        elif name in ("setup_s", "first_job_s"):
            extra = f"  (median of {notes['fresh_interpreters']} fresh interpreters)"
        print(f"  {name:<42} {value:>14.6g} {units[name]}{extra}")
    error_frac = notes["failed"] / notes["attempted"]
    print(f"  {'error_frac':<42} {error_frac:>14.6g} frac  ({notes['failed']} of {notes['attempted']} jobs)")
    print(f"  digest sha256 of the outputs of jobs {notes['digest_jobs']}: {notes['digest']}")
    for problem in notes["problems"]:
        print(f"  FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for needed in (ROOT / "src" / "ghz3d" / "__init__.py", ROOT / "tests" / "pipeline_oracle.py"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} not found; run from a ghz3d checkout", file=sys.stderr)
            return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = Deadline(BUDGET_S * len(names))
    units = dict(PER_LAYER if args.trace else END_TO_END)
    measure = per_layer if args.trace else end_to_end
    work = WORK / str(os.getpid())
    print(f"machine: {json.dumps(machine_facts(args.seed))}")
    merged, attempted, failed = {}, 0, 0
    try:
        for name in names:
            metrics, notes = measure(name, args.seed, args.seconds, work / name, deadline)
            report(name, bool(args.trace), metrics, notes, units)
            prefix = f"{name}." if len(names) > 1 else ""
            merged.update({prefix + k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
            attempted += notes["attempted"]
            failed += notes["failed"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
