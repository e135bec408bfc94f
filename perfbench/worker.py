"""One fresh interpreter of the benchmark.

    python3 perfbench/worker.py MODE WORKLOAD SEED FIRST STRIDE LIMIT WORK_DIR

It first times the import of the ``ghz3d`` modules the workload calls
(``setup_s``), then runs job 0 on its own (``first_job_s``), then jobs
FIRST, FIRST + STRIDE, FIRST + 2 STRIDE, ...  MODE says when to stop:

* ``loop``: once LIMIT seconds of wall time have passed.
* ``traced``: after LIMIT jobs, with the span tracer installed; the spans
  are written to WORK_DIR/spans.json at the end.

Every job is checked.  The last line of standard output is a JSON object
with the timings, the check results and the digests of the first outputs.
Only the standard library modules the interpreter loads at start-up are
imported before the timed import.
"""

import importlib
import os
import sys
import time

#: the ``ghz3d`` modules each workload calls; ``setup_s`` times their import
MODULES = {
    "state_sweep": ("ghz3d.states", "ghz3d.elements", "ghz3d.experiment"),
    "verify_dataset": (
        "ghz3d.tomography",
        "ghz3d.contradiction",
        "ghz3d.spectral",
        "ghz3d._kernels",
        "ghz3d.counts",
    ),
    "cli_cold": ("ghz3d.cli",),
}

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv: list[str]) -> int:
    mode, workload, seed, first, stride, limit, work = argv[1:8]
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    t0 = time.perf_counter()
    for name in MODULES[workload]:
        importlib.import_module(name)
    setup_s = time.perf_counter() - t0

    import hashlib
    import json
    import resource
    from pathlib import Path

    import spans
    import workloads

    tracer = None
    launcher = None
    if mode == "traced":
        if workload == "cli_cold":
            launcher = [os.path.join(HERE, "cli_launch.py")]
        else:
            tracer = spans.Tracer()
            spans.install(tracer)
    wl = workloads.WORKLOADS[workload](Path(work), launcher)
    seed = int(seed)
    jobs, problems, child_spans, written, digests = [], [], [], [], {}

    def run_job(i: int) -> float:
        spec = wl.spec(seed, i)
        arg = wl.prepare(spec, i)
        if tracer is not None:
            tracer.job = i
        t = time.perf_counter()
        try:
            out = wl.run(arg)
        except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
            wall = time.perf_counter() - t
            found = [f"job {i} raised {type(exc).__name__}: {exc}"]
            out = None
        else:
            wall = time.perf_counter() - t
            found = []
        finally:
            if tracer is not None:
                tracer.job = None
        if out is not None:
            try:
                out = wl.collect(out, i)
                job_spans = out.pop("spans", [])
                if job_spans:
                    base = len(child_spans)
                    child_spans.extend(s[:3] + [s[3] + base if s[3] >= 0 else -1] + s[4:] for s in job_spans)
                if tracer is None:
                    ref = wl.reference(spec, out)
                else:
                    with tracer.paused():
                        ref = wl.reference(spec, out)
                found = [f"job {i}: {p}" for p in wl.check(spec, out, ref)]
            except Exception as exc:  # noqa: BLE001
                found = [f"job {i} check raised {type(exc).__name__}: {exc}"]
            if len(digests) < workloads.DIGEST_JOBS:
                digests[i] = hashlib.sha256(workloads.canonical_bytes(out)).hexdigest()
        written.append(sum(len(b) for b in out.get("files", {}).values()) if out else 0)
        jobs.append([i, wall, not found])
        problems.extend(found)
        return wall

    first_job_s = run_job(0)
    i, stride = int(first), int(stride)
    if mode == "loop":
        start = time.perf_counter()
        while time.perf_counter() - start < float(limit):
            run_job(i)
            i += stride
    else:
        for _ in range(int(limit)):
            run_job(i)
            i += stride
        all_spans = tracer.spans if tracer is not None else child_spans
        Path(work, "spans.json").write_text(json.dumps(all_spans))

    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    result = {
        "setup_s": setup_s,
        "first_job_s": first_job_s,
        "jobs": jobs,
        "problems": problems,
        "digests": digests,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "bytes_written": written,
        "commands": [wl.spec(seed, i).get("command") for i, *_ in jobs],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
