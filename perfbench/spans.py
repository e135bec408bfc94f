"""In-memory span tracer for the traced benchmark run.

The tracer wraps public ``ghz3d`` functions from outside the package: each
wrapped call records a span ``[name, start, end, parent, job, counters]``.
Spans stay in a list until the run ends.  ``install`` replaces every alias
of a wrapped function in every loaded ``ghz3d`` module, so a sibling
module's own imported name (``experiment.apply``) is traced too.

A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

NAME, START, END, PARENT, JOB, COUNTERS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._paused = 0

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(args, kwargs, result)``
        returns the span's counters.  A call that raises gets
        ``{"failures": 1}``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[COUNTERS] = {"failures": 1}
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                span[COUNTERS] = count(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def paused(self):
        """Calls inside the block run unrecorded (the benchmark's own checks)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1


def _arg(fn, name: str):
    """Extractor of one bound argument (defaults applied) of ``fn``."""
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return get


def _p4_cost(args, kwargs, result):
    # computed from the quadrature order n, not measured: the I2 sum, the
    # n x n x n complex contraction for h, and the |h|^2 reduction
    n = len(args[0])
    return {"flops": 6 * n**3 + 14 * n**2, "bytes": 40 * n**2 + 24 * n}


def _resamples(tomography):
    get = _arg(tomography.estimate_fidelity, "n_resamples")
    return lambda a, k, r: {"resamples": get(a, k)}


def _targets(modules: dict) -> list[tuple]:
    """(span name, module, attribute, counter) of every wrapped function."""
    tm = modules.get("ghz3d.tomography")
    return [
        ("states.apply", "ghz3d.states", "apply", lambda a, k, r: {"terms_out": r.num_terms}),
        ("states.extend_identity", "ghz3d.states", "extend_identity", None),
        ("states.tensor", "ghz3d.states", "tensor", None),
        (
            "states.postselect",
            "ghz3d.states",
            "postselect",
            lambda a, k, r: {"terms_in": a[0].num_terms, "terms_out": r[0].num_terms},
        ),
        ("elements.build_element", "ghz3d.elements", "build_element", None),
        ("elements.project", "ghz3d.elements", "project", lambda a, k, r: {"nonzero": int(r[1] > 0)}),
        ("experiment.run_pipeline", "ghz3d.experiment", "run_pipeline", None),
        ("experiment.classify_terms", "ghz3d.experiment", "classify_terms", None),
        ("experiment.hom_scan", "ghz3d.experiment", "hom_scan", None),
        (
            "tomography.estimate_fidelity",
            "ghz3d.tomography",
            "estimate_fidelity",
            tm and _resamples(tm),
        ),
        ("tomography.offdiag_projectors", "ghz3d.tomography", "offdiag_projectors", None),
        ("tomography.simulate_counts", "ghz3d.tomography", "simulate_counts", lambda a, k, r: {"settings": len(r)}),
        ("tomography.noise_model", "ghz3d.tomography", "noise_model", None),
        ("tomography.witness_bound", "ghz3d.tomography", "witness_bound", None),
        ("contradiction.lr_enumerate", "ghz3d.contradiction", "lr_enumerate", None),
        ("contradiction.build_operators", "ghz3d.contradiction", "build_operators", None),
        ("contradiction.measurement_protocol", "ghz3d.contradiction", "measurement_protocol", None),
        ("spectral.p4_numeric", "ghz3d.spectral", "p4_numeric", None),
        ("spectral.fit_dip", "ghz3d.spectral", "fit_dip", None),
        ("kernels.lr_scan", "ghz3d._kernels", "lr_scan", lambda a, k, r: {"assignments": len(r[0])}),
        ("kernels.p4_sums", "ghz3d._kernels", "p4_sums", _p4_cost),
        *(
            (f"counts.{fn}", "ghz3d.counts", fn, None)
            for fn in (
                "fourfold_probability",
                "accidental_pair",
                "accidental_fourfold",
                "subtract",
                "mean_photon_number",
                "higher_order_ratio",
            )
        ),
        ("cli.dump_json", "ghz3d.cli", "dump_json", None),
    ]


def install(tracer: Tracer):
    """Wrap the targets of every loaded ``ghz3d`` module and all their aliases.

    Returns a function that puts the original functions back.
    """
    modules = {n: m for n, m in sys.modules.items() if n == "ghz3d" or n.startswith("ghz3d.")}
    replaced = []
    for span_name, module_name, attr, count in _targets(modules):
        if module_name not in modules:
            continue
        original = getattr(modules[module_name], attr)
        wrapped = tracer.wrap(span_name, original, count)
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    replaced.append((module, key, original))
    states = modules.get("ghz3d.states")
    if states is not None:
        linear_map = states.LinearMap
        replaced.append((linear_map, "check_unitary", linear_map.check_unitary))
        linear_map.check_unitary = tracer.wrap(
            "states.check_unitary", linear_map.check_unitary, lambda a, k, r: {"modes": len(a[0].entries)}
        )

    def restore() -> None:
        for owner, key, original in replaced:
            setattr(owner, key, original)

    return restore


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, lo, hi = 0.0, None, None
        for c in sorted(children[i], key=lambda c: spans[c][START]):
            cs, ce = max(spans[c][START], start), min(spans[c][END], end)
            if ce <= cs:
                continue
            if hi is None or cs > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = cs, ce
            else:
                hi = max(hi, ce)
        if hi is not None:
            covered += hi - lo
        out.append(end - start - covered)
    return out


def totals(spans: list[list], jobs: set[int]) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed self time and summed counters, over the
    spans that belong to ``jobs``."""
    out: dict[str, dict[str, float]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        if span[JOB] not in jobs:
            continue
        acc = out.setdefault(span[NAME], {"calls": 0, "self_s": 0.0})
        acc["calls"] += 1
        acc["self_s"] += self_s
        for key, value in (span[COUNTERS] or {}).items():
            acc[key] = acc.get(key, 0) + value
    return out
