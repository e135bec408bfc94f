"""The three benchmark workloads: seeded job generators, job runners and
per-job correctness checks.

A workload turns ``(seed, index)`` into a plain-data job spec, runs the spec
against the public ``ghz3d`` API (or CLI), and checks the outputs.  Each job
goes through four steps:

* ``spec(seed, i)``: the generated inputs.  Job 0 is the workload's
  reference job; it does not depend on the seed.
* ``run(spec)``: the timed work.  It returns the job's outputs as plain data.
* ``reference(spec, out)``: untimed values the checks compare against, taken
  from the independent oracle and from public-API identities.  The tracer is
  paused while it runs.
* ``check(spec, out, ref)``: pure comparisons.  It returns a list of
  problems; an empty list means the job is verified.

Nothing here imports ``ghz3d`` at module level, so a worker can time the
package import on its own.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: outputs each worker digests: job 0 and its first timed job, the same jobs
#: on every commit as long as each worker completes one timed job
DIGEST_JOBS = 2


def _rng(workload: str, seed: int, *tag: object) -> random.Random:
    return random.Random("/".join([workload, str(seed), *map(str, tag)]))


def _log_uniform(r: random.Random, lo: float, hi: float) -> float:
    return math.exp(r.uniform(math.log(lo), math.log(hi)))


def _sig(x: float) -> float:
    """12 significant digits, with -0.0 folded into 0.0."""
    return float(f"{x:.12g}") + 0.0


def canonical_bytes(obj: object) -> bytes:
    """Deterministic JSON of job outputs, numbers at 12 significant digits."""

    def norm(v):
        if isinstance(v, dict):
            return {str(k): norm(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [norm(x) for x in v]
        if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
            return v
        if isinstance(v, complex):
            return [_sig(v.real), _sig(v.imag)]
        if isinstance(v, bytes):
            return hashlib.sha256(v).hexdigest()
        return _sig(float(v))

    return json.dumps(norm(obj), sort_keys=True, separators=(",", ":")).encode()


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


class Workload:
    """Default hooks of an in-process workload; ``cli_cold`` overrides them."""

    name = ""

    def __init__(self, work: Path | None = None, launcher: list[str] | None = None) -> None:
        self.work = work
        self.launcher = launcher  # argv prefix of the traced CLI launcher, or None

    def prepare(self, spec: dict, i: int):
        """Untimed preparation; returns what ``run`` takes."""
        return spec

    def collect(self, out: dict, i: int) -> dict:
        """Untimed completion of the outputs after ``run``."""
        return out


# --- state_sweep ------------------------------------------------------------

MIRROR_STATIONS = (
    "a_pre_spp",
    "a_post_bs",
    "b_pre_sorter",
    "b_post_sorter",
    "b_post_bs",
    "c_pre_sorter",
    "c_post_sorter",
    "d",
)
DEFAULT_MIRRORS = {"a_post_bs": 1, "c_pre_sorter": 1}
SORTERS = ((True, 1.0), (True, -1.0), (False, 1.0), (False, -1.0))
REFERENCE_TERMS = [
    [["B", -1], ["C", -1], ["D", -1]],
    [["B", 2], ["C", 0], ["D", 0]],
    [["B", 3], ["C", 1], ["D", 1]],
]
FIG2_PROJECTORS = {"A": [[-1, 1.0, 0.0]], "B": [[1, 1.0, 0.0]], "C": [[-1, 1.0, 0.0]], "D": [[1, 1.0, 0.0]]}
BLOCK = 8


class StateSweep(Workload):
    """Generation half: one ``PipelineConfig`` per job.

    Jobs come in blocks of eight with a fixed mix: each sorter convention
    twice, c2 > 0 twice, overlap < 1 four times, and four mirror patterns
    with their four complements.  Only the assignment within a block and the continuous draws
    depend on the seed, so the cost mix of a run is the same for every seed.
    """

    name = "state_sweep"

    def spec(self, seed: int, i: int) -> dict:
        if i == 0:
            return {
                "reference": True,
                "mirrors": dict(DEFAULT_MIRRORS),
                "odd_swaps": True,
                "swap_phase": 1.0,
                "c0_over_c1": 1.0,
                "c1_over_c2": None,
                "overlap": 1.0,
                "projectors": [FIG2_PROJECTORS],
                "overlaps": [0.0, 0.5, 0.834, 1.0],
            }
        block, k = divmod(i - 1, BLOCK)
        rb = _rng(self.name, seed, "block", block)
        sorters = list(SORTERS) * 2
        rb.shuffle(sorters)
        with_c2 = [True] * 2 + [False] * 6
        rb.shuffle(with_c2)
        mixed = [True] * 4 + [False] * 4
        rb.shuffle(mixed)
        # each drawn pattern comes with its complement: the element chain is
        # 3 + popcount(pattern) long, so the pairs keep the chain-length mix
        # (and thus the job-cost mix) symmetric around 4 mirrors in every block
        drawn = rb.sample(range(128), BLOCK // 2)
        patterns = [p for d in drawn for p in (d, 255 - d)]
        rb.shuffle(patterns)
        r = _rng(self.name, seed, "job", i)
        projectors = [FIG2_PROJECTORS]
        for _ in range(2):
            a1, a2 = r.sample((-1, 0, 1, 2, 3), 2)
            phase = cmath.exp(1j * r.uniform(0.0, 2 * math.pi)) / math.sqrt(2.0)
            projectors.append(
                {
                    "A": [[a1, 1 / math.sqrt(2.0), 0.0], [a2, phase.real, phase.imag]],
                    "B": [[r.choice((2, 3, -1, 1, -2, 0)), 1.0, 0.0]],
                    "C": [[r.choice((-1, 0, 1)), 1.0, 0.0]],
                    "D": [[r.choice((-1, 0, 1)), 1.0, 0.0]],
                }
            )
        odd_swaps, swap_phase = sorters[k]
        return {
            "reference": False,
            "mirrors": {s: (patterns[k] >> b) & 1 for b, s in enumerate(MIRROR_STATIONS)},
            "odd_swaps": odd_swaps,
            "swap_phase": swap_phase,
            "c0_over_c1": _log_uniform(r, 0.5, 2.0),
            "c1_over_c2": r.uniform(1.5, 4.0) if with_c2[k] else None,
            "overlap": r.random() if mixed[k] else 1.0,
            "projectors": projectors,
            "overlaps": sorted([0.0, r.random(), r.random(), 1.0]),
        }

    @staticmethod
    def config(spec: dict):
        from ghz3d import elements, experiment

        c1_over_c2 = spec["c1_over_c2"]
        amps = experiment.SourceAmplitudes.from_ratios(
            spec["c0_over_c1"], math.inf if c1_over_c2 is None else c1_over_c2
        )
        return experiment.PipelineConfig(
            source1=amps,
            source2=amps,
            mirrors=spec["mirrors"],
            sorter=elements.SorterConvention(spec["odd_swaps"], spec["swap_phase"]),
            overlap=spec["overlap"],
            include_c2=c1_over_c2 is not None,
            # the oracle models the full detected window, not the c2-free one
            restrict_detection=False,
        )

    def run(self, spec: dict) -> dict:
        from ghz3d import elements, experiment

        cfg = self.config(spec)
        res = experiment.run_pipeline(cfg)
        cls = experiment.classify_terms(cfg)
        scans = []
        for setting in spec["projectors"]:
            proj = {
                path: elements.Projector1.of(path, {ell: complex(re, im) for ell, re, im in ket})
                for path, ket in setting.items()
            }
            scans.append([list(p) for p in experiment.hom_scan(cfg, proj, spec["overlaps"])])
        return {
            "probability": res.probability,
            "terms": sorted(
                [[[m.path, m.oam] for m in t.occupation], t.amplitude] for t in res.bcd_state.terms
            ),
            "classification": {
                f"{k1}|{k2}": [r.verdict, r.hom_involved, r.cmp_blocked, r.probability]
                for (k1, k2), r in sorted(cls.combos.items())
            },
            "hom": scans,
        }

    def reference(self, spec: dict, out: dict) -> dict:
        if not (spec["odd_swaps"] and spec["swap_phase"] == 1.0):
            return {}  # the oracle hard-codes the default sorter convention
        expand = _oracle().expand
        c0, c1, c2 = _amplitudes(spec)
        o = spec["overlap"]

        def mix(p_ind: float, p_dis: float, w: float) -> float:
            return p_ind if w == 1.0 else w * p_ind + (1 - w) * p_dis

        p_ind = expand(c0, c1, c2, mirrors=spec["mirrors"])[1]
        p_dis = expand(c0, c1, c2, mirrors=spec["mirrors"], distinct_tags=True)[1]
        hom = []
        for setting in spec["projectors"]:
            proj = {path: {ell: complex(re, im) for ell, re, im in ket} for path, ket in setting.items()}
            h_ind = expand(c0, c1, c2, mirrors=spec["mirrors"], projectors=proj)[1]
            h_dis = expand(c0, c1, c2, mirrors=spec["mirrors"], distinct_tags=True, projectors=proj)[1]
            hom.append([mix(h_ind, h_dis, w) for w in spec["overlaps"]])
        return {"probability": mix(p_ind, p_dis, o), "hom": hom}

    def check(self, spec: dict, out: dict, ref: dict) -> list[str]:
        problems = []
        if not -1e-12 <= out["probability"] <= 1 + 1e-12:
            problems.append(f"probability {out['probability']} outside [0, 1]")
        cls = out["classification"]
        verdicts = [v[0] for v in cls.values()]
        if len(cls) != 9:
            problems.append(f"classification has {len(cls)} combos, not 9")
        if any(not -1e-12 <= v[3] <= 1 + 1e-12 for v in cls.values()):
            problems.append("combo probability outside [0, 1]")
        for scan in out["hom"]:
            if any(not -1e-12 <= p <= 1 + 1e-12 for _, p in scan):
                problems.append("hom_scan probability outside [0, 1]")
        if "probability" in ref and not _close(out["probability"], ref["probability"], 1e-12):
            problems.append(f"probability {out['probability']} != oracle {ref['probability']}")
        for scan, want in zip(out["hom"], ref.get("hom", [])):
            if any(not _close(p, w, 1e-12) for (_, p), w in zip(scan, want)):
                problems.append("hom_scan differs from the oracle")
        if spec["reference"]:
            counts = [verdicts.count(v) for v in ("SURVIVES", "PARITY_BLOCKED", "CROSS_BLOCKED")]
            if counts != [3, 4, 2]:
                problems.append(f"reference config classifies as {counts}, not 3/4/2")
            if [t for t, _ in out["terms"]] != REFERENCE_TERMS:
                problems.append("reference config term set differs")
        return problems


def _amplitudes(spec: dict) -> tuple[float, float, float]:
    """(c0, c1, c2) from the spec's ratios, normalized independently of ghz3d."""
    c0, c1 = spec["c0_over_c1"], 1.0
    c2 = 0.0 if spec["c1_over_c2"] is None else 1.0 / spec["c1_over_c2"]
    n = math.sqrt(c0 * c0 + 2 * c1 * c1 + 2 * c2 * c2)
    return c0 / n, c1 / n, c2 / n


_ORACLE = None


def _oracle():
    """``tests/pipeline_oracle.py`` of the checkout, loaded read-only."""
    global _ORACLE
    if _ORACLE is None:
        import importlib.util

        path = ROOT / "tests" / "pipeline_oracle.py"
        module_spec = importlib.util.spec_from_file_location("pipeline_oracle", path)
        _ORACLE = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(_ORACLE)
    return _ORACLE


# --- verify_dataset ---------------------------------------------------------

TABLE1 = {"p": 0.878, "c": 0.817, "weights": [0.685, 0.588, 0.491]}
#: Mermin-operator prefactors (omega exponents) of the nine concurrent products
MERMIN_PREFACTORS = {
    "XXX": 0, "YYY": -1, "WWW": -2, "XYW": -1, "XWY": -1, "YXW": -1, "YWX": -1, "WXY": -1, "WYX": -1,
}
OMEGA = cmath.exp(2j * math.pi / 3)


class VerifyDataset(Workload):
    """Verification half: one simulated lab dataset per job."""

    name = "verify_dataset"

    def spec(self, seed: int, i: int) -> dict:
        if i == 0:
            return {
                "noise": dict(TABLE1),
                "events": 1652,
                "count_seed": 333,
                "resample_seed": 334,
                "filter_m": 1.2e-9,
                "pump_m": 2e-9,
                "crystal_length_m": 1e-3,
                "baseline_counts": 1000.0,
                "hom_seed": 1,
                "rates": {
                    "rep_rate_hz": 76e6,
                    "tau_int_s": 1.0,
                    "eta": 0.2,
                    "pair_rate_hz": 5e4,
                    "singles": {d: 4e5 for d in "ABCD"},
                    "pairs": {k: 1e4 for k in ("AB", "AC", "AD", "BC", "BD", "CD")},
                },
            }
        r = _rng(self.name, seed, "job", i)
        return {
            "noise": {
                "p": TABLE1["p"] + r.uniform(-0.05, 0.05),
                "c": TABLE1["c"] + r.uniform(-0.05, 0.05),
                "weights": [w * r.uniform(0.85, 1.15) for w in TABLE1["weights"]],
            },
            "events": round(_log_uniform(r, 500, 20000)),
            "count_seed": r.randrange(2**32),
            "resample_seed": r.randrange(2**32),
            # sigma_f / sigma_s stays below ~1.85: p4_numeric's default
            # quadrature order stops converging near 2.2
            "filter_m": 1.2e-9 * r.uniform(0.6, 1.4),
            "pump_m": 2e-9 * r.uniform(0.7, 1.5),
            "crystal_length_m": 1e-3 * r.uniform(0.7, 1.3),
            "baseline_counts": r.uniform(300, 3000),
            "hom_seed": r.randrange(2**32),
            "rates": {
                "rep_rate_hz": 76e6 * r.uniform(0.9, 1.1),
                "tau_int_s": r.uniform(0.5, 2.0),
                "eta": r.uniform(0.1, 0.3),
                "pair_rate_hz": r.uniform(1e4, 1e5),
                "singles": {d: r.uniform(2e5, 6e5) for d in "ABCD"},
                "pairs": {k: r.uniform(1e3, 3e4) for k in ("AB", "AC", "AD", "BC", "BD", "CD")},
            },
        }

    _plan = None

    @staticmethod
    def model(spec: dict):
        from ghz3d import spectral

        return spectral.SpectralModel(
            sigma_f=spectral.wavelength_to_bandwidth(spec["filter_m"], 808e-9),
            sigma_p=spectral.wavelength_to_bandwidth(spec["pump_m"], 404e-9),
            crystal_length=spec["crystal_length_m"],
            delta_inv_gv=1.6e-9,
            lambda_c=808e-9,
        )

    @staticmethod
    def delays(sigma_f: float) -> list[float]:
        """Symmetric delay grid reaching the dip baseline, in seconds."""
        return [k * 0.75 / sigma_f for k in range(-12, 13)]

    def run(self, spec: dict) -> dict:
        import numpy as np

        from ghz3d import contradiction, counts, spectral, tomography

        if self._plan is None:  # a constant of the workload, built on first use
            self._plan = tomography.build_witness_plan()
        noise = tomography.NoiseParams(spec["noise"]["p"], spec["noise"]["c"], tuple(spec["noise"]["weights"]))
        rho = tomography.noise_model(noise)
        records = tomography.simulate_counts(rho, self._plan, spec["events"], seed=spec["count_seed"])
        f_est, sigma_f = tomography.estimate_fidelity(records, seed=spec["resample_seed"])
        ghz, rho_ghz = tomography.ideal_ghz()
        f_max = tomography.witness_bound(ghz)

        ops = contradiction.build_operators()
        operator = contradiction.mermin_operator(ops)
        products = {}
        for names in MERMIN_PREFACTORS:
            probs = contradiction.measurement_protocol(names, rho, ops)
            products[names] = [float(probs.sum()), contradiction.expected_product(probs)]
        enum = contradiction.lr_enumerate()

        model = self.model(spec)
        delays = self.delays(model.sigma_f)
        p4 = [spectral.p4_numeric(model, dt) for dt in delays]
        lam = spec["baseline_counts"] * np.asarray(p4) / max(p4)
        sampled = np.random.Generator(np.random.Philox(key=np.uint64(spec["hom_seed"]))).poisson(lam)
        positions = [dt * spectral.C_LIGHT for dt in delays]
        fit = spectral.fit_dip(list(zip(positions, sampled.astype(float).tolist())))

        rates = spec["rates"]
        pulses = rates["rep_rate_hz"] * rates["tau_int_s"]
        p_pair = {k: v / pulses for k, v in rates["pairs"].items()}
        p4_pulse = counts.fourfold_probability(
            p_pair["AB"], p_pair["CD"], p_pair["AC"], p_pair["BD"], p_pair["AD"], p_pair["BC"]
        )
        acc = {
            k: counts.accidental_pair(
                rates["singles"][k[0]], rates["singles"][k[1]], rates["tau_int_s"], rates["rep_rate_hz"]
            )
            / rates["rep_rate_hz"]
            for k in p_pair
        }
        acc4 = counts.accidental_fourfold(acc, p_pair) * pulses
        mu = counts.mean_photon_number(rates["pair_rate_hz"], rates["eta"], rates["rep_rate_hz"])
        return {
            "witness": {"F": f_est, "sigma_F": sigma_f, "F_max": f_max},
            "mermin": {
                "quantum_value": contradiction.quantum_expectation(operator, rho_ghz),
                "noise_matrix": contradiction.quantum_expectation(operator, rho),
                "noise_closed": contradiction.noise_expectation(noise),
                "products": products,
                "lr_count": enum.count,
                "lr_max_modulus_sq": enum.max_modulus_sq,
                "lr_distinct": len(enum.distinct_values),
            },
            "hom": {
                "p4": p4,
                "fit": [fit.baseline, fit.visibility, fit.width, fit.center],
            },
            "counts": {
                "p4_predicted": p4_pulse * pulses,
                "acc_fourfold": acc4,
                "corrected": counts.subtract(p4_pulse * pulses, acc4),
                "mu": mu,
                "higher_order_ratio": counts.higher_order_ratio(mu, rates["eta"]),
            },
        }

    def reference(self, spec: dict, out: dict) -> dict:
        from ghz3d import spectral, tomography

        noise = tomography.NoiseParams(spec["noise"]["p"], spec["noise"]["c"], tuple(spec["noise"]["weights"]))
        rho = tomography.noise_model(noise)
        plan = tomography.build_witness_plan()
        expected = tomography.simulate_counts(rho, plan, spec["events"], sample=False)
        f_unsampled, _ = tomography.estimate_fidelity(expected, n_resamples=0)
        ghz, _ = tomography.ideal_ghz()
        model = self.model(spec)
        return {
            "F_unsampled": f_unsampled,
            "F_exact": tomography.fidelity(rho, ghz),
            "visibility_numeric": spectral.visibility_numeric(model, order=48),
            "visibility_predicted": model.predicted_visibility(),
            "p4_limit": spectral.p4_limit(model),
        }

    def check(self, spec: dict, out: dict, ref: dict) -> list[str]:
        problems = []
        w, m, h, c = out["witness"], out["mermin"], out["hom"], out["counts"]
        if not _close(ref["F_unsampled"], ref["F_exact"], 1e-9):
            problems.append(f"unsampled F {ref['F_unsampled']} != Tr(rho GHZ) {ref['F_exact']}")
        if not (0 < w["sigma_F"] < 1 and abs(w["F"] - ref["F_exact"]) < 10 * w["sigma_F"]):
            problems.append(f"F {w['F']} +- {w['sigma_F']} inconsistent with {ref['F_exact']}")
        if not _close(w["F_max"], 2 / 3, 1e-12):
            problems.append(f"F_max {w['F_max']} != 2/3")
        if not _close(m["quantum_value"].real, 9.0, 1e-9):
            problems.append(f"Mermin quantum value {m['quantum_value']} != 9")
        if not _close(m["noise_closed"], m["noise_matrix"].real, 1e-9):
            problems.append("noise_expectation != noise_expectation_matrix")
        total = sum(OMEGA ** MERMIN_PREFACTORS[n] * e for n, (_, e) in m["products"].items())
        if abs(total - m["noise_matrix"]) > 1e-9:
            problems.append("Mermin sum of measured products != Tr(rho O)")
        if any(not _close(s, 1.0, 1e-9) for s, _ in m["products"].values()):
            problems.append("a measurement distribution does not sum to 1")
        if (m["lr_count"], m["lr_max_modulus_sq"], m["lr_distinct"]) != (19683, 36, 16):
            problems.append("LR enumeration differs from 19683 / max modulus 6 / 16 values")
        if not _close(ref["visibility_numeric"], ref["visibility_predicted"], 1e-9):
            problems.append("visibility_numeric != predicted_visibility")
        p4 = h["p4"]
        mid = len(p4) // 2
        # p4_numeric guarantees its value only to its convergence rtol of 1e-6
        if not _close(1 - p4[mid] / ref["p4_limit"], ref["visibility_predicted"], 1e-6):
            problems.append("P4 dip depth differs from the predicted visibility")
        if any(not _close(a, b, 1e-9 * abs(a)) for a, b in zip(p4, reversed(p4))):
            problems.append("P4 is not even in the delay")
        baseline, vis, width, center = h["fit"]
        if not (abs(vis - ref["visibility_predicted"]) < 0.1 and abs(center) < width):
            problems.append(f"dip fit visibility {vis} far from {ref['visibility_predicted']}")
        values = list(c.values())
        if any(not (math.isfinite(v) and v >= 0) for v in values) or c["corrected"] > c["p4_predicted"]:
            problems.append("count arithmetic gave a negative or non-finite value")
        return problems


# --- cli_cold ---------------------------------------------------------------

COMMANDS = ("simulate", "hom", "witness", "mermin", "counts")
CLI_ENTRY = "import sys; from ghz3d.cli import main; sys.exit(main())"


class CliCold(Workload):
    """The same layers used once per fresh process, as the CLI runs them."""

    name = "cli_cold"

    def spec(self, seed: int, i: int) -> dict:
        if i == 0:
            return {"command": "simulate", "config": None, "args": []}
        command = COMMANDS[(i - 1) % len(COMMANDS)]
        r = _rng(self.name, seed, "job", i)
        noise = {
            "p": TABLE1["p"] + r.uniform(-0.05, 0.05),
            "c": TABLE1["c"] + r.uniform(-0.05, 0.05),
            "weights": [w * r.uniform(0.85, 1.15) for w in TABLE1["weights"]],
        }
        if command == "simulate":
            odd_swaps, swap_phase = r.choice(SORTERS)
            pattern = r.randrange(256)
            config = {
                "pipeline": {
                    "source1": {"c0_over_c1": _log_uniform(r, 0.5, 2.0)},
                    "mirrors": {s: (pattern >> b) & 1 for b, s in enumerate(MIRROR_STATIONS)},
                    "sorter": {"odd_swaps": odd_swaps, "swap_phase": swap_phase},
                    "overlap": r.random() if r.random() < 0.5 else 1.0,
                }
            }
            args = ["--seed", str(r.randrange(2**31))]
        elif command == "hom":
            config = {
                "spectral": {
                    "sigma_f_hz": 5.5e11 * r.uniform(0.6, 1.6),
                    "dip": {
                        "baseline_cps": r.uniform(1.0, 100.0),
                        "width_m": 800e-6 * r.uniform(0.7, 1.4),
                        "center_m": r.uniform(-1e-4, 1e-4),
                    },
                }
            }
            args = ["--x-steps", str(r.randrange(41, 401))]
        elif command == "witness":
            config = {"noise": noise}
            args = ["--seed", str(r.randrange(2**31)), "--events", str(round(_log_uniform(r, 500, 20000)))]
        elif command == "mermin":
            config = {"noise": noise}
            args = []
        else:
            config = {
                "rep_rate_hz": 76e6 * r.uniform(0.9, 1.1),
                "tau_int_s": r.uniform(0.5, 2.0),
                "eta": r.uniform(0.1, 0.3),
                "pair_rate_hz": r.uniform(1e4, 1e5),
                "singles": {d: r.uniform(2e5, 6e5) for d in "ABCD"},
                "pairs": {k: r.uniform(1e3, 3e4) for k in ("AB", "AC", "AD", "BC", "BD", "CD")},
            }
            args = []
        return {"command": command, "config": config, "args": args}

    def argv(self, spec: dict, out_dir: Path) -> list[str]:
        argv = [spec["command"], "--out", str(out_dir), *spec["args"]]
        if spec["config"] is not None:
            cfg = out_dir.parent / "config.json"
            cfg.write_text(json.dumps(spec["config"]))
            argv += ["--config", str(cfg)]
        return argv

    def prepare(self, spec: dict, i: int) -> list[str]:
        """Child argv for one job; the job directory is made before timing."""
        job_dir = self.work / f"job-{i}"
        shutil.rmtree(job_dir, ignore_errors=True)
        (job_dir / "out").mkdir(parents=True)
        prefix = [*self.launcher, str(job_dir / "spans.json"), str(i)] if self.launcher else ["-c", CLI_ENTRY]
        return [sys.executable, *prefix, *self.argv(spec, job_dir / "out")]

    def run(self, argv: list[str]) -> dict:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, timeout=150)
        return {"returncode": proc.returncode, "stderr": proc.stderr.decode(errors="replace")[-500:]}

    def collect(self, out: dict, i: int) -> dict:
        """Artifacts (and, when traced, spans) of the finished job."""
        job_dir = self.work / f"job-{i}"
        out_dir = job_dir / "out"
        out["files"] = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        spans = job_dir / "spans.json"
        out["spans"] = json.loads(spans.read_text()) if spans.exists() else []
        shutil.rmtree(job_dir)
        return out

    def reference(self, spec: dict, out: dict) -> dict:
        return {}

    def check(self, spec: dict, out: dict, ref: dict) -> list[str]:
        if out["returncode"] != 0:
            return [f"exit code {out['returncode']}: {out['stderr'].strip()}"]
        files = out["files"]
        want = {
            "simulate": ["report.json", "state.json"],
            "hom": ["dip.csv"],
            "witness": ["elements.csv", "witness.json"],
            "mermin": ["mermin.json"],
            "counts": ["counts.json"],
        }[spec["command"]]
        if sorted(files) != want:
            return [f"artifacts {sorted(files)} != {want}"]
        try:
            parsed = {name: _parse(name, data) for name, data in files.items()}
        except ValueError as exc:
            return [f"artifact does not parse: {exc}"]
        problems = []
        command = spec["command"]
        if command == "simulate":
            report = parsed["report.json"]
            if len(report["term_classification"]) != 9 or not 0 <= report["success_probability"] <= 1:
                problems.append("report.json lacks 9 combos or a probability in [0, 1]")
        elif command == "hom":
            steps = int(spec["args"][1])
            if len(parsed["dip.csv"]) != steps or any(rate < 0 for _, rate in parsed["dip.csv"]):
                problems.append("dip.csv has the wrong row count or a negative rate")
        elif command == "witness":
            wit = parsed["witness.json"]
            if len(parsed["elements.csv"]) != 219 or wit["n_settings"] != 219 or not _close(wit["F_max"], 2 / 3, 1e-9):
                problems.append("witness artifacts lack 219 settings or F_max = 2/3")
        elif command == "mermin":
            mer = parsed["mermin.json"]
            if (mer["lr_max_modulus"], mer["distinct_value_count"]) != (6, 16) or not _close(mer["quantum_value"], 9.0, 1e-9):
                problems.append("mermin.json differs from quantum 9 / LR max 6 / 16 values")
        else:
            cnt = parsed["counts.json"]
            if not all(math.isfinite(cnt[k]) and cnt[k] >= 0 for k in ("p4_predicted", "acc_fourfold", "corrected")):
                problems.append("counts.json has a negative or non-finite count")
        return problems


def _parse(name: str, data: bytes):
    """JSON artifacts as objects; CSV artifacts as their numeric columns."""
    if name.endswith(".json"):
        return json.loads(data)
    lines = [ln for ln in data.decode().splitlines() if ln and not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    numeric = slice(0, 2) if name == "dip.csv" else slice(3, 5)
    return [[float(x) for x in row[numeric]] for row in rows]


def child_env() -> dict:
    """Environment of every child: this checkout's sources, fixed hashing."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


WORKLOADS = {"state_sweep": StateSweep, "verify_dataset": VerifyDataset, "cli_cold": CliCold}
