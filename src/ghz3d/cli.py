"""Batch command-line front end.

Subcommands: ``simulate | hom | witness | mermin | counts``.  Each reads an
optional JSON config (defaults are built in), writes JSON/CSV artifacts into
``--out``, and is byte-deterministic for a fixed config and seed.  Numbers
are serialized with 12 significant digits.  Exit codes: 0 success, 2 config
or input validation failure, 1 internal error.

Each subcommand and config reader imports the ghz3d modules (and numpy) it
uses inside itself, so a command pays only for its own imports; keep this
module's top to the standard library (``tests/test_cold_start.py``).

File schemas are documented in docs/file-formats.md.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

if TYPE_CHECKING:
    from .experiment import PipelineConfig, SourceAmplitudes
    from .spectral import SpectralModel
    from .states import PhotonicState
    from ._checks import NoiseParams

DEFAULT_SEED = 333  # documented fixed default; three levels, three photons


class ConfigError(ValueError):
    """Invalid or unreadable configuration input."""


#: what building the dataclasses from read config values raises on a bad value
_BAD_INPUT = (AttributeError, KeyError, OverflowError, TypeError, ValueError)
_REQUIRED = object()  # the default of a config field that must be given


# --- deterministic serialization -------------------------------------------


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, numbers.Integral):  # numpy registers its integer scalars here
        return int(obj)
    if isinstance(obj, complex):
        return [_sig12(obj.real), _sig12(obj.imag)]
    if isinstance(obj, numbers.Real):  # and its floating scalars here
        return _sig12(float(obj))
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dump_json(obj: Any, path: Path) -> None:
    path.write_text(json.dumps(_jsonable(obj), indent=2, sort_keys=True, allow_nan=False) + "\n")


def state_to_dict(state: PhotonicState) -> dict:
    """JSON form of a photonic state (the debugging dump schema)."""
    return {
        "convention": "monomial",  # the only one; kept so dumps stay byte-stable
        "photon_number": state.photon_number,
        "terms": [
            {
                "modes": [{"path": m.path, "oam": m.oam, "tag": m.tag} for m in t.occupation],
                "amplitude": complex(t.amplitude),
            }
            for t in state.terms
        ],
    }


# --- config ingestion -------------------------------------------------------


def load_config(path: str | None) -> Any:
    if path is None:
        return {}
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return json.loads(raw)
    except ValueError as exc:  # JSONDecodeError, or an int literal past the digit limit
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


def _number(name: str, value: Any) -> float:
    """A JSON number as a float; anything else is a ConfigError naming the field."""
    if value is _REQUIRED:
        raise ConfigError(f"{name} is missing")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number: {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"numbers must fit a float: {name}={value}") from None


class _Section:
    """The JSON object ``value`` at the dotted ``path`` ("" for a file's root),
    with no key outside ``keys``.  Fields are named ``path.key``, entries of a
    map or array field ``path.key[k]``; reads check JSON types, coerce nothing.
    The methods go unannotated: each CLI run compiles cli.py, 3 % slower with them."""

    def __init__(self, value, path, keys):
        if not isinstance(value, dict):
            raise ConfigError(f"{path or 'the config root'} must be a JSON object: {value!r}")
        self.value, self.path, self.name = value, path, (path + ".{}").format if path else str
        unknown = sorted(set(value).difference(keys))
        if unknown:
            raise ConfigError(f"unknown config key: {', '.join(map(self.name, unknown))}")

    def get(self, key, kind, default):
        """The field ``key`` (``default`` when absent): a number if ``kind`` is float, else a ``kind``."""
        name, value = self.name(key), self.value.get(key, default)
        if kind is float or value is _REQUIRED:  # _number names a missing field too
            return _number(name, value)
        if key in self.value and not isinstance(value, kind):
            raise ConfigError(f"{name} must be a JSON {'array' if kind is list else 'object'}: {value!r}")
        return value

    def section(self, key, keys, default):
        return _Section(self.get(key, dict, default), self.name(key), keys)

    def numbers(self, key, kind, default):
        """The field ``key``, an object or array of numbers, by key or index."""
        value = self.get(key, kind, default)
        items = enumerate(value) if kind is list else value.items()
        return {k: _number(f"{self.name(key)}[{k}]", v) for k, v in items}

    def sections(self, key, keys):
        """The field ``key``, an array of objects with no key outside ``keys``."""
        return [_Section(v, f"{self.name(key)}[{i}]", keys) for i, v in enumerate(self.get(key, list, []))]

    def table(self, key, keys):
        """The field ``key``, an object holding a number for each of ``keys``."""
        entries = self.section(key, keys, {}).value
        return {k: _number(f"{self.name(key)}[{k}]", entries.get(k, _REQUIRED)) for k in keys}


def _source_from(s: _Section) -> SourceAmplitudes:
    """A source given as amplitudes, as ratios or not at all (balanced)."""
    from .experiment import SourceAmplitudes

    ratios = [k for k in ("c0_over_c1", "c1_over_c2") if k in s.value]
    amplitudes = [k for k in ("c0", "c1", "c2") if k in s.value]
    if ratios and amplitudes:
        raise ConfigError(f"{s.path} mixes amplitudes {amplitudes} with ratios {ratios}")
    if ratios:  # a wrong-typed c1_over_c2 is named before a missing c0_over_c1
        c1_over_c2 = s.get("c1_over_c2", float, math.inf)
        return SourceAmplitudes.from_ratios(s.get("c0_over_c1", float, _REQUIRED), c1_over_c2)
    if amplitudes:
        return SourceAmplitudes(*(s.get(k, float, 0.0) for k in ("c0", "c1", "c2")))
    return SourceAmplitudes.balanced()


def pipeline_config_from(cfg: Mapping[str, Any]) -> PipelineConfig:
    from .elements import ElementSpec, SorterConvention, _oam_keys
    from .experiment import CMP_KET, DEFAULT_MIRRORS, PipelineConfig

    try:
        keys = ("source1", "source2", "mirrors", "sorter", "overlap", "include_c2", "cmp", "elements")
        p = _Section(cfg.get("pipeline", {}), "pipeline", keys)
        sorter = p.section("sorter", ("odd_swaps", "swap_phase"), {})
        source_keys = ("c0", "c1", "c2", "c0_over_c1", "c1_over_c2")
        source1 = p.section("source1", source_keys, {})
        cmp = p.value.get("cmp", CMP_KET)  # null: no CMP projection
        elements = None if "elements" not in p.value else tuple(
            ElementSpec(e.get("kind", object, _REQUIRED), e.get("paths", list, []), e.get("params", dict, {}))
            for e in p.sections("elements", ("kind", "paths", "params"))
        )
        return PipelineConfig(
            source1=_source_from(source1),
            source2=_source_from(p.section("source2", source_keys, source1.value)),
            mirrors=p.numbers("mirrors", dict, DEFAULT_MIRRORS),
            sorter=SorterConvention(
                odd_swaps=sorter.get("odd_swaps", object, True),
                swap_phase=complex(sorter.get("swap_phase", float, 1.0)),
            ),
            overlap=p.get("overlap", float, 1.0),
            include_c2=p.get("include_c2", object, False),
            cmp_ket=None if cmp is None else _oam_keys("cmp", p.numbers("cmp", dict, CMP_KET)),
            elements_override=elements,
        )
    except _BAD_INPUT as exc:
        raise ConfigError(f"invalid pipeline config: {exc}") from exc


def spectral_model_from(cfg: Mapping[str, Any]) -> SpectralModel:
    from . import spectral

    base = spectral.SpectralModel.reference_defaults()
    try:
        keys = ("sigma_f_hz", "sigma_p_hz", "crystal_length_m", "delta_inv_gv_s_per_m", "lambda_c_m", "dip")
        s = _Section(cfg.get("spectral", {}), "spectral", keys)
        return spectral.SpectralModel(
            sigma_f=s.get("sigma_f_hz", float, base.sigma_f),
            sigma_p=s.get("sigma_p_hz", float, base.sigma_p),
            crystal_length=s.get("crystal_length_m", float, base.crystal_length),
            delta_inv_gv=s.get("delta_inv_gv_s_per_m", float, base.delta_inv_gv),
            lambda_c=s.get("lambda_c_m", float, base.lambda_c),
        )
    except _BAD_INPUT as exc:
        raise ConfigError(f"invalid spectral config: {exc}") from exc


def noise_params_from(cfg: Mapping[str, Any]) -> NoiseParams:
    from ._checks import NoiseParams

    base = NoiseParams.table1()
    try:
        n = _Section(cfg.get("noise", {}), "noise", ("p", "c", "weights"))
        return NoiseParams(
            p=n.get("p", float, base.p),
            c=n.get("c", float, base.c),
            weights=tuple(n.numbers("weights", list, base.weights).values()),
        )
    except _BAD_INPUT as exc:
        raise ConfigError(f"invalid noise config: {exc}") from exc


# --- subcommands -------------------------------------------------------------


def cmd_simulate(cfg: dict, out: Path, seed: int) -> int:
    from .experiment import GHZ_PATHS, classify_terms, logical_state_vector, run_pipeline

    pipeline = pipeline_config_from(cfg)
    result = run_pipeline(pipeline)
    cls = classify_terms(pipeline)
    report: dict[str, Any] = {
        "seed": seed,
        "success_probability": result.probability,
        "num_terms": result.bcd_state.num_terms,
    }
    dump_json(state_to_dict(result.bcd_state), out / "state.json")
    if result.relabel is not None:
        vec = logical_state_vector(result.bcd_state, result.relabel)
        g = 1.0 / math.sqrt(3.0)  # each nonzero amplitude of tomography.ideal_ghz()
        report["fidelity_vs_ghz"] = abs(g * vec[0] + g * vec[13] + g * vec[26]) ** 2
        # three equal terms, distinct OAM values per path: Schmidt form on every split, rank = levels
        report["srv"] = [len(result.relabel.by_path[p]) for p in GHZ_PATHS]
        report["relabel"] = result.relabel.to_dict()
    else:
        report["fidelity_vs_ghz"] = None
        report["srv"] = None
        report["relabel"] = None
    report["factorized"] = result.a_state is not None
    report["term_classification"] = {
        f"{k1}|{k2}": {
            "verdict": r.verdict,
            "hom_involved": r.hom_involved,
            "cmp_blocked": r.cmp_blocked,
            "probability": r.probability,
        }
        for (k1, k2), r in sorted(cls.combos.items())
    }
    amps = sorted(
        (abs(t.amplitude) for t in result.bcd_state.terms), reverse=True
    )
    if len(amps) == 3 and amps[-1] > 0:
        report["amplitude_ratio_even_over_odd"] = amps[0] / amps[-1]
    dump_json(report, out / "report.json")
    return 0


def cmd_hom(cfg: dict, out: Path, x_min: float, x_max: float, x_steps: int) -> int:
    import numpy as np

    from . import spectral

    model = spectral_model_from(cfg)
    try:  # spectral_model_from has checked the spectral section
        keys = ("baseline_cps", "visibility", "width_m", "center_m")
        d = _Section(cfg.get("spectral", {}).get("dip", {}), "spectral.dip", keys)
        dip = spectral.DipModel(
            baseline=d.get("baseline_cps", float, 1.0),
            visibility=spectral.visibility(model.sigma_f, model.sigma_gvm)
            if d.value.get("visibility") is None  # null or absent: the closed form
            else d.get("visibility", float, _REQUIRED),
            width=d.get("width_m", float, 800e-6),
            center=d.get("center_m", float, 0.0),
        )
    except _BAD_INPUT as exc:
        raise ConfigError(f"invalid dip config: {exc}") from exc
    # past sys.maxsize // 8 float64 samples an array's byte count overflows
    if not 2 <= x_steps <= sys.maxsize // 8:
        raise ConfigError(f"--x-steps must lie in [2, {sys.maxsize // 8}], got {x_steps}")
    if not math.isfinite(x_max - x_min):  # NaN or infinite ends, or a span past the float range
        raise ConfigError(f"--x-min and --x-max must span a finite range: {x_min}, {x_max}")
    xs = np.linspace(x_min, x_max, x_steps)
    rows = spectral.dip_curve(dip, xs)
    lines = [
        f"# four-fold dip model: baseline={dip.baseline:.12g} counts/s,"
        f" visibility={dip.visibility:.12g}, width={dip.width:.12g} m, center={dip.center:.12g} m",
        f"# spectral: sigma_f={model.sigma_f:.12g} Hz, sigma_gvm={model.sigma_gvm:.12g} Hz",
        "x_m,rate",
    ]
    lines += [f"{x:.12g},{r:.12g}" for x, r in rows]
    (out / "dip.csv").write_text("\n".join(lines) + "\n")
    return 0


def cmd_witness(cfg: dict, out: Path, seed: int, events: int) -> int:
    from . import tomography

    if events <= 0:
        raise ConfigError("--events must be positive")
    # the resamples take seed + 1, and both seeds key a 64-bit Philox
    if not 0 <= seed <= 2**64 - 2:
        raise ConfigError(f"--seed must lie in [0, 2**64 - 2] for witness, got {seed}")
    noise = noise_params_from(cfg)
    rho = tomography.noise_model(noise)
    plan = tomography.build_witness_plan()
    try:
        records = tomography.simulate_counts(rho, plan, events, seed=seed)
        f_est, sigma_f = tomography.estimate_fidelity(records, seed=seed + 1)
    except ValueError as exc:  # too few events for a diagonal count, or too many to sample
        raise ConfigError(f"--events {events} is out of range: {exc}") from exc
    ghz, _ = tomography.ideal_ghz()
    f_max = tomography.witness_bound(ghz)
    dump_json(
        {
            "F": f_est,
            "sigma_F": sigma_f,
            "F_max": f_max,
            "pass": bool(f_est > f_max),
            "events": events,
            "n_settings": len(plan),
            "seed": seed,
        },
        out / "witness.json",
    )
    lines = ["projB,projC,projD,counts,duration_s"]
    lines += [
        f"{r.descriptors[0]},{r.descriptors[1]},{r.descriptors[2]},{r.counts:.12g},1"
        for r in records
    ]
    (out / "elements.csv").write_text("\n".join(lines) + "\n")
    return 0


def cmd_mermin(cfg: dict, out: Path) -> int:
    from . import contradiction

    noise = noise_params_from(cfg)
    quantum = contradiction.ghz_expectation(contradiction.operator_entries())
    enum = contradiction.lr_enumerate()
    dump_json(
        {
            "quantum_value": quantum.real,
            "lr_max_modulus": enum.max_modulus,
            "lr_max_real": enum.max_real,
            "distinct_value_count": len(enum.distinct_values),
            "distinct_values": [{"a": z.a, "b": z.b} for z in enum.distinct_values],
            "noise_expectation": contradiction.noise_expectation(noise),
            "branch": 0,  # the principal fractional-power branch, the only one
        },
        out / "mermin.json",
    )
    return 0


def _derived(inputs: str, compute: Callable[[], Any]) -> Any:
    """``compute()``, a number or a dict of numbers derived from the rate file;
    an overflow, a zero division or a non-finite result is a ConfigError
    naming the rate-file ``inputs`` it is derived from."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.nan
    if not all(map(math.isfinite, value.values() if isinstance(value, dict) else [value])):
        raise ConfigError(f"rate file {inputs} are out of range: a derived value is not finite")
    return value


def cmd_counts(cfg: dict, out: Path) -> int:
    from . import counts as counts_mod

    rates = _Section(cfg, "", ("rep_rate_hz", "tau_int_s", "eta", "pair_rate_hz", "singles", "pairs"))
    try:
        model = counts_mod.RateModel(
            rep_rate=rates.get("rep_rate_hz", float, _REQUIRED),
            tau_int=rates.get("tau_int_s", float, _REQUIRED),
            eta=rates.get("eta", float, _REQUIRED),
            pair_rate=rates.get("pair_rate_hz", float, 0.0),
            singles=rates.table("singles", counts_mod.DETECTORS),
            pairs=rates.table("pairs", counts_mod.PAIR_KEYS),
        )
    except _BAD_INPUT as exc:
        raise ConfigError(f"invalid rate file: {exc}") from exc
    rep_rate, tau, eta, singles, pairs = model.rep_rate, model.tau_int, model.eta, model.singles, model.pairs

    keys = counts_mod.PAIR_KEYS
    pulse_inputs, acc_inputs = "pairs, rep_rate_hz, tau_int_s", "singles, rep_rate_hz, tau_int_s"
    pulses = _derived("rep_rate_hz, tau_int_s", lambda: rep_rate * tau)
    p_pair = _derived(pulse_inputs, lambda: {k: pairs[k] / pulses for k in keys})
    too_many = [f"pairs[{k}]={pairs[k]:.12g}" for k in keys if p_pair[k] > 1.0]
    if too_many:
        raise ConfigError(f"rate file pairs exceed the {pulses:.12g} pulses per window: {too_many}")
    p4 = counts_mod.fourfold_probability(
        p_pair["AB"], p_pair["CD"], p_pair["AC"], p_pair["BD"], p_pair["AD"], p_pair["BC"]
    )
    acc_rate = _derived(
        acc_inputs,
        lambda: {k: counts_mod.accidental_pair(singles[k[0]], singles[k[1]], tau, rep_rate) for k in keys},
    )
    acc_prob = {k: acc_rate[k] / rep_rate for k in keys}
    acc4 = _derived(f"{acc_inputs}, pairs", lambda: counts_mod.accidental_fourfold(acc_prob, p_pair) * pulses)
    p4_counts = _derived(pulse_inputs, lambda: p4 * pulses)
    mu = higher_order = None
    if model.pair_rate:
        mu_inputs = "pair_rate_hz, eta, rep_rate_hz"
        mu = _derived(mu_inputs, lambda: counts_mod.mean_photon_number(model.pair_rate, eta, rep_rate))
        higher_order = _derived(mu_inputs, lambda: counts_mod.higher_order_ratio(mu, eta))
    report = {
        "p4_probability_per_pulse": p4,
        "p4_predicted": p4_counts,
        "acc_pairs": acc_rate,
        "acc_pairs_per_window": _derived(acc_inputs, lambda: {k: v * tau for k, v in acc_rate.items()}),
        "acc_fourfold": acc4,
        "corrected": counts_mod.subtract(p4_counts, acc4),
        "mu": mu,
        "higher_order_ratio": higher_order,
    }
    dump_json(report, out / "counts.json")
    return 0


# --- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghz3d",
        description="Three-photon, three-dimensional GHZ experiment simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="JSON config path (defaults built in)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed")

    common(sub.add_parser("simulate", help="run the pipeline, write state.json and report.json"))

    hom = sub.add_parser("hom", help="write the four-fold dip curve dip.csv")
    common(hom)
    hom.add_argument("--x-min", type=float, default=-2e-3, help="scan start, m")
    hom.add_argument("--x-max", type=float, default=2e-3, help="scan end, m")
    hom.add_argument("--x-steps", type=int, default=81, help="number of samples")

    wit = sub.add_parser("witness", help="simulate the 219-setting witness run")
    common(wit)
    wit.add_argument("--events", type=int, default=1652, help="total expected four-fold events")

    common(sub.add_parser("mermin", help="write mermin.json with quantum and LR values"))
    common(sub.add_parser("counts", help="coincidence arithmetic from a rate file (--config)"))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command != "counts":  # one config file serves the other four commands
            _Section(cfg, "", ("pipeline", "spectral", "noise"))
        if args.command == "simulate":
            return cmd_simulate(cfg, out, args.seed)
        if args.command == "hom":
            return cmd_hom(cfg, out, args.x_min, args.x_max, args.x_steps)
        if args.command == "witness":
            return cmd_witness(cfg, out, args.seed, args.events)
        if args.command == "mermin":
            return cmd_mermin(cfg, out)
        if args.command == "counts":
            return cmd_counts(cfg, out)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
