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
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

if TYPE_CHECKING:
    from .experiment import PipelineConfig, SourceAmplitudes
    from .spectral import SpectralModel
    from .states import PhotonicState
    from .tomography import NoiseParams

DEFAULT_SEED = 333  # documented fixed default; three levels, three photons


class ConfigError(ValueError):
    """Invalid or unreadable configuration input."""


#: what reading a malformed config value raises: a wrong type, a bad value, a
#: missing key, or an int too large for a float
_BAD_INPUT = (AttributeError, KeyError, OverflowError, TypeError, ValueError)


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


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except ValueError as exc:  # JSONDecodeError, or an int literal past the digit limit
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _known(section: Any, prefix: str, keys: Iterable[str]) -> None:
    """A ConfigError naming, as ``prefix + key``, each key of the JSON object
    ``section`` outside ``keys``; a section that is no object is left to its
    reader to reject."""
    unknown = sorted(set(section).difference(keys)) if isinstance(section, Mapping) else []
    if unknown:
        raise ConfigError(f"unknown config key: {', '.join(prefix + str(k) for k in unknown)}")


def _number(name: str, value: Any) -> int | float:
    """``value`` if it is a JSON number; a string, a bool or anything else is a
    ConfigError naming the field, so that no value is coerced into a number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number: {value!r}")
    return value


def _real(section: Mapping[str, Any], prefix: str, key: str, default: float) -> float:
    """``section[key]``, or ``default`` when absent, as a float; see :func:`_number`."""
    return float(_number(prefix + key, section.get(key, default)))


def _source_from(name: str, cfg: Mapping[str, Any] | None) -> SourceAmplitudes:
    """Source ``name``'s amplitudes, given either as ``c0``/``c1``/``c2`` or as
    the ratios ``c0_over_c1``/``c1_over_c2``; a config mixing the two forms
    is a ConfigError naming ``pipeline.<name>``."""
    from .experiment import SourceAmplitudes

    _known(cfg, f"pipeline.{name}.", ("c0", "c1", "c2", "c0_over_c1", "c1_over_c2"))
    if not cfg:
        return SourceAmplitudes.balanced()
    ratios = [k for k in ("c0_over_c1", "c1_over_c2") if k in cfg]
    amplitudes = [k for k in ("c0", "c1", "c2") if k in cfg]
    if ratios and amplitudes:
        raise ConfigError(f"pipeline.{name} mixes amplitudes {amplitudes} with ratios {ratios}")
    prefix = name + "."
    if ratios:
        if "c0_over_c1" not in cfg:
            raise ConfigError(f"pipeline.{name}.c0_over_c1 is missing: c1_over_c2 alone gives no amplitudes")
        return SourceAmplitudes.from_ratios(
            _real(cfg, prefix, "c0_over_c1", 0.0), _real(cfg, prefix, "c1_over_c2", math.inf)
        )
    return SourceAmplitudes(*(_real(cfg, prefix, key, 0.0) for key in ("c0", "c1", "c2")))


def pipeline_config_from(cfg: Mapping[str, Any]) -> PipelineConfig:
    from .elements import ElementSpec, SorterConvention, _oam_keys
    from .experiment import DEFAULT_MIRRORS, PipelineConfig

    p = cfg.get("pipeline", {})
    pipeline_keys = ("source1", "source2", "mirrors", "sorter", "overlap", "include_c2", "cmp", "elements")
    _known(p, "pipeline.", pipeline_keys)
    try:
        sorter_cfg = p.get("sorter", {})
        _known(sorter_cfg, "pipeline.sorter.", ("odd_swaps", "swap_phase"))
        sorter = SorterConvention(
            odd_swaps=sorter_cfg.get("odd_swaps", True),
            swap_phase=complex(_real(sorter_cfg, "sorter.", "swap_phase", 1.0)),
        )
        cmp_raw = p.get("cmp", "default")
        if cmp_raw == "default":
            kwargs: dict[str, Any] = {}
        elif cmp_raw is None:
            kwargs = {"cmp_ket": None}
        else:
            cmp_ket = {k: complex(_number(f"cmp[{k}]", v)) for k, v in cmp_raw.items()}
            kwargs = {"cmp_ket": _oam_keys("cmp", cmp_ket)}
        elements_raw = p.get("elements")
        if elements_raw is not None:
            for i, e in enumerate(elements_raw):
                _known(e, f"pipeline.elements[{i}].", ("kind", "paths", "params"))
            kwargs["elements_override"] = tuple(ElementSpec.from_dict(e) for e in elements_raw)
        mirrors = dict(p.get("mirrors", DEFAULT_MIRRORS))
        for station, count in mirrors.items():
            _number(f"mirrors[{station}]", count)
        return PipelineConfig(
            source1=_source_from("source1", p.get("source1")),
            source2=_source_from("source2", p.get("source2", p.get("source1"))),
            mirrors=mirrors,
            sorter=sorter,
            overlap=_real(p, "", "overlap", 1.0),
            include_c2=p.get("include_c2", False),
            **kwargs,
        )
    except _BAD_INPUT as exc:
        raise ConfigError(f"invalid pipeline config: {exc}") from exc


def spectral_model_from(cfg: Mapping[str, Any]) -> SpectralModel:
    from . import spectral

    s = cfg.get("spectral", {})
    spectral_keys = ("sigma_f_hz", "sigma_p_hz", "crystal_length_m", "delta_inv_gv_s_per_m", "lambda_c_m", "dip")
    _known(s, "spectral.", spectral_keys)
    base = spectral.SpectralModel.reference_defaults()
    try:
        return spectral.SpectralModel(
            sigma_f=_real(s, "", "sigma_f_hz", base.sigma_f),
            sigma_p=_real(s, "", "sigma_p_hz", base.sigma_p),
            crystal_length=_real(s, "", "crystal_length_m", base.crystal_length),
            delta_inv_gv=_real(s, "", "delta_inv_gv_s_per_m", base.delta_inv_gv),
            lambda_c=_real(s, "", "lambda_c_m", base.lambda_c),
        )
    except _BAD_INPUT as exc:
        raise ConfigError(f"invalid spectral config: {exc}") from exc


def noise_params_from(cfg: Mapping[str, Any]) -> NoiseParams:
    from . import tomography

    n = cfg.get("noise", {})
    _known(n, "noise.", ("p", "c", "weights"))
    base = tomography.NoiseParams.table1()
    try:
        weights = n.get("weights", base.weights)
        return tomography.NoiseParams(
            p=_real(n, "", "p", base.p),
            c=_real(n, "", "c", base.c),
            weights=tuple(float(_number(f"weights[{i}]", w)) for i, w in enumerate(weights)),
        )
    except _BAD_INPUT as exc:
        raise ConfigError(f"invalid noise config: {exc}") from exc


# --- subcommands -------------------------------------------------------------


def cmd_simulate(cfg: dict, out: Path, seed: int) -> int:
    from . import tomography
    from .experiment import classify_terms, factorization_check, logical_state_vector, run_pipeline
    from .states import UnsupportedMode

    pipeline = pipeline_config_from(cfg)
    try:
        result = run_pipeline(pipeline)
        cls = classify_terms(pipeline)
    except UnsupportedMode as exc:
        raise ConfigError(f"pipeline.elements push a photon out of the tracked modes: {exc}") from exc
    report: dict[str, Any] = {
        "seed": seed,
        "success_probability": result.probability,
        "num_terms": result.bcd_state.num_terms,
    }
    dump_json(state_to_dict(result.bcd_state), out / "state.json")
    if result.relabel is not None:
        vec = logical_state_vector(result.bcd_state, result.relabel, pipeline.ghz_paths)
        ghz, _ = tomography.ideal_ghz()
        report["fidelity_vs_ghz"] = float(abs(ghz.conj() @ vec) ** 2)
        report["srv"] = list(tomography.srv(vec))
        report["relabel"] = result.relabel.to_dict()
    else:
        report["fidelity_vs_ghz"] = None
        report["srv"] = None
        report["relabel"] = None
    report["factorized"] = result.a_state is not None and factorization_check(
        result.four_photon_state, result.a_state, result.bcd_state
    )
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
    try:
        dip_cfg = cfg.get("spectral", {}).get("dip", {})
        _known(dip_cfg, "spectral.dip.", ("baseline_cps", "visibility", "width_m", "center_m"))
        vis = dip_cfg.get("visibility")
        if vis is None:
            vis = spectral.visibility(model.sigma_f, model.sigma_gvm)
        dip = spectral.DipModel(
            baseline=_real(dip_cfg, "dip.", "baseline_cps", 1.0),
            visibility=float(_number("dip.visibility", vis)),
            width=_real(dip_cfg, "dip.", "width_m", 800e-6),
            center=_real(dip_cfg, "dip.", "center_m", 0.0),
        )
    except _BAD_INPUT as exc:
        raise ConfigError(f"invalid dip config: {exc}") from exc
    if x_steps < 2:
        raise ConfigError("--x-steps must be at least 2")
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
        f"{r.descriptors[0]},{r.descriptors[1]},{r.descriptors[2]},{r.counts:.12g},{r.duration:.12g}"
        for r in records
    ]
    (out / "elements.csv").write_text("\n".join(lines) + "\n")
    return 0


def cmd_mermin(cfg: dict, out: Path) -> int:
    from . import contradiction, tomography

    noise = noise_params_from(cfg)
    ops = contradiction.build_operators()
    operator = contradiction.mermin_operator(ops)
    _, rho_ghz = tomography.ideal_ghz()
    quantum = contradiction.quantum_expectation(operator, rho_ghz)
    enum = contradiction.lr_enumerate()
    dump_json(
        {
            "quantum_value": quantum.real,
            "lr_max_modulus": enum.max_modulus,
            "lr_max_real": enum.max_real,
            "distinct_value_count": len(enum.distinct_values),
            "distinct_values": [{"a": z.a, "b": z.b} for z in enum.distinct_values],
            "noise_expectation": contradiction.noise_expectation(noise),
            "branch": ops.branch,
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

    _known(cfg, "", ("rep_rate_hz", "tau_int_s", "eta", "pair_rate_hz", "singles", "pairs"))
    _known(cfg.get("singles"), "singles.", counts_mod.DETECTORS)
    _known(cfg.get("pairs"), "pairs.", counts_mod.PAIR_KEYS)
    try:
        rep_rate = float(_number("rep_rate_hz", cfg["rep_rate_hz"]))
        tau = float(_number("tau_int_s", cfg["tau_int_s"]))
        eta = float(_number("eta", cfg["eta"]))
        singles = {k: float(_number(f"singles[{k}]", v)) for k, v in cfg["singles"].items()}
        pairs = {k: float(_number(f"pairs[{k}]", v)) for k, v in cfg["pairs"].items()}
        model = counts_mod.RateModel(
            rep_rate=rep_rate,
            tau_int=tau,
            eta=eta,
            pair_rate=_real(cfg, "", "pair_rate_hz", 0.0),
            singles=singles,
            pairs=pairs,
        )
    except _BAD_INPUT as exc:
        raise ConfigError(f"invalid rate file: {exc}") from exc
    missing = [k for k in counts_mod.PAIR_KEYS if k not in pairs]
    if missing:
        raise ConfigError(f"rate file lacks detector pairs: {missing}")
    missing_s = [k for k in counts_mod.DETECTORS if k not in singles]
    if missing_s:
        raise ConfigError(f"rate file lacks singles for detectors: {missing_s}")

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
            _known(cfg, "", ("pipeline", "spectral", "noise"))
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
