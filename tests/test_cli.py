"""CLI subcommands: artifacts, schemas, exit codes, byte determinism."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghz3d.cli import dump_json, main
from ghz3d.elements import ELEMENT_KINDS
from ghz3d.experiment import MIRROR_STATIONS

RATES = {
    "rep_rate_hz": 8e7,
    "tau_int_s": 1.0,
    "eta": 0.44,
    "pair_rate_hz": 13000,
    "singles": {"A": 100000, "B": 110000, "C": 90000, "D": 95000},
    "pairs": {"AB": 13000, "CD": 12000, "AC": 150, "BD": 140, "AD": 160, "BC": 155},
}


def run(args):
    return main([str(a) for a in args])


def test_simulate_default_config(tmp_path):
    assert run(["simulate", "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["fidelity_vs_ghz"] == 1.0
    assert report["srv"] == [3, 3, 3]
    assert report["num_terms"] == 3
    assert report["factorized"] is True
    assert abs(report["success_probability"] - 1 / 24) < 1e-9
    verdicts = [v["verdict"] for v in report["term_classification"].values()]
    assert sorted(verdicts).count("SURVIVES") == 3

    state = json.loads((tmp_path / "state.json").read_text())
    assert state["photon_number"] == 3
    assert len(state["terms"]) == 3
    for term in state["terms"]:
        assert {m["path"] for m in term["modes"]} == {"B", "C", "D"}
        assert len(term["amplitude"]) == 2


def test_simulate_ratio_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pipeline": {"source1": {"c0_over_c1": 1.7}}}))
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert abs(report["amplitude_ratio_even_over_odd"] - 2.89) < 1e-9
    assert report["fidelity_vs_ghz"] is None  # unbalanced state is not the GHZ


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["simulate", "--config", bad, "--out", tmp_path]) == 2
    bad.write_text('{"noise": {"p": 1' + "0" * 5000 + "}}")  # past Python's int digit limit
    assert run(["witness", "--config", bad, "--out", tmp_path]) == 2


def test_invalid_pipeline_value_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pipeline": {"overlap": 3.0}}))
    assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 2


def test_nonfinite_source_amplitude_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"pipeline": {"source1": {"c0": NaN, "c1": 0.5}}}')
    assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 2
    assert "c0=nan" in capsys.readouterr().err
    assert not (tmp_path / "state.json").exists()


BIG = 10**400  # a JSON integer too large for a float
NONFINITE_RATES = dict(RATES, tau_int_s=math.nan)
NONFINITE_COUNTS = dict(RATES, singles=dict(RATES["singles"], B=math.inf))
NAN_SORTER = {"kind": "PARITY_SORTER", "paths": ["B", "C"], "params": {"swap_phase": math.nan}}
NAN_UNITARY = {
    "kind": "LOCAL_UNITARY",
    "paths": ["B"],
    "params": {"matrix": [[1, 0, 0], [0, math.nan, 0], [0, 0, 1]], "basis": [0, 1, -1]},
}
ONE_PATH_SPLITTER = {"kind": "BEAM_SPLITTER", "paths": ["A", "A"]}
BAD_PHASE_SORTER = {"kind": "PARITY_SORTER", "paths": ["B", "C"], "params": {"swap_phase": 2}}
NONUNITARY = {
    "kind": "LOCAL_UNITARY",
    "paths": ["B"],
    "params": {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 2]], "basis": [0, 1, -1]},
}
# the photon on A reaches l = 4, where the last SPP_REFLECT has no image
OUT_OF_WINDOW = [{"kind": k, "paths": ["A"]} for k in ("SPP_REFLECT", "MIRROR", "SPP_REFLECT", "SPP_REFLECT")]
# a chain that loses only l = 0 on A, with sources that emit no l = 0 photon there
EVEN_OUT_OF_WINDOW = {
    "source1": {"c0": 0.0, "c1": 2**-0.5},
    "elements": [
        {"kind": "RELABEL", "paths": ["A"], "params": {"mapping": {"0": [5, 1], "5": [0, 1]}}},
        {"kind": "SPP_REFLECT", "paths": ["A"]},
    ],
}
# finite rate files whose derived probabilities or counts leave their domain
OVERFULL_PAIRS = dict(RATES, rep_rate_hz=7.6e7, pairs=dict(RATES["pairs"], AB=1e9))
HUGE_WINDOW = dict(RATES, rep_rate_hz=1e200, tau_int_s=1e200)
TINY_ETA = dict(RATES, eta=1e-200)
HUGE_SINGLES = dict(RATES, singles=dict(RATES["singles"], A=1e300, B=1e300))
STRING_PHASE_SORTER = {"kind": "PARITY_SORTER", "paths": ["B", "C"], "params": {"swap_phase": "1"}}
# OAM values that int() would truncate or that name no tracked mode
FRACTIONAL_RELABEL = {"kind": "RELABEL", "paths": ["Z"], "params": {"mapping": {"0": [1.5, 1]}}}
FRACTIONAL_RELABEL_KEY = {"kind": "RELABEL", "paths": ["Z"], "params": {"mapping": {"1.5": [2, 1]}}}
REPEATED_RELABEL_KEY = {"kind": "RELABEL", "paths": ["Z"], "params": {"mapping": {"1": [2, 1], "01": [3, 1]}}}
FRACTIONAL_BASIS = {
    "kind": "LOCAL_UNITARY",
    "paths": ["B"],
    "params": {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "basis": [0.5, 1, 2]},
}


@pytest.mark.parametrize(
    "args,config,field",
    [
        (["witness"], {"noise": {"weights": [math.nan, 0.5, 0.5]}}, "weights[0]=nan"),
        (["mermin"], {"noise": {"weights": [math.nan, 0.5, 0.5]}}, "weights[0]=nan"),
        (["hom"], {"spectral": {"dip": {"width_m": math.nan}}}, "width=nan"),
        (["hom"], {"spectral": {"dip": {"center_m": math.inf, "baseline_cps": math.nan}}}, "center=inf"),
        (["hom"], {"spectral": {"sigma_f_hz": math.nan, "dip": {"visibility": 0.5}}}, "sigma_f=nan"),
        (["hom", "--x-min", "nan"], {}, "--x-min"),
        (["counts"], NONFINITE_RATES, "tau_int=nan"),
        (["counts"], NONFINITE_COUNTS, "singles[B]=inf"),
        (["simulate"], {"pipeline": {"cmp": {"0": math.nan, "-1": 1.0}}}, "cmp[0]=(nan+0j)"),
        (["simulate"], {"pipeline": {"sorter": {"swap_phase": math.nan}}}, "swap_phase=(nan+0j)"),
        (["simulate"], {"pipeline": {"mirrors": {"d": math.inf}}}, "mirrors[d]=inf"),
        (["simulate"], {"pipeline": {"elements": [NAN_SORTER]}}, "swap_phase=nan"),
        (["simulate"], {"pipeline": {"elements": [NAN_UNITARY]}}, "matrix[1][1]=nan"),
        # finite, but beyond what the amplitude normalization can take
        (["simulate"], {"pipeline": {"source1": {"c0": 1e200, "c1": 0.5}}}, "c0=1e+200"),
        (["simulate"], {"pipeline": {"source1": {"c0_over_c1": 1e200}}}, "c0_over_c1=1e+200"),
        (["simulate"], {"pipeline": {"source1": {"c0_over_c1": 1.0, "c1_over_c2": 0.0}}}, "c1_over_c2=0.0"),
        # integers too large for a float
        (["witness"], {"noise": {"p": BIG}}, "invalid noise config"),
        (["simulate"], {"pipeline": {"mirrors": {"d": BIG}}}, "mirrors[d]=1000"),
        (["hom"], {"spectral": {"sigma_f_hz": BIG}}, "invalid spectral config"),
        (["simulate"], {"pipeline": {"overlap": BIG}}, "invalid pipeline config"),
        (["hom"], {"spectral": {"dip": {"width_m": BIG}}}, "invalid dip config"),
        (["counts"], dict(RATES, eta=BIG), "invalid rate file"),
        # finite weights whose sum of squares a float cannot hold
        (["mermin"], {"noise": {"weights": [1e200, 1e200, 1e200]}}, "weights cannot be normalized"),
        (["witness"], {"noise": {"weights": [1e-200, 0.0, 0.0]}}, "weights cannot be normalized"),
        # finite and well-typed, but out of domain
        (["simulate"], {"pipeline": {"sorter": {"swap_phase": 2}}}, "swap_phase must be unimodular: (2+0j)"),
        (["simulate"], {"pipeline": {"cmp": {}}}, "cmp_ket: projector ket on path A is zero"),
        (["simulate"], {"pipeline": {"cmp": {"0": 0}}}, "cmp_ket: projector ket on path A is zero"),
        (["simulate"], {"pipeline": {"elements": [ONE_PATH_SPLITTER]}}, "element 0 (BEAM_SPLITTER on A, A)"),
        (["simulate"], {"pipeline": {"elements": [BAD_PHASE_SORTER]}}, "element 0 (PARITY_SORTER on B, C)"),
        (["simulate"], {"pipeline": {"elements": [NONUNITARY]}}, "element 0 (LOCAL_UNITARY on B)"),
        (["simulate"], {"pipeline": {"elements": OUT_OF_WINDOW}}, "pipeline.elements"),
        (["witness", "--events", 1], {}, "--events 1"),
        # wrong-typed values nested inside a section
        (["simulate"], {"pipeline": {"sorter": {"swap_phase": "x"}}}, "invalid pipeline config"),
        (["simulate"], {"pipeline": {"mirrors": {"d": [1]}}}, "invalid pipeline config"),
        (["simulate"], {"pipeline": {"cmp": {"0": None}}}, "invalid pipeline config"),
        # values a bool() or int() would coerce into a plausible config
        (["simulate"], {"pipeline": {"include_c2": "no"}}, "include_c2 must be a bool: 'no'"),
        (["simulate"], {"pipeline": {"sorter": {"odd_swaps": "x"}}}, "odd_swaps must be a bool: 'x'"),
        (["simulate"], {"pipeline": {"mirrors": {"d": 1.5}}}, "mirror counts must be integers: mirrors[d]=1.5"),
        # derived values out of domain: a pair probability above 1, overflows, an underflow
        (["counts"], OVERFULL_PAIRS, "pairs[AB]=1000000000"),
        (["counts"], HUGE_WINDOW, "rep_rate_hz, tau_int_s are out of range"),
        (["counts"], TINY_ETA, "eta"),
        (["counts"], HUGE_SINGLES, "singles"),
        (["hom", "--x-min=-1.7e308", "--x-max=1.7e308", "--x-steps", 3], {}, "--x-min and --x-max"),
        # numbers given as strings or booleans are not coerced
        (["simulate"], {"pipeline": {"overlap": "0.5"}}, "overlap must be a number: '0.5'"),
        (["simulate"], {"pipeline": {"overlap": True}}, "overlap must be a number: True"),
        (["witness"], {"noise": {"p": "0.9"}}, "p must be a number: '0.9'"),
        (["simulate"], {"pipeline": {"source1": {"c0_over_c1": "1.2"}}}, "source1.c0_over_c1 must be a number"),
        (["simulate"], {"pipeline": {"elements": [STRING_PHASE_SORTER]}}, "swap_phase must be a number: '1'"),
        (["counts"], dict(RATES, singles=dict(RATES["singles"], C=True)), "singles[C] must be a number: True"),
        (["simulate"], {"pipeline": {"elements": [FRACTIONAL_RELABEL]}}, "must be integers: mapping[0]=1.5"),
        (["simulate"], {"pipeline": {"elements": [FRACTIONAL_BASIS]}}, "must be integers: basis[0]=0.5"),
        # CMP ket keys that int() would truncate, that leave the tracked window or that repeat a value
        (["simulate"], {"pipeline": {"cmp": {"0.5": 1}}}, "OAM values must be integers: cmp[0.5]=0.5"),
        (["simulate"], {"pipeline": {"cmp": {"1.5": 1, "-1": 1}}}, "OAM values must be integers: cmp[1.5]"),
        (["simulate"], {"pipeline": {"cmp": {"7": 1}}}, "tracked window |l| <= 5: cmp[7]"),
        (["simulate"], {"pipeline": {"cmp": {"0": 1, "00": 1}}}, "OAM values must be distinct: cmp[00] repeats l=0"),
        (["simulate"], {"pipeline": {"elements": [FRACTIONAL_RELABEL_KEY]}}, "must be integers: mapping key '1.5'"),
        # two RELABEL keys naming one OAM value
        (["simulate"], {"pipeline": {"elements": [REPEATED_RELABEL_KEY]}}, "distinct: mapping key '01' repeats l=1"),
        # a source given both as amplitudes and as ratios
        (["simulate"], {"pipeline": {"source1": {"c0": 0.9, "c1": 0.1, "c0_over_c1": 1.0}}}, "pipeline.source1 mixes"),
        (["simulate"], {"pipeline": {"source2": {"c0": 0.9, "c1": 0.1, "c1_over_c2": 2.0}}}, "pipeline.source2 mixes"),
        # a ratio form without c0_over_c1
        (["simulate"], {"pipeline": {"source1": {"c1_over_c2": 2.0}}}, "pipeline.source1.c0_over_c1 is missing"),
        # unknown keys, which would otherwise be ignored
        (["simulate"], {"pipeline": {"overlapp": 0.2}}, "unknown config key: pipeline.overlapp"),
        (["simulate"], {"pipelin": {"overlap": 0.2}}, "unknown config key: pipelin"),
        (["witness"], {"seed": 5}, "unknown config key: seed"),
        (["mermin"], {"noise": {"P": 0.5}}, "unknown config key: noise.P"),
        (["simulate"], {"pipeline": {"elements": [dict(NAN_SORTER, parms={})]}}, "unknown config key: pipeline.elements[0].parms"),
        (["simulate"], {"pipeline": {"sorter": {"odd_swap": False}}}, "unknown config key: pipeline.sorter.odd_swap"),
        (["simulate"], {"pipeline": {"source2": {"c0_over_c2": 1.0}}}, "unknown config key: pipeline.source2.c0_over_c2"),
        (["hom"], {"spectral": {"sigma_f": 1e11}}, "unknown config key: spectral.sigma_f"),
        (["hom"], {"spectral": {"dip": {"width": 1e-4}}}, "unknown config key: spectral.dip.width"),
        (["counts"], dict(RATES, rep_rate=8e7), "unknown config key: rep_rate"),
        (["counts"], dict(RATES, singles=dict(RATES["singles"], E=1.0)), "unknown config key: singles.E"),
        (["counts"], dict(RATES, pairs={"BA" if k == "AB" else k: v for k, v in RATES["pairs"].items()}), "unknown config key: pairs.BA"),
        # values of the wrong JSON type, which must not run some other multi-port
        (["simulate"], {"pipeline": {"mirrors": []}}, "pipeline.mirrors must be a JSON object: []"),
        (["simulate"], {"pipeline": {"mirrors": [["d", 1]]}}, "pipeline.mirrors must be a JSON object: [['d', 1]]"),
        (["simulate"], {"pipeline": {"elements": {}}}, "pipeline.elements must be a JSON array: {}"),
        (["simulate"], {"pipeline": {"elements": None}}, "pipeline.elements must be a JSON array: None"),
        (["simulate"], {"pipeline": {"source1": []}}, "pipeline.source1 must be a JSON object: []"),
        (["simulate"], {"pipeline": {"source1": None}}, "pipeline.source1 must be a JSON object: None"),
        (["simulate"], {"pipeline": {"cmp": "default"}}, "pipeline.cmp must be a JSON object: 'default'"),
        (["simulate"], {"pipeline": {"elements": [{"kind": "MIRROR", "paths": "AB"}]}}, "elements[0].paths must be a JSON array: 'AB'"),
        (["simulate"], {"pipeline": {"elements": [{"kind": "MIRROR", "paths": "CD"}]}}, "elements[0].paths must be a JSON array: 'CD'"),
        (["simulate"], {"pipeline": {"elements": [{"kind": "MIRROR", "paths": ["C"], "params": []}]}}, "elements[0].params must be a JSON object"),
        (["simulate"], {"pipeline": {"elements": [{"paths": ["C"]}]}}, "pipeline.elements[0].kind is missing"),
        # null in place of a section
        (["simulate"], {"pipeline": None}, "pipeline must be a JSON object: None"),
        (["simulate"], {"pipeline": {"sorter": None}}, "pipeline.sorter must be a JSON object: None"),
        (["hom"], {"spectral": {"dip": None}}, "spectral.dip must be a JSON object: None"),
        (["witness"], {"noise": None}, "noise must be a JSON object: None"),
        (["mermin"], {"noise": {"weights": None}}, "noise.weights must be a JSON array: None"),
        (["counts"], dict(RATES, singles=None), "singles must be a JSON object: None"),
        # integers too large for a float, named by their full path
        (["witness"], {"noise": {"p": BIG}}, "invalid noise config: numbers must fit a float: noise.p=1000"),
        (["hom"], {"spectral": {"sigma_f_hz": BIG}}, "invalid spectral config: numbers must fit a float: spectral.sigma_f_hz=1000"),
        (["hom"], {"spectral": {"dip": {"width_m": BIG}}}, "invalid dip config: numbers must fit a float: spectral.dip.width_m=1000"),
        (["simulate"], {"pipeline": {"overlap": BIG}}, "invalid pipeline config: numbers must fit a float: pipeline.overlap=1000"),
        (["counts"], dict(RATES, eta=BIG), "invalid rate file: numbers must fit a float: eta=1000"),
        # a missing rate-file field is named
        (["counts"], {k: v for k, v in RATES.items() if k != "eta"}, "invalid rate file: eta is missing"),
        (["counts"], dict(RATES, pairs={"AB": 1.0}), "invalid rate file: pairs[AC] is missing"),
        (["counts"], {k: v for k, v in RATES.items() if k != "singles"}, "invalid rate file: singles[A] is missing"),
        # a wrong-typed ratio is named before the missing c0_over_c1
        (["simulate"], {"pipeline": {"source2": {"c1_over_c2": "2"}}}, "pipeline.source2.c1_over_c2 must be a number: '2'"),
        # finite widths whose derived width or square leaves the float range
        (["hom"], {"spectral": {"crystal_length_m": 1e-200, "delta_inv_gv_s_per_m": 1e-200}}, "crystal_length=1e-200, delta_inv_gv=1e-200"),
        (["hom"], {"spectral": {"sigma_f_hz": 1e200}}, "invalid spectral config: sigma_f or its square leaves the float range: sigma_f=1e+200"),
        # a negative baseline, which would write negative rates
        (["hom"], {"spectral": {"dip": {"baseline_cps": -1}}}, "invalid dip config: baseline must not be negative: -1.0"),
        # out-of-domain values, each named after its domain message
        (["simulate"], {"pipeline": {"source1": {"c0": 0.9, "c1": -0.1}}}, "source amplitudes must be non-negative: c1=-0.1"),
        (["witness"], {"noise": {"c": 2}}, "p and c must lie in [0, 1]: c=2"),
        (["hom"], {"spectral": {"dip": {"width_m": -1}}}, "width must be positive: width=-1"),
        (["hom"], {"spectral": {"sigma_f_hz": -1}}, "sigma_f must be positive: sigma_f=-1"),
        (["counts"], dict(RATES, singles=dict(RATES["singles"], A=-1)), "counts must be non-negative: singles[A]=-1"),
        (["simulate"], {"pipeline": {"overlap": 1.5}}, "overlap must lie in [0, 1]: overlap=1.5"),
        (["simulate"], {"pipeline": {"mirrors": {"d": -1}}}, "mirror counts must be non-negative: mirrors[d]=-1"),
        (["counts"], dict(RATES, tau_int_s=-1), "rep_rate and tau_int must be positive: tau_int=-1"),
        (["counts"], dict(RATES, eta=1.5), "eta must lie in (0, 1]: eta=1.5"),
        (["counts"], dict(RATES, pair_rate_hz=-1), "pair_rate must be non-negative: pair_rate=-1"),
        (["simulate"], {"pipeline": EVEN_OUT_OF_WINDOW}, "pipeline.elements push a photon out of the tracked OAM window"),
        # more samples than an array can hold, rejected before anything is allocated
        (["hom", "--x-steps", 2**63], {}, "--x-steps must lie in [2, "),
        (["hom", "--x-steps", 10**19], {}, "got 10000000000000000000"),
    ],
)
def test_nonfinite_config_exits_2_naming_field(tmp_path, capsys, args, config, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))  # json writes NaN / Infinity literals
    assert run([*args, "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert field in capsys.readouterr().err
    assert not any((tmp_path / "out").iterdir())


def test_dump_json_refuses_nonfinite_numbers(tmp_path):
    for bad in (math.nan, math.inf, {"x": [1.0, -math.inf]}):
        with pytest.raises(ValueError):
            dump_json(bad, tmp_path / "out.json")
    assert not any(tmp_path.iterdir())


def test_dump_json_writes_numpy_scalars_as_python_numbers(tmp_path):
    values = {
        "i64": np.int64(-7),
        "f32": np.float32(0.1),
        "f64": np.float64(1 / 3),
        "c128": np.complex128(1 / 3 - 2j),
        "f": 2 / 3,
        "i": 12345678901234567890,
        "b": True,
        "n": [np.int32(2), (np.float64(1e-300), False)],
    }
    dump_json(values, tmp_path / "out.json")
    # the same text as the Python numbers written directly: ints stay ints, 12 significant digits
    expected = {
        "b": True,
        "c128": [0.333333333333, -2.0],
        "f": 0.666666666667,
        "f32": 0.10000000149,
        "f64": 0.333333333333,
        "i": 12345678901234567890,
        "i64": -7,
        "n": [2, [1e-300, False]],
    }
    assert (tmp_path / "out.json").read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    with pytest.raises(TypeError, match="cannot serialize"):
        dump_json(np.bool_(True), tmp_path / "bool.json")


def test_hom_curve(tmp_path):
    from ghz3d.spectral import sigma_gvm

    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"spectral": {"sigma_f_hz": sigma_gvm(1e-3, 1.6e-9)}})
    )
    assert run(["hom", "--config", cfg, "--out", tmp_path, "--x-steps", 41]) == 0
    lines = (tmp_path / "dip.csv").read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert comments
    header_idx = len(comments)
    assert lines[header_idx] == "x_m,rate"
    rows = [ln.split(",") for ln in lines[header_idx + 1 :]]
    assert len(rows) == 41
    rates = {float(x): float(r) for x, r in rows}
    center_rate = rates[0.0]
    assert center_rate == pytest.approx(1 - math.sqrt(3) / 2, rel=1e-9)
    assert min(rates.values()) == center_rate


def test_witness_outputs(tmp_path):
    assert run(["witness", "--out", tmp_path, "--events", 1652]) == 0
    report = json.loads((tmp_path / "witness.json").read_text())
    assert report["n_settings"] == 219
    assert report["F_max"] == pytest.approx(2 / 3, rel=1e-9)
    assert 0.01 <= report["sigma_F"] <= 0.05
    assert report["events"] == 1652
    lines = (tmp_path / "elements.csv").read_text().splitlines()
    assert lines[0] == "projB,projC,projD,counts,duration_s"
    assert len(lines) == 220


def test_witness_invalid_events(tmp_path, capsys):
    assert run(["witness", "--out", tmp_path, "--events", 0]) == 2
    # too few events to leave any diagonal count for the estimator
    assert run(["witness", "--out", tmp_path, "--events", 1]) == 2
    assert "--events 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("seed", [-1, 2**64 - 1, 2**64])
def test_witness_seed_out_of_range_exits_2(tmp_path, capsys, seed):
    # the resamples are keyed with seed + 1, so 2**64 - 2 is the largest seed
    assert run(["witness", "--out", tmp_path, "--seed", seed]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_mermin_output(tmp_path):
    assert run(["mermin", "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "mermin.json").read_text())
    assert report["quantum_value"] == pytest.approx(9.0, abs=1e-9)
    assert report["lr_max_modulus"] == 6
    assert report["distinct_value_count"] == 16
    assert len(report["distinct_values"]) == 16
    assert {"a", "b"} <= set(report["distinct_values"][0])
    assert report["branch"] == 0
    assert report["noise_expectation"] == pytest.approx(6.2834, abs=1e-3)


def test_counts_output(tmp_path):
    rates = tmp_path / "rates.json"
    rates.write_text(json.dumps(RATES))
    assert run(["counts", "--config", rates, "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "counts.json").read_text())
    for key in ("p4_predicted", "acc_pairs", "acc_fourfold", "corrected"):
        assert key in report
    assert report["acc_pairs"]["AB"] == pytest.approx(
        100000 * 110000 / 8e7, rel=1e-9
    )
    assert report["corrected"] == pytest.approx(
        report["p4_predicted"] - report["acc_fourfold"], rel=1e-9
    )
    assert report["mu"] == pytest.approx(8.39e-4, rel=1e-3)
    assert report["higher_order_ratio"] == pytest.approx(4.88e-4, rel=1e-2)


def test_counts_missing_pairs_exit_2(tmp_path):
    rates = tmp_path / "rates.json"
    bad = dict(RATES, pairs={"AB": 1.0})
    rates.write_text(json.dumps(bad))
    assert run(["counts", "--config", rates, "--out", tmp_path]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["simulate"],
        ["hom", "--x-steps", 21],
        ["witness", "--events", 400],
        ["mermin"],
        ["counts"],
    ],
)
def test_byte_determinism(tmp_path, args):
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    extra = []
    if args[0] == "counts":
        rates = tmp_path / "rates.json"
        rates.write_text(json.dumps(RATES))
        extra = ["--config", rates]
    for d in dirs:
        assert run([*args, *extra, "--out", d, "--seed", 333]) == 0
    files1 = sorted(p.name for p in dirs[0].iterdir())
    files2 = sorted(p.name for p in dirs[1].iterdir())
    assert files1 == files2 and files1
    for name in files1:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_elements_override_reproduces_default_chain(tmp_path):
    from ghz3d.elements import ElementSpec
    from ghz3d.experiment import PipelineConfig, pipeline_elements

    chain = [
        {"kind": "MIRROR", "paths": ["C"], "params": {}},
        {"kind": "PARITY_SORTER", "paths": ["B", "C"], "params": {"odd_swaps": True, "swap_phase": 1.0}},
        {"kind": "SPP_REFLECT", "paths": ["A"], "params": {}},
        {"kind": "BEAM_SPLITTER", "paths": ["A", "B"], "params": {}},
        {"kind": "MIRROR", "paths": ["A"], "params": {}},
    ]
    default = pipeline_elements(PipelineConfig())
    assert tuple(ElementSpec(e["kind"], tuple(e["paths"]), e["params"]) for e in chain) == default
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pipeline": {"elements": chain}}))
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["fidelity_vs_ghz"] == 1.0
    assert abs(report["success_probability"] - 1 / 24) < 1e-9


def test_witness_white_noise_fails(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"noise": {"p": 0.0, "c": 0.0, "weights": [1, 1, 1]}}))
    assert run(["witness", "--config", cfg, "--out", tmp_path, "--events", 5000]) == 0
    report = json.loads((tmp_path / "witness.json").read_text())
    assert report["pass"] is False
    assert report["F"] < 0.2


# --- fuzzed configs -------------------------------------------------------------

# wrong types, huge ints, NaN/inf and unbounded floats, mixed with plain values
# that every field accepts so that whole runs are reached too
JUNK = st.one_of(
    st.sampled_from([BIG, -BIG, math.nan, math.inf, -math.inf, None, True, "x", [], {}]),
    st.floats(),
    st.integers(-3, 3),
    st.lists(st.floats(), max_size=4),
    st.dictionaries(st.sampled_from(["0", "1", "A"]), st.floats(), max_size=2),
)
UNIT = st.floats(0.0, 1.0)
FINITE = st.floats(allow_nan=False, allow_infinity=False)

# well-typed element chains: every kind, one or two paths from A-D or a
# stray E, and params near the valid ones (phases off the unit circle,
# non-unitary matrices, OAM values past the window, repeated paths)
PHASE = st.one_of(st.sampled_from([1, -1]), FINITE)
MATRIX = st.one_of(
    st.sampled_from([[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]]]),
    st.lists(st.lists(st.floats(-1, 1), min_size=3, max_size=3), min_size=3, max_size=3),
)
OAM = st.integers(-6, 6)
ELEMENT = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(ELEMENT_KINDS),
        "paths": st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=2),
        "params": st.fixed_dictionaries(
            {},
            optional={
                "odd_swaps": st.booleans(),
                "swap_phase": PHASE,
                "matrix": MATRIX,
                "basis": st.lists(OAM, min_size=3, max_size=3),
                "mapping": st.dictionaries(OAM.map(str), st.tuples(OAM, PHASE), max_size=3),
            },
        ),
    },
)


def section(fields):
    """An object with each known field left out, fuzzed or kept plausible."""
    return st.one_of(
        st.fixed_dictionaries({}, optional={k: st.one_of(v, JUNK) for k, v in fields.items()}),
        JUNK,
    )


SOURCE = section({"c0": UNIT, "c1": UNIT, "c2": UNIT, "c0_over_c1": UNIT, "c1_over_c2": UNIT})
NOISE = section({"noise": section({"p": UNIT, "c": UNIT, "weights": st.lists(UNIT, max_size=4)})})
RATIOS = st.fixed_dictionaries(
    {}, optional={"c0_over_c1": st.floats(0.1, 10), "c1_over_c2": st.floats(0.5, 10)}
)
MIRRORS = {s: st.integers(0, 2) for s in MIRROR_STATIONS}
SORTER = {"odd_swaps": st.booleans(), "swap_phase": PHASE}
CMP_KET = {"0": UNIT, "-1": UNIT}
ZERO_KETS = st.sampled_from([{}, {"0": 0}, {"0": 0.0, "-1": 0.0}])
# every pipeline field, plausible or out of domain but well typed
PIPELINE = {
    "source1": RATIOS,
    "source2": RATIOS,
    "mirrors": st.fixed_dictionaries({}, optional=MIRRORS),
    "sorter": st.fixed_dictionaries({}, optional=SORTER),
    "overlap": UNIT,
    "include_c2": st.booleans(),
    "cmp": st.one_of(st.none(), ZERO_KETS, st.fixed_dictionaries({}, optional=CMP_KET)),
    "elements": st.lists(ELEMENT, min_size=1, max_size=4),
}
# the same fields with junk mixed in at every level: in place of a whole
# field and in place of each value nested inside one
JUNK_PIPELINE = {
    **PIPELINE,
    "source1": SOURCE,
    "source2": SOURCE,
    "mirrors": section(MIRRORS),
    "sorter": section(SORTER),
    "cmp": st.one_of(st.none(), ZERO_KETS, section(CMP_KET)),
}
FUZZED_CONFIGS = {
    "simulate": st.one_of(
        # a well-typed pipeline reaches the element chain and the runs
        st.fixed_dictionaries({"pipeline": st.fixed_dictionaries({}, optional=PIPELINE)}),
        section({"pipeline": section(JUNK_PIPELINE)}),
    ),
    "hom": section(
        {
            "spectral": section(
                {
                    "sigma_f_hz": st.floats(1e11, 1e13),
                    "sigma_p_hz": st.floats(1e11, 1e13),
                    "crystal_length_m": st.floats(1e-4, 1e-2),
                    "dip": section({"visibility": UNIT, "width_m": UNIT, "center_m": UNIT}),
                }
            )
        }
    ),
    "witness": NOISE,
    "mermin": NOISE,
    "counts": st.one_of(
        st.fixed_dictionaries(
            {},
            optional={
                "rep_rate_hz": st.one_of(st.floats(1e6, 1e8), JUNK),
                "eta": st.one_of(UNIT, JUNK),
                "singles": st.one_of(st.just(RATES["singles"]), JUNK),
                "pairs": st.one_of(st.just(RATES["pairs"]), JUNK),
            },
        ).map(lambda fuzzed: {**RATES, **fuzzed}),
        JUNK,
    ),
}


# most simulate draws stop at a validation error; more of them reach the runs
FUZZED_EXAMPLES = {"simulate": 60}


@pytest.mark.parametrize("command", sorted(FUZZED_CONFIGS))
def test_fuzzed_config_exits_0_or_2(tmp_path, command):
    @settings(
        max_examples=FUZZED_EXAMPLES.get(command, 15),
        deadline=None,
        derandomize=True,
        database=None,
    )
    @given(config=FUZZED_CONFIGS[command])
    def exits_0_or_2(config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run([command, "--config", cfg, "--out", tmp_path / "out"]) in (0, 2)

    exits_0_or_2()


# --- every field of every section the readers take -------------------------------

NUMBER, OBJECT, ARRAY, OTHER = "number", "object", "array", "other"
SOURCE_FIELDS = dict.fromkeys(("c0", "c1", "c2", "c0_over_c1", "c1_over_c2"), NUMBER)
#: the JSON type of each field, by the path of its section ("" is the file's root)
CONFIG_FIELDS = {
    "": {"pipeline": OBJECT, "spectral": OBJECT, "noise": OBJECT},
    "pipeline": {
        "source1": OBJECT,
        "source2": OBJECT,
        "mirrors": OBJECT,
        "sorter": OBJECT,
        "overlap": NUMBER,
        "include_c2": OTHER,
        "cmp": OBJECT,
        "elements": ARRAY,
    },
    "pipeline.sorter": {"odd_swaps": OTHER, "swap_phase": NUMBER},
    "pipeline.source1": SOURCE_FIELDS,
    "pipeline.source2": SOURCE_FIELDS,
    "pipeline.elements[0]": {"kind": OTHER, "paths": ARRAY, "params": OBJECT},
    "spectral": {
        **dict.fromkeys(("sigma_f_hz", "sigma_p_hz", "crystal_length_m", "delta_inv_gv_s_per_m", "lambda_c_m"), NUMBER),
        "dip": OBJECT,
    },
    "spectral.dip": dict.fromkeys(("baseline_cps", "visibility", "width_m", "center_m"), NUMBER),
    "noise": {"p": NUMBER, "c": NUMBER, "weights": ARRAY},
}
RATE_FIELDS = {
    "": {**dict.fromkeys(("rep_rate_hz", "tau_int_s", "eta", "pair_rate_hz"), NUMBER), "singles": OBJECT, "pairs": OBJECT},
    "singles": dict.fromkeys(RATES["singles"], NUMBER),
    "pairs": dict.fromkeys(RATES["pairs"], NUMBER),
}
# configs holding every section, each read by the command named
FULL_CONFIGS = {
    "simulate": {
        "pipeline": {"sorter": {}, "source1": {}, "source2": {}, "elements": [{"kind": "MIRROR", "paths": ["A"]}]}
    },
    "hom": {"spectral": {"dip": {}}},
    "witness": {"noise": {}},
    "counts": RATES,
}
#: a value of the wrong JSON type for each type
WRONG = {NUMBER: "0.5", OBJECT: [], ARRAY: {}}


def _sections_read(monkeypatch, tmp_path, commands):
    """{path: keys} of every section the reader checks while ``commands`` run their full configs."""
    from ghz3d import cli

    seen = {}
    init = cli._Section.__init__

    def recording(self, value, path, keys):
        seen[path] = set(keys)
        init(self, value, path, keys)

    monkeypatch.setattr(cli._Section, "__init__", recording)
    for command in commands:
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(FULL_CONFIGS[command]))
        assert run([command, "--config", cfg, "--out", tmp_path / command]) == 0
    monkeypatch.undo()
    return seen


def test_field_lists_match_the_readers(monkeypatch, tmp_path):
    config_sections = _sections_read(monkeypatch, tmp_path, ("simulate", "hom", "witness"))
    assert config_sections == {path: set(fields) for path, fields in CONFIG_FIELDS.items()}
    rate_sections = _sections_read(monkeypatch, tmp_path, ("counts",))
    assert rate_sections == {path: set(fields) for path, fields in RATE_FIELDS.items()}


def _wrong_typed_cases():
    """(command, config, name) with one field of a full config set to a value of the wrong JSON type."""
    for fields, commands in ((CONFIG_FIELDS, None), (RATE_FIELDS, "counts")):
        for path, types in fields.items():
            for key, kind in types.items():
                if kind not in WRONG:
                    continue
                top = (path or key).split(".")[0]
                command = commands or {"pipeline": "simulate", "spectral": "hom", "noise": "witness"}[top]
                config = json.loads(json.dumps(FULL_CONFIGS[command]))
                section = config
                for step in filter(None, path.replace("[0]", ".0").split(".")):
                    section = section[int(step) if step.isdigit() else step]
                section[key] = WRONG[kind]
                # singles and pairs map detectors to counts: their entries are named like map entries
                name = f"{path}[{key}]" if path in ("singles", "pairs") else ".".join(filter(None, (path, key)))
                yield pytest.param(command, config, name, id=f"{command}-{name}")


@pytest.mark.parametrize("command,config,name", _wrong_typed_cases())
def test_wrong_typed_field_exits_2_naming_its_path(tmp_path, capsys, command, config, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert f"{name} must be a" in capsys.readouterr().err
    assert not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize(
    "command,config",
    [("simulate", {"pipeline": {"cmp": None}}), ("hom", {"spectral": {"dip": {"visibility": None}}})],
)
def test_null_is_read_for_cmp_and_dip_visibility_only(tmp_path, command, config):
    # null removes the CMP projection, and asks for the closed-form visibility
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 0
