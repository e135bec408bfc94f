"""Byte identity of the CLI artifacts across refactors.

The ``simulate`` digests were recorded from the implementation that rebuilt
and re-checked every element map on each pass through the multi-port, and
the ``empty_chain`` digests from the one that pushed each source state
through the chain one element at a time.  Folding the chain into one map
sums the same products in another order, so amplitudes may move in their
last bits; ``state.json`` and ``report.json`` hold because the artifacts
carry 12 significant digits.  The digests of the other four subcommands
were recorded from the implementation that still carried a second, jitted
backend for the LR scan and the P4 sums; the numpy path they ran is the one
that remains.  The ``mermin.json`` digests of the non-default noise sections
were recorded from the implementation that scanned all 3^9 assignments in
numpy and took the quantum value as a 27x27 trace.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from ghz3d.cli import main, pipeline_config_from
from ghz3d.experiment import DETAILED_SETUP_MIRRORS, classify_terms

from test_cli import RATES

CONFIGS = {
    "default": None,
    "detailed_mirrors": {"pipeline": {"mirrors": DETAILED_SETUP_MIRRORS}},
    "even_swap_sorter": {"pipeline": {"sorter": {"odd_swaps": False, "swap_phase": -1.0}}},
    "partial_overlap_c2": {
        "pipeline": {
            "overlap": 0.834,
            "include_c2": True,
            "source1": {"c0_over_c1": 1.2, "c1_over_c2": 2.5},
        }
    },
    # no element at all: the folded multi-port is the identity
    "empty_chain": {"pipeline": {"elements": []}},
}

# sha256 of each artifact of the default config and seed; ``counts`` reads
# the documented rate file of docs/file-formats.md
ARTIFACTS = {
    "mermin": {"mermin.json": "4c7640a37b352518f24e65864185ab093d79fbf96b1e1d88bccaa275a12d645d"},
    "witness": {
        "witness.json": "0b00e0e3c73b2028198498d25fbd5e98825d18c7922bd5e86424a94bb403ba74",
        "elements.csv": "9a7b9a3d550c4b1408bb187e018218642e603cce67d7201dae3594071329b840",
    },
    "hom": {"dip.csv": "20c2fba866a54e445823549204feeac6ebdf33635a29069d96bb03f2e4c1c216"},
    "counts": {"counts.json": "7d3a460967f78462147516e39d90d54013770ac08f2cd8a909b36bea6c5876e6"},
}

# sha256 of ``mermin.json`` for noise sections other than the default: one
# near the Table 1 estimates and one with strongly skewed GHZ weights
MERMIN_NOISE = {
    "near_table1": (
        {"noise": {"p": 0.9, "c": 0.8, "weights": [0.7, 0.59, 0.49]}},
        "ea9df12645080fd890f88565cae1892accfecf0eebf4e345635fda2db7149b0f",
    ),
    "skewed_weights": (
        {"noise": {"p": 0.35, "c": 0.6, "weights": [1.0, 0.03, 0.25]}},
        "c664447a7deadc2485dee4b4671c0e6a78bde1a9639573a81c16aa23c88fede0",
    ),
}

# sha256 of (state.json, report.json)
GOLDEN = {
    "default": (
        "0b35b34cc2c3d8a25ba4439aa80e3c3e1cb7acde470c0c4338bf21db31047c59",
        "b1a5cb5192149daa4073a53deaf0e6a36b463128a919a451498618d1c69e1556",
    ),
    "detailed_mirrors": (
        "0bca045a9eaa718c23229df3560e79b13d9782030ae066978587bbe7051322a9",
        "52edc273bc79f34a2a66cbc0504cb575afbfb684235a949a77780bc8725250f1",
    ),
    "even_swap_sorter": (
        "67dff63c60bb8cb077fad6f51669a08f79d044943b911560df28160ccb744727",
        "87542a3c8be47809c2810ce9ae0c5c8f8834ae657e865e5c6837c427e0678588",
    ),
    "partial_overlap_c2": (
        "c55157b5043fe3485d7cbac088f39a413f3849a0c07245dc5678f8d261182a4a",
        "b0956d0be2ea2a6e6ebb2d12a659d447e6293b397e8ab0678262c954567a7064",
    ),
    "empty_chain": (
        "7f4052387f57f3da0743d07c27392f6ad1b29f9beed317551a181ad6cd71b660",
        "da1e3b378a7550566eab46fc93edc0d39b999a550eaf0ec19dced017424b3a1e",
    ),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_simulate_artifacts_byte_identical(name, tmp_path):
    args = ["simulate", "--out", str(tmp_path / "out")]
    if CONFIGS[name] is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(CONFIGS[name]))
        args += ["--config", str(cfg)]
    assert main(args) == 0
    got = tuple(_sha256(tmp_path / "out" / f) for f in ("state.json", "report.json"))
    assert got == GOLDEN[name]


@pytest.mark.parametrize("command", sorted(ARTIFACTS))
def test_artifacts_byte_identical(command, tmp_path):
    args = [command, "--out", str(tmp_path / "out")]
    if command == "counts":
        rates = tmp_path / "rates.json"
        rates.write_text(json.dumps(RATES))
        args += ["--config", str(rates)]
    assert main(args) == 0
    got = {name: _sha256(tmp_path / "out" / name) for name in ARTIFACTS[command]}
    assert got == ARTIFACTS[command]


@pytest.mark.parametrize("name", sorted(MERMIN_NOISE))
def test_mermin_noise_configs_byte_identical(name, tmp_path):
    cfg, digest = MERMIN_NOISE[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["mermin", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert _sha256(tmp_path / "out" / "mermin.json") == digest


def test_classification_independent_of_earlier_configs():
    # the two configs differ only in the sorter convention; a compiled chain
    # leaking from one config to the other would change the verdicts
    def fresh(name):
        return pipeline_config_from(CONFIGS[name] or {})

    alone = classify_terms(fresh("even_swap_sorter"))
    default = classify_terms(fresh("default"))
    after = classify_terms(fresh("even_swap_sorter"))
    assert after == alone
    assert after != default
    cfg = fresh("default")
    assert classify_terms(cfg) == classify_terms(cfg) == default


# sha256 of the repr of each ``state_sweep`` benchmark job's outputs, one per
# line, for jobs 0-40 at seed 5: every bit of the generation half's results
STATE_SWEEP_DIGEST = "01e3794cc6a9e3ce3939b133a8c7f97ff08ced63de47a97a524add2d0f00c395"


def test_state_sweep_outputs_bit_identical():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    sweep = workloads.WORKLOADS["state_sweep"](None)
    digest = hashlib.sha256()
    for i in range(41):
        digest.update(repr(sweep.run(sweep.spec(5, i))).encode() + b"\n")
    assert digest.hexdigest() == STATE_SWEEP_DIGEST
