"""Pipeline assembly: GHZ generation, term elimination, HOM scans,
factorization, and the detailed-setup mirror variant.

Expected values come from the brute-force expansion oracle in
pipeline_oracle.py, which shares no code with the package.
"""

import collections
import functools
import hashlib
import itertools
import math
import re
import sys
from dataclasses import replace

import pytest

import ghz3d.states
from ghz3d import experiment, tomography
from ghz3d.elements import ELLS, ElementSpec, Projector1, SorterConvention, build_element, project
from ghz3d.experiment import (
    CROSS_BLOCKED,
    DEFAULT_MIRRORS,
    DETAILED_SETUP_MIRRORS,
    MIRROR_STATIONS,
    PARITY_BLOCKED,
    SURVIVES,
    PipelineConfig,
    SourceAmplitudes,
    classify_terms,
    factor_single_path,
    ghz_relabel_map,
    hom_scan,
    logical_state_vector,
    pipeline_elements,
    run_pipeline,
    spdc_state,
)
from ghz3d.states import LinearMap, ModeLabel, PhotonicState, apply, fidelity_pure, fold, postselect, tensor

from pipeline_oracle import expand
from test_tomography import svd_rank_vector

BALANCED = 1.0 / math.sqrt(3.0)


def fig2_projectors():
    return {
        "A": Projector1.of("A", {-1: 1.0}),
        "B": Projector1.of("B", {1: 1.0}),
        "C": Projector1.of("C", {-1: 1.0}),
        "D": Projector1.of("D", {1: 1.0}),
    }


# --- sources -----------------------------------------------------------------


def test_spdc_state_balanced():
    s = spdc_state(("A", "B"), SourceAmplitudes.balanced())
    assert s.num_terms == 3
    assert abs(s.norm() - 1.0) < 1e-12
    amps = {abs(t.amplitude) for t in s.terms}
    assert max(amps) - min(amps) < 1e-12


def test_spdc_state_reference_ratio():
    amps = SourceAmplitudes.from_ratios(1.7)
    s = spdc_state(("A", "B"), amps)
    a00 = s.amplitude((ModeLabel("A", 0), ModeLabel("B", 0)))
    a1m1 = s.amplitude((ModeLabel("A", 1), ModeLabel("B", -1)))
    assert abs(abs(a00) ** 2 / abs(a1m1) ** 2 - 2.89) < 1e-12


def test_spdc_c2_default_off():
    amps = SourceAmplitudes.from_ratios(1.7, 2.0)
    assert spdc_state(("A", "B"), amps).num_terms == 3
    assert spdc_state(("A", "B"), amps, include_c2=True).num_terms == 5


def test_source_normalization_enforced():
    with pytest.raises(ValueError):
        SourceAmplitudes(1.0, 1.0, 0.0)


def test_source_amplitudes_must_be_finite():
    for amps in ((math.nan, 0.5, 0.0), (0.5, math.inf, 0.0), (0.5, 0.5, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            SourceAmplitudes(*amps)
    with pytest.raises(ValueError):
        SourceAmplitudes.from_ratios(math.nan)


def test_source_amplitudes_beyond_normalization_rejected():
    with pytest.raises(ValueError, match=r"c2=1e\+200"):
        SourceAmplitudes(0.5, 0.5, 1e200)
    with pytest.raises(ValueError, match=r"c1_over_c2=1e-200"):
        SourceAmplitudes.from_ratios(1.0, 1e-200)
    # within the normalization tolerance an amplitude may still exceed 1
    assert SourceAmplitudes(1.0 + 4e-13, 0.0).c0 > 1.0


def test_config_mappings_are_read_only():
    cfg = PipelineConfig()
    default_bcd = run_pipeline(cfg).bcd_state
    spec = ElementSpec("PARITY_SORTER", ("B", "C"), {"odd_swaps": True})
    for mapping, key in ((cfg.mirrors, "a_post_bs"), (cfg.cmp_ket, 0), (spec.params, "odd_swaps")):
        with pytest.raises(TypeError):
            mapping[key] = 0
        with pytest.raises(TypeError):
            del mapping[key]
        with pytest.raises(AttributeError):  # no update, pop or clear either
            mapping.update({key: 0})
    assert run_pipeline(cfg).bcd_state == default_bcd
    detailed = replace(cfg, mirrors=DETAILED_SETUP_MIRRORS)
    assert detailed.mirrors == DETAILED_SETUP_MIRRORS and detailed != cfg
    assert run_pipeline(detailed).bcd_state != default_bcd
    assert replace(detailed, mirrors=cfg.mirrors) == cfg
    assert replace(spec, paths=("C", "D")).params == {"odd_swaps": True}


SHEAR = ElementSpec("LOCAL_UNITARY", ("B",), {"matrix": [[1, 1, 0], [0, 1, 0], [0, 0, 1]], "basis": (0, 1, -1)})
# the photon on A reaches l = 4, where the last SPP_REFLECT has no image
OUT_OF_WINDOW = tuple(ElementSpec(k, ("A",)) for k in ("SPP_REFLECT", "MIRROR", "SPP_REFLECT", "SPP_REFLECT"))
# the RELABEL sends an l = 0 photon on A to l = 5, where the SPP_REFLECT has no image; a source
# with c0 = 0 emits no such photon, but the even combos of classify_terms do
EVEN_OUT_OF_WINDOW = (
    ElementSpec("RELABEL", ("A",), {"mapping": {"0": [5, 1], "5": [0, 1]}}),
    ElementSpec("SPP_REFLECT", ("A",)),
)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"cmp_ket": {}}, "cmp_ket: projector ket on path A is zero"),
        ({"cmp_ket": {0: 0.0, -1: 0.0}}, "cmp_ket: projector ket on path A is zero"),
        ({"elements_override": [ElementSpec("BEAM_SPLITTER", ("A", "A"))]}, "element 0 (BEAM_SPLITTER on A, A)"),
        ({"elements_override": [ElementSpec("MIRROR", ("A",)), SHEAR]}, "element 1 (LOCAL_UNITARY on B): matrix fails"),
        ({"elements_override": [ElementSpec("RELABEL", ("B",))]}, "element 0 (RELABEL on B): 'mapping'"),
        ({"elements_override": OUT_OF_WINDOW}, "pipeline.elements push a photon out of the tracked OAM window"),
        # CMP ket keys that int() would truncate, that leave the tracked window or that repeat a value
        ({"cmp_ket": {1.5: 1, -1: 1}}, "OAM values must be integers: cmp_ket[1.5]=1.5"),
        ({"cmp_ket": {7: 1}}, "OAM values must lie in the tracked window |l| <= 5: cmp_ket[7]"),
        ({"cmp_ket": {0: 1, "0": 1}}, "OAM values must be distinct: cmp_ket[0] repeats l=0"),
        (
            {"source1": SourceAmplitudes(0.0, 2**-0.5), "elements_override": EVEN_OUT_OF_WINDOW},
            "pipeline.elements push a photon out of the tracked OAM window: from A l=0",
        ),
    ],
)
def test_config_rejects_a_multiport_it_cannot_build(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PipelineConfig(**kwargs)


def test_a_path_outside_the_detectors_is_internal():
    # two splitter passes send the path-A photon wholly into E, two more bring it back
    chain = pipeline_elements(PipelineConfig())
    loop = tuple(ElementSpec("BEAM_SPLITTER", ("A", "E")) for _ in range(4))
    base = run_pipeline(PipelineConfig())
    res = run_pipeline(PipelineConfig(elements_override=chain + loop))
    assert abs(res.probability - base.probability) < 1e-14
    assert fidelity_pure(res.bcd_state, base.bcd_state) > 1 - 1e-12
    assert run_pipeline(PipelineConfig(elements_override=chain + loop[:2])).probability == 0


def test_runs_build_no_element_map(monkeypatch):
    amps = SourceAmplitudes.from_ratios(1.7, 2.0)
    cfg = PipelineConfig(source1=amps, source2=amps, include_c2=True, overlap=0.5)
    assert tuple(spec for spec, _ in cfg.multiport) == pipeline_elements(cfg)

    def build(*args, **kwargs):
        raise AssertionError("a map was built after the config")

    monkeypatch.setattr(LinearMap, "check_unitary", build)  # every element map runs it
    assert run_pipeline(cfg).bcd_state.num_terms == 3
    assert classify_terms(cfg).count(SURVIVES) == 3
    hom_scan(cfg, fig2_projectors(), (0.0, 1.0))


def test_runs_reuse_the_detected_source_states(monkeypatch):
    cfg = PipelineConfig(source1=SourceAmplitudes.from_ratios(1.7), overlap=0.5)
    res, scan = run_pipeline(cfg), hom_scan(cfg, fig2_projectors(), (0.0, 0.3, 1.0))

    def push(*args):
        raise AssertionError("a state was pushed through the multi-port after the config")

    monkeypatch.setattr(experiment, "_detect", push)
    assert run_pipeline(cfg) == res
    assert hom_scan(cfg, fig2_projectors(), (0.0, 0.3, 1.0)) == scan


def test_detected_applies_one_map_per_source_state(monkeypatch):
    amps = SourceAmplitudes.from_ratios(1.7, 2.0)
    cfg = PipelineConfig(source1=amps, source2=amps, include_c2=True, mirrors=DETAILED_SETUP_MIRRORS)
    assert len(cfg.multiport) == 7
    run_detect = experiment._detect
    maps = []

    def counted(m, state, detector_paths):
        maps.append(m)
        return run_detect(m, state, detector_paths)

    # one detection pass (expansion and postselection together) per source state
    monkeypatch.setattr(experiment, "_detect", counted)
    for tags in (experiment.EQUAL_TAGS, experiment.DISTINCT_TAGS):
        maps.clear()
        assert experiment._detected(cfg, experiment._sources(cfg, tags)) == cfg.detected[tags]
        assert len(maps) == 1 and maps[0] is cfg.multiport_map


# the 40 modes the sources fill: paths x l in {0, +-1, +-2} x each source's two tags
SOURCE_MODES = {
    ModeLabel(path, ell, tag)
    for paths, tags in ((("A", "B"), (0, 1)), (("C", "D"), (0, 2)))
    for path in paths
    for ell in range(-2, 3)
    for tag in tags
}
TRACKED_MODES = {ModeLabel(path, ell, tag) for path in "ABCD" for ell in ELLS for tag in (0, 1, 2)}


@functools.cache
def every_mirror_and_sorter_config():
    """A config with c2 > 0 for each of the 256 mirror patterns x 4 sorter conventions."""
    amps = SourceAmplitudes.from_ratios(1.7, 2.0)
    return [
        PipelineConfig(source1=amps, source2=amps, include_c2=True, mirrors=mirrors, sorter=sorter)
        for sorter in (SorterConvention(odd, phase) for odd in (True, False) for phase in (1.0, -1.0))
        for mirrors in (
            {s: 1 for b, s in enumerate(MIRROR_STATIONS) if bits >> b & 1} for bits in range(2 ** len(MIRROR_STATIONS))
        )
    ]


def test_multiport_map_folds_the_source_modes_only():
    assert len(SOURCE_MODES) == 40 and len(TRACKED_MODES) == 132
    assert experiment.SOURCE_MODES == SOURCE_MODES
    assert set(PipelineConfig().multiport_map.entries) == SOURCE_MODES
    for cfg in every_mirror_and_sorter_config():
        assert set(cfg.multiport_map.entries) <= SOURCE_MODES
        full = fold([m for _, m in cfg.multiport], TRACKED_MODES)
        for tags in (experiment.EQUAL_TAGS, experiment.DISTINCT_TAGS):
            source = experiment._sources(cfg, tags)
            assert postselect(apply(full, source), experiment.DETECTOR_PATHS) == cfg.detected[tags]


def exact(detected):
    """A (state, probability) pair as text that tells apart every bit,
    signed zeros and the order of the terms included."""
    state, p = detected
    return repr(list(state._terms.items())), repr(p)


@functools.cache
def every_detected_run():
    """(config, full source state, its one-pass detection) for each run of every config."""
    return [
        (cfg, source, experiment._detected(cfg, source))
        for cfg in every_mirror_and_sorter_config()
        for source in (experiment._sources(cfg, tags) for tags in (experiment.EQUAL_TAGS, experiment.DISTINCT_TAGS))
    ]


def test_one_pass_detection_is_postselect_of_apply_bit_for_bit():
    for cfg, source, once in every_detected_run():
        assert exact(once) == exact(postselect(apply(cfg.multiport_map, source), experiment.DETECTOR_PATHS))


def projected_in_turn(cfg, projection, detected):
    """The four-fold probability from public project calls in detector order."""
    state, p = detected
    for path in experiment.DETECTOR_PATHS:
        if path in projection:
            state, p_proj = project(projection[path], state)
            p *= p_proj
    return p


SUPERPOSED = {
    "A": Projector1.of("A", {0: 1.0, 2: 1j}),
    "B": Projector1.of("B", {2: 1.0, -1: -1.0}),
    "C": Projector1.of("C", {0: 1.0, 1: 0.5 - 0.5j}),
    "D": Projector1.of("D", {-1: 1.0, 1: 1.0}),
}


def test_projected_fourfold_is_a_loop_of_project_calls_bit_for_bit():
    # the CMP alone, as classify_terms projects, and one projector per detector, as hom_scan does
    fig2 = fig2_projectors()
    for cfg, _, detected in every_detected_run():
        for projection in ({cfg.cmp.path: cfg.cmp}, {}, fig2, SUPERPOSED):
            got = experiment._projected_fourfold(projection, detected)
            assert repr(got) == repr(projected_in_turn(cfg, projection, detected))


def sorter_blocked_in_turn(cfg, kinds):
    """The sorter verdict from every mirror up to the first sorter applied in turn."""
    state = experiment._combo(experiment.EQUAL_TAGS, kinds)
    for spec, m in cfg.multiport:
        if spec.kind in ("MIRROR", "PARITY_SORTER"):
            state = apply(m, state)
        if spec.kind == "PARITY_SORTER":
            break
    detector = sorted(experiment.DETECTOR_PATHS)
    return all(sorted(m.path for m in t.occupation) != detector for t in state.terms)


def test_sorter_verdict_ignores_the_mirrors_before_the_sorter():
    # a mirror keeps the parity of l, so it never changes the sorter's routing
    no_sorter = PipelineConfig(
        elements_override=tuple(spec for spec in pipeline_elements(PipelineConfig()) if spec.kind != "PARITY_SORTER")
    )
    blocked = collections.defaultdict(collections.Counter)
    for cfg in (*every_mirror_and_sorter_config(), no_sorter):
        for kinds in itertools.product(experiment.TERM_KINDS, repeat=2):
            verdict = experiment._sorter_parity_blocked(cfg, kinds)
            assert verdict == sorter_blocked_in_turn(cfg, kinds)
            blocked[cfg is no_sorter][verdict] += 1
    assert blocked[False][True] and blocked[False][False]
    # with no sorter in the chain every combo leaves one photon per path
    assert blocked[True] == {False: 9}


def test_configs_share_each_built_in_element_map():
    first, second = PipelineConfig(), PipelineConfig(overlap=0.5)
    assert [spec for spec, _ in first.multiport] == [spec for spec, _ in second.multiport]
    for (spec, m1), (_, m2) in zip(first.multiport, second.multiport):
        # each config holds the one built map itself, acting on the element's paths only
        assert m1 is m2 is build_element(spec)
        assert m1.paths == set(spec.paths)


SWAP_UNITARY = ElementSpec("LOCAL_UNITARY", ("D",), {"matrix": [[0, 1, 0], [1, 0, 0], [0, 0, 1]], "basis": (0, 1, -1)})
SWAP_RELABEL = ElementSpec("RELABEL", ("C",), {"mapping": {"1": [-1, 1], "-1": [1, 1]}})


def test_config_build_extends_no_element_map(monkeypatch):
    calls = []
    extend = ghz3d.states.extend_identity

    def counted(*args):
        calls.append(args)
        return extend(*args)

    for module in list(sys.modules.values()):
        if module and module.__name__.startswith("ghz3d") and "extend_identity" in vars(module):
            monkeypatch.setattr(module, "extend_identity", counted)
    amps = SourceAmplitudes.from_ratios(1.7, 2.0)
    for cfg in (
        PipelineConfig(),
        PipelineConfig(source1=amps, source2=amps, include_c2=True, mirrors=DETAILED_SETUP_MIRRORS, overlap=0.5),
        PipelineConfig(elements_override=pipeline_elements(PipelineConfig()) + (SWAP_UNITARY, SWAP_RELABEL)),
    ):
        run_pipeline(cfg)
        classify_terms(cfg)
    assert calls == []
    ghz3d.states.extend_identity(build_element(SWAP_RELABEL), ())
    assert len(calls) == 1


@pytest.mark.parametrize("ell", [-5, -4])
def test_a_photon_meeting_the_spp_at_l_minus_4_or_5_leaves_the_window(ell):
    # the RELABEL sends the odd+ term's A photon to l; the SPP would send it
    # on to 2 - l, outside |l| <= 5
    spp = ElementSpec("SPP_REFLECT", ("A",))
    to = ElementSpec("RELABEL", ("A",), {"mapping": {"1": [ell, 1], str(ell): [1, 1]}})
    with pytest.raises(ValueError, match=re.escape("pipeline.elements push a photon out of the tracked OAM window")):
        PipelineConfig(elements_override=(to, spp))
    inside = ElementSpec("RELABEL", ("A",), {"mapping": {"1": [-3, 1], "-3": [1, 1]}})
    assert set(PipelineConfig(elements_override=(inside, spp)).multiport_map.entries) == SOURCE_MODES


def test_combo_source_is_the_product_of_its_pair_terms():
    for kinds in itertools.product(experiment.TERM_KINDS, repeat=2):
        for tags in (experiment.EQUAL_TAGS, experiment.DISTINCT_TAGS):
            pairs = [
                PhotonicState({experiment._pair_term(kind, paths, tag): 1.0})
                for kind, paths, tag in zip(kinds, (experiment.SOURCE1_PATHS, experiment.SOURCE2_PATHS), tags)
            ]
            combo = experiment._combo(tags, kinds)
            assert repr(list(combo._terms.items())) == repr(list(tensor(*pairs)._terms.items()))


# sha256 of the classify_terms verdicts of the 1024 cached configs, recorded
# when every combo state and pair term was still built per config
CLASSIFICATION_DIGEST = "d1177d4bd9df3f857e02fc1d66c203e0ac21afc2d3a2f66274c29c87d754e17c"


def test_combo_states_and_pair_terms_are_built_once():
    for kinds in itertools.product(experiment.TERM_KINDS, repeat=2):
        for tags in (experiment.EQUAL_TAGS, experiment.DISTINCT_TAGS):
            combo = experiment._combo(tags, kinds)
            assert experiment._combo(tags, kinds) is combo
            assert exact((experiment._combo.__wrapped__(tags, kinds), 1.0)) == exact((combo, 1.0))
    for kind in experiment.PAIR_ELLS:
        for paths in (experiment.SOURCE1_PATHS, experiment.SOURCE2_PATHS):
            for tag in experiment.RUN_TAGS:
                term = experiment._pair_term(kind, paths, tag)
                assert experiment._pair_term(kind, paths, tag) is term
                assert experiment._pair_term.__wrapped__(kind, paths, tag) == term
    # spdc_state takes its paths as any sequence
    amps = SourceAmplitudes.from_ratios(1.7, 2.0)
    assert exact((spdc_state(["A", "B"], amps, 1, True), 1.0)) == exact((spdc_state(("A", "B"), amps, 1, True), 1.0))
    digest = hashlib.sha256()
    for cfg in every_mirror_and_sorter_config():
        digest.update(repr(classify_terms(cfg).combos).encode())
    assert digest.hexdigest() == CLASSIFICATION_DIGEST


def test_classify_terms_runs_each_combo_once_per_tag_set(monkeypatch):
    cfg = PipelineConfig()
    run_chain = experiment._detected
    sources = []

    def detected(cfg, state):
        sources.append(frozenset(state.modes()))
        return run_chain(cfg, state)

    monkeypatch.setattr(experiment, "_detected", detected)
    assert classify_terms(cfg).count(CROSS_BLOCKED) == 2
    assert len(sources) == len(set(sources)) == 18


# --- the target GHZ state ---------------------------------------------------


def test_pipeline_reproduces_reference_state():
    res = run_pipeline(PipelineConfig())
    terms = {
        tuple(m.oam for m in t.occupation): t.amplitude for t in res.bcd_state.terms
    }
    # occupations are canonically ordered (B, C, D)
    assert set(terms) == {(2, 0, 0), (3, 1, 1), (-1, -1, -1)}
    mags = [abs(a) for a in terms.values()]
    assert max(mags) - min(mags) < 1e-12
    assert abs(mags[0] - 1 / math.sqrt(3)) < 1e-12


def test_pipeline_probability_matches_oracle():
    _, p_oracle = expand(BALANCED, BALANCED)
    res = run_pipeline(PipelineConfig())
    assert abs(res.probability - p_oracle) < 1e-14
    assert abs(res.probability - 1.0 / 24.0) < 1e-14


def test_pipeline_amplitudes_match_oracle_unbalanced():
    amps = SourceAmplitudes.from_ratios(1.7)
    cfg = PipelineConfig(source1=amps, source2=amps)
    res = run_pipeline(cfg)
    oracle_amps, p_oracle = expand(amps.c0, amps.c1)
    assert abs(res.probability - p_oracle) < 1e-14

    oracle = {
        (b[0], c[0], d[0]): amp for ((b, c, d, _a)), amp in oracle_amps.items()
    }
    norm = math.sqrt(sum(abs(a) ** 2 for a in oracle.values()))
    pipeline = {
        tuple(m.oam for m in t.occupation): t.amplitude for t in res.bcd_state.terms
    }
    assert set(pipeline) == set(oracle)
    ref_key = (2, 0, 0)
    for key in oracle:
        expected = oracle[key] / oracle[ref_key]
        got = pipeline[key] / pipeline[ref_key]
        assert abs(expected - got) < 1e-12


def test_even_to_odd_amplitude_ratio():
    amps = SourceAmplitudes.from_ratios(1.7)
    res = run_pipeline(PipelineConfig(source1=amps, source2=amps))
    terms = {tuple(m.oam for m in t.occupation): t.amplitude for t in res.bcd_state.terms}
    ratio = abs(terms[(2, 0, 0)]) / abs(terms[(3, 1, 1)])
    assert abs(ratio - 2.89) < 1e-12  # (c0/c1)^2
    assert abs(abs(terms[(3, 1, 1)]) - abs(terms[(-1, -1, -1)])) < 1e-12
    # normalized magnitude of the even term: c0^2 / sqrt(c0^4 + 2 c1^4)
    c0, c1 = amps.c0, amps.c1
    assert abs(abs(terms[(2, 0, 0)]) - c0**2 / math.sqrt(c0**4 + 2 * c1**4)) < 1e-12


def test_photon_a_exits_in_plus_state():
    res = run_pipeline(PipelineConfig())
    assert res.a_state is not None
    plus = PhotonicState(
        {(ModeLabel("A", 0),): 1.0, (ModeLabel("A", -1),): 1.0}
    ).normalize()
    assert abs(fidelity_pure(res.a_state, plus) - 1.0) < 1e-12


def test_relabel_map_matches_reference_convention():
    res = run_pipeline(PipelineConfig())
    relab = res.relabel
    assert relab is not None
    assert relab.levels("B") == (2, 3, -1)   # "2 -> 0 and 3 -> 1"
    assert relab.levels("C") == (0, 1, -1)
    assert relab.levels("D") == (0, 1, -1)


def test_relabeled_state_is_exact_ghz():
    res = run_pipeline(PipelineConfig())
    vec = logical_state_vector(res.bcd_state, res.relabel)
    ghz, _ = tomography.ideal_ghz()
    assert abs(abs(ghz.conj() @ vec) ** 2 - 1.0) < 1e-12
    assert tomography.srv(vec) == (3, 3, 3)


def test_schmidt_rank_rule_matches_svd_on_every_relabelled_config():
    """Each of the 1024 cached configs whose detected state has a relabel map
    once the term weights are let go (tol=1.0): 256 of them, all (3, 3, 3).
    The report's rule, one rank per level of each path, is LAPACK's count."""
    relabelled = 0
    for cfg in every_mirror_and_sorter_config():
        res = run_pipeline(cfg)
        relab = ghz_relabel_map(res.bcd_state, tol=1.0)
        if relab is not None:
            vec = logical_state_vector(res.bcd_state, relab)
            assert tuple(len(relab.by_path[p]) for p in experiment.GHZ_PATHS) == svd_rank_vector(vec) == (3, 3, 3)
            relabelled += 1
    assert relabelled == 256


def test_srv_is_333_for_any_positive_sources():
    for ratio in (1.2, 1.7, 3.0):
        amps = SourceAmplitudes.from_ratios(ratio)
        res = run_pipeline(PipelineConfig(source1=amps, source2=amps))
        relab = ghz_relabel_map(res.bcd_state, tol=1.0)  # unbalanced ok
        vec = logical_state_vector(res.bcd_state, relab)
        assert tomography.srv(vec) == (3, 3, 3)


def test_detailed_setup_variant_state():
    res = run_pipeline(PipelineConfig(mirrors=DETAILED_SETUP_MIRRORS))
    assert {tuple(m.oam for m in t.occupation) for t in res.bcd_state.terms} == {
        (-2, 0, 0),
        (-3, 1, -1),
        (1, -1, 1),
    }
    assert abs(res.probability - 1.0 / 24.0) < 1e-14


def test_even_mirror_insertions_change_nothing():
    base = run_pipeline(PipelineConfig())
    # default mirrors plus an even number of reflections in three stations
    res = run_pipeline(PipelineConfig(mirrors={"a_post_bs": 1, "c_pre_sorter": 3, "b_post_sorter": 2, "d": 2}))
    assert abs(res.probability - base.probability) < 1e-14
    for t in base.bcd_state.terms:
        assert abs(res.bcd_state.amplitude(t.occupation) - t.amplitude) < 1e-12


# the four station-pair toggles the module docstring names
MIRROR_MOVES = (
    {"a_pre_spp", "b_pre_sorter"},
    {"b_pre_sorter", "c_post_sorter"},
    {"b_post_sorter", "c_pre_sorter"},
    {"b_post_sorter", "d"},
)


def _reference_matches(sorter):
    """Mirror-parity patterns (as station sets) whose B,C,D terms are the reference set."""
    matches = {}
    for bits in range(2 ** len(MIRROR_STATIONS)):
        stations = frozenset(s for b, s in enumerate(MIRROR_STATIONS) if bits >> b & 1)
        res = run_pipeline(PipelineConfig(mirrors=dict.fromkeys(stations, 1), sorter=sorter))
        terms = {tuple(m.oam for m in t.occupation): t.amplitude for t in res.bcd_state.terms}
        if set(terms) == {(2, 0, 0), (3, 1, 1), (-1, -1, -1)}:
            matches[stations] = (terms, res.probability)
    return matches


def test_default_mirror_placement_is_unique_up_to_four_moves():
    coset = set()
    for toggles in range(2 ** len(MIRROR_MOVES)):
        stations = set(DEFAULT_MIRRORS)
        for b, move in enumerate(MIRROR_MOVES):
            if toggles >> b & 1:
                stations ^= move
        coset.add(frozenset(stations))
    assert len(coset) == 16  # the four moves are independent

    matches = _reference_matches(SorterConvention())
    assert set(matches) == coset
    default = {
        tuple(m.oam for m in t.occupation): t.amplitude for t in run_pipeline(PipelineConfig()).bcd_state.terms
    }
    for stations, (terms, probability) in matches.items():
        assert "a_post_bs" in stations
        assert abs(probability - 1 / 24) < 1e-12
        assert all(abs(terms[k] - default[k]) < 1e-12 for k in default)
    assert not _reference_matches(SorterConvention(odd_swaps=False))


# --- term elimination ----------------------------------------------------------


def test_classification_counts_and_survivors():
    cls = classify_terms(PipelineConfig())
    assert cls.count(SURVIVES) == 3
    assert cls.count(PARITY_BLOCKED) == 4
    assert cls.count(CROSS_BLOCKED) == 2
    survivors = sorted(k for k, r in cls.combos.items() if r.verdict == SURVIVES)
    assert survivors == [("even", "even"), ("odd+", "odd+"), ("odd-", "odd-")]


def test_classification_mechanism_flags():
    cls = classify_terms(PipelineConfig())
    hom_term = cls.combos[("odd+", "odd-")]       # |1,-1>_AB x |-1,1>_CD
    multiport_term = cls.combos[("odd-", "odd+")]  # |-1,1>_AB x |1,-1>_CD
    assert hom_term.verdict == CROSS_BLOCKED and hom_term.hom_involved
    assert not hom_term.cmp_blocked
    assert multiport_term.verdict == CROSS_BLOCKED and multiport_term.cmp_blocked
    assert not multiport_term.hom_involved
    # parity-mixed combos carry no interference flags
    for k1, k2 in (("even", "odd+"), ("odd-", "even")):
        r = cls.combos[(k1, k2)]
        assert r.verdict == PARITY_BLOCKED
        assert not r.hom_involved and not r.cmp_blocked


def test_total_probability_is_sum_of_surviving_combos():
    cfg = PipelineConfig()
    cls = classify_terms(cfg)
    total = sum(
        r.probability / 9.0 for r in cls.combos.values() if r.verdict == SURVIVES
    )  # balanced sources weight each combo by (1/3)^2 in probability
    res = run_pipeline(cfg)
    assert abs(total - res.probability) < 1e-14


def test_classification_independent_of_overlap():
    for o in (0.0, 0.5):
        cls = classify_terms(PipelineConfig(overlap=o))
        assert cls.count(SURVIVES) == 3
        assert cls.count(PARITY_BLOCKED) == 4
        assert cls.count(CROSS_BLOCKED) == 2


# --- HOM scan -------------------------------------------------------------------


def test_hom_scan_matches_oracle_and_closed_form():
    cfg = PipelineConfig()
    scan = dict(hom_scan(cfg, fig2_projectors(), (0.0, 0.5, 0.834, 1.0)))
    _, p_dist = expand(
        BALANCED,
        BALANCED,
        distinct_tags=True,
        projectors={
            "A": {-1: 1.0},
            "B": {1: 1.0},
            "C": {-1: 1.0},
            "D": {1: 1.0},
        },
    )
    assert abs(scan[0.0] - p_dist) < 1e-14
    assert abs(scan[0.0] - 1.0 / 18.0) < 1e-14  # (1/2) c1^4, two branches
    assert scan[1.0] == pytest.approx(0.0, abs=1e-14)
    for o in (0.5, 0.834):
        assert abs(scan[o] - (1 - o) * scan[0.0]) < 1e-14


def test_hom_scan_visibility_equals_overlap():
    cfg = PipelineConfig()
    scan = dict(hom_scan(cfg, fig2_projectors(), (0.0, 0.834)))
    visibility = (scan[0.0] - scan[0.834]) / scan[0.0]
    assert abs(visibility - 0.834) < 1e-12


def test_overlap_mixes_pipeline_probability():
    p1 = run_pipeline(PipelineConfig()).probability
    p0 = run_pipeline(PipelineConfig(overlap=0.0)).probability
    ph = run_pipeline(PipelineConfig(overlap=0.75)).probability
    assert abs(ph - (0.75 * p1 + 0.25 * p0)) < 1e-14


def test_distinct_tag_run_is_only_weighed_not_factored(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return factor_single_path(*args)

    monkeypatch.setattr(experiment, "factor_single_path", counted)
    res = run_pipeline(PipelineConfig(overlap=0.5))
    assert len(calls) == 1 and res.relabel is not None


# --- factorization ---------------------------------------------------------------


def factorizes(four, a_state, rest):
    """Whether ``four`` is ``a_state`` x ``rest``, to 1e-10 in fidelity."""
    return fidelity_pure(four, tensor(a_state, rest)) >= 1 - 1e-10


def test_factorization_default_config():
    res = run_pipeline(PipelineConfig())
    assert factorizes(res.four_photon_state, res.a_state, res.bcd_state)


def test_a_split_off_photon_a_re_tensors_to_the_detected_state():
    # the simulate report reads a_state is not None as factorized, with no re-check
    cmp_kets = (None, {0: 1.0}, {0: 1.0, 2: -1.0, -1: 0.5j})
    configs = [
        *every_mirror_and_sorter_config(),
        *(replace(cfg, cmp_ket=ket) for cfg in every_mirror_and_sorter_config()[:256] for ket in cmp_kets),
    ]
    split = collections.Counter()
    for cfg in configs:
        res = run_pipeline(cfg)
        if res.a_state is not None:
            assert factorizes(res.four_photon_state, res.a_state, res.bcd_state)
        split[res.a_state is not None] += 1
    assert split[True] and split[False]


def test_factorization_fails_without_cmp():
    amps = SourceAmplitudes.from_ratios(1.7)
    cfg = PipelineConfig(source1=amps, source2=amps, cmp_ket=None)
    res = run_pipeline(cfg)
    # pre-CMP the path-A photon is correlated with the rest
    assert factor_single_path(res.four_photon_state, "A") is None
    plus = PhotonicState(
        {(ModeLabel("A", 0),): 1.0, (ModeLabel("A", -1),): 1.0}
    ).normalize()
    ghz_part = run_pipeline(PipelineConfig(source1=amps, source2=amps)).bcd_state
    assert not factorizes(res.four_photon_state, plus, ghz_part)


def test_factorization_single_source_vacuous():
    # crystal 2 blocked: only the |0,0> term of crystal 1 can fire A and B
    from ghz3d.elements import project

    cfg = PipelineConfig()
    out = spdc_state(("A", "B"), SourceAmplitudes.balanced())
    for _, m in cfg.multiport:
        out = apply(m, out)
    selected, p = postselect(out, {"A", "B"})
    assert p > 0
    detected, p_cmp = project(cfg.cmp, selected)
    assert p_cmp > 0
    factored = factor_single_path(detected, "A")
    assert factored is not None
    a_state, rest = factored
    assert factorizes(detected, a_state, rest)


# --- higher-order source terms ----------------------------------------------------


def test_c2_terms_do_not_contribute_to_detected_state():
    amps = SourceAmplitudes.from_ratios(1.7, 2.0)
    base = run_pipeline(PipelineConfig(source1=amps, source2=amps))
    with_c2 = run_pipeline(PipelineConfig(source1=amps, source2=amps, include_c2=True))
    assert set(t.occupation for t in with_c2.bcd_state.terms) == set(
        t.occupation for t in base.bcd_state.terms
    )
    for t in base.bcd_state.terms:
        assert abs(with_c2.bcd_state.amplitude(t.occupation) - t.amplitude) < 1e-12
    assert abs(with_c2.probability - base.probability) < 1e-12


def test_c2_terms_land_outside_detection_subspace():
    amps = SourceAmplitudes.from_ratios(1.7, 2.0)
    raw = run_pipeline(
        PipelineConfig(
            source1=amps, source2=amps, include_c2=True, restrict_detection=False
        )
    )
    base = run_pipeline(PipelineConfig(source1=amps, source2=amps))
    detected = {(m.path, m.oam) for t in base.bcd_state.terms for m in t.occupation}
    extra = [
        t
        for t in raw.four_photon_state.terms
        if any(m.path != "A" and (m.path, m.oam) not in detected for m in t.occupation)
    ]
    assert extra  # higher-order four-folds exist ...
    oracle_amps, p_oracle = expand(amps.c0, amps.c1, amps.c2)
    assert abs(raw.probability - p_oracle) < 1e-14  # ... and the oracle agrees
    for t in extra:
        values = {m.path: m.oam for m in t.occupation}
        assert abs(values.get("B", 0)) == 2 or abs(values.get("C", 0)) == 2 or abs(
            values.get("D", 0)
        ) == 2


def test_cmp_removes_exactly_out_of_ket_amplitudes():
    res = run_pipeline(PipelineConfig(cmp_ket=None))
    pre = res.four_photon_state  # post-selected, no CMP applied
    a_values = {
        next(m.oam for m in t.occupation if m.path == "A") for t in pre.terms
    }
    assert not a_values <= {0, -1}  # branches outside the CMP ket exist pre-CMP
    detected = run_pipeline(PipelineConfig()).four_photon_state
    kept = {next(m.oam for m in t.occupation if m.path == "A") for t in detected.terms}
    assert kept == {0, -1}
    # survivors are exactly the pre-CMP terms whose path-A OAM sits in the ket
    pre_kept = {
        tuple(sorted((m.path, m.oam) for m in t.occupation if m.path != "A"))
        for t in pre.terms
        if next(m.oam for m in t.occupation if m.path == "A") in (0, -1)
    }
    post = {
        tuple(sorted((m.path, m.oam) for m in t.occupation if m.path != "A"))
        for t in detected.terms
    }
    assert post == pre_kept


def test_default_sorter_routing_is_the_unique_ghz_choice():
    from ghz3d.elements import SorterConvention

    alt = run_pipeline(PipelineConfig(sorter=SorterConvention(odd_swaps=False)))
    assert alt.bcd_state.num_terms != 3 or alt.relabel is None
    cls = classify_terms(PipelineConfig(sorter=SorterConvention(odd_swaps=False)))
    assert cls.count(SURVIVES) != 3  # parity veto no longer isolates the GHZ set


def test_hom_scan_validates_overlap_range():
    with pytest.raises(ValueError):
        hom_scan(PipelineConfig(), fig2_projectors(), (1.5,))


def test_relabel_matches_default_party_basis():
    relab = run_pipeline(PipelineConfig()).relabel
    assert relab.levels("B") == (2, 3, -1)
    assert relab.levels("C") == (0, 1, -1)
    assert relab.levels("D") == (0, 1, -1)


def test_detailed_setup_matches_oracle():
    from ghz3d.experiment import DETAILED_SETUP_MIRRORS

    amps = SourceAmplitudes.from_ratios(1.4)
    cfg = PipelineConfig(source1=amps, source2=amps, mirrors=DETAILED_SETUP_MIRRORS)
    res = run_pipeline(cfg)
    oracle_amps, p_oracle = expand(amps.c0, amps.c1, mirrors=DETAILED_SETUP_MIRRORS)
    assert abs(res.probability - p_oracle) < 1e-14
    oracle = {(b[0], c[0], d[0]): amp for ((b, c, d, _a)), amp in oracle_amps.items()}
    pipeline = {tuple(m.oam for m in t.occupation): t.amplitude for t in res.bcd_state.terms}
    assert set(pipeline) == set(oracle)
    ref = next(iter(sorted(oracle)))
    for key in oracle:
        assert abs(oracle[key] / oracle[ref] - pipeline[key] / pipeline[ref]) < 1e-12


def test_distinct_tag_run_matches_oracle():
    amps = SourceAmplitudes.from_ratios(1.7)
    cfg = PipelineConfig(source1=amps, source2=amps, overlap=0.0)
    res = run_pipeline(cfg)
    _, p_oracle = expand(amps.c0, amps.c1, distinct_tags=True)
    assert abs(res.probability - p_oracle) < 1e-14
