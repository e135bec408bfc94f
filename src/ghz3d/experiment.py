"""Full source-to-detectors pipeline for the three-photon GHZ experiment.

Two OAM-entangled pair sources feed four paths A..D.  Paths B and C pass an
OAM parity sorter, path A a reflection + spiral phase plate, then a 50/50
beam splitter combines A and B, and a coherent mode projection (CMP) on path
A onto (|0> + |-1>)/sqrt(2) completes the multi-port.  Post-selecting one
photon per detector leaves a three-term, three-dimensionally entangled state
on paths B, C, D.

The default mirror placement (one reflection on path C before the sorter,
one on path A between the beam splitter and the CMP) makes the surviving
term set equal the reference form:

    (|2,0,0> + |3,1,1> + |-1,-1,-1>)/sqrt(3)  on  (B, C, D)

with the two odd-odd cross combinations eliminated by two-photon
interference (HOM) at the splitter and by the CMP respectively, and with
higher-order |+-2,-+2> source terms landing outside the detected mode
subspace.  Given the declared sorter and splitter conventions the placement
is unique up to four moves, each toggling the mirrors of two stations, so 16
of the 256 mirror-parity patterns give this state (all with a mirror at
a_post_bs; none if even parity swaps at the sorter):

* {a_pre_spp, b_pre_sorter}: l -> -l on both photons of source 1's pair
  state, which is symmetric under it;
* {b_pre_sorter, c_post_sorter}, {b_post_sorter, c_pre_sorter}: a c2-free
  photon enters the sorter with l = 0, which a mirror leaves alone, or odd,
  and crosses, so a mirror before one input acts as one after the other output;
* {b_post_sorter, d}: the move before and the pair flip {c_pre_sorter, d}.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

from ._checks import require_finite
from .elements import (
    DISTINCT_TAGS,
    EQUAL_TAGS,
    RUN_TAGS,
    ElementSpec,
    Projector1,
    SorterConvention,
    _oam_keys,
    _projection,
    build_element,
    project,
)
from .states import (
    LinearMap,
    ModeLabel,
    Occupation,
    PhotonicState,
    _detect,
    fold,
    tensor,
)

#: the fixed setup: source 1 feeds paths A and B, source 2 paths C and D; the
#: CMP sits on A and the three GHZ photons leave on B, C and D
SOURCE1_PATHS = ("A", "B")
SOURCE2_PATHS = ("C", "D")
DETECTOR_PATHS = (*SOURCE1_PATHS, *SOURCE2_PATHS)
GHZ_PATHS = ("B", "C", "D")

#: mirror stations exposed by the pipeline, in beam order
MIRROR_STATIONS = (
    "a_pre_spp",      # path A, between crystal 1 and the reflection+SPP
    "a_post_bs",      # path A, between beam splitter output and CMP
    "b_pre_sorter",   # path B, between crystal 1 and the sorter
    "b_post_sorter",  # path B, between sorter output and beam splitter
    "b_post_bs",      # path B, between beam splitter output and detector
    "c_pre_sorter",   # path C, between crystal 2 and the sorter
    "c_post_sorter",  # path C, between sorter output and detector
    "d",              # path D, between crystal 2 and detector
)

DEFAULT_MIRRORS = {"a_post_bs": 1, "c_pre_sorter": 1}

#: extra reflections reproducing the detailed-setup variant of the state,
#: (|-2,0,0> + |-3,1,-1> + |1,-1,1>)/sqrt(3)
DETAILED_SETUP_MIRRORS = {"a_post_bs": 1, "c_pre_sorter": 1, "b_post_bs": 1, "d": 1}

CMP_KET = {0: 1.0, -1: 1.0}  # normalized by Projector1.of

EVEN, ODD_PLUS, ODD_MINUS = "even", "odd+", "odd-"
TERM_KINDS = (EVEN, ODD_PLUS, ODD_MINUS)
C2_PLUS, C2_MINUS = "c2+", "c2-"

#: OAM values (first path, second path) of each pair term a source emits
PAIR_ELLS = {EVEN: (0, 0), ODD_PLUS: (1, -1), ODD_MINUS: (-1, 1), C2_PLUS: (2, -2), C2_MINUS: (-2, 2)}
#: every OAM value a source photon can carry
SOURCE_ELLS = tuple(sorted({ell for pair in PAIR_ELLS.values() for ell in pair}))
#: every mode a photon of either source occupies in either run: its paths x
#: SOURCE_ELLS x its tag in EQUAL_TAGS and in DISTINCT_TAGS
SOURCE_MODES = frozenset(
    ModeLabel(path, ell, tags[i])
    for tags in (EQUAL_TAGS, DISTINCT_TAGS)
    for i, paths in enumerate((SOURCE1_PATHS, SOURCE2_PATHS))
    for path in paths
    for ell in SOURCE_ELLS
)


@dataclass(frozen=True)
class SourceAmplitudes:
    """Pair-term amplitudes of one down-conversion source.

    c0, c1, c2 weight the |0,0>, |+-1,-+1> and |+-2,-+2> pair terms;
    normalization is c0^2 + 2 c1^2 + 2 c2^2 = 1.
    """

    c0: float
    c1: float
    c2: float = 0.0

    def __post_init__(self) -> None:
        amplitudes = {"c0": self.c0, "c1": self.c1, "c2": self.c2}
        require_finite("source amplitudes", **amplitudes)
        negative = [f"{name}={value}" for name, value in amplitudes.items() if value < 0]
        if negative:
            raise ValueError(f"source amplitudes must be non-negative: {', '.join(negative)}")
        tol = 1e-12
        # the normalization bounds every amplitude by 1; rejecting larger ones
        # first keeps the squares below from overflowing
        too_large = [f"{name}={value}" for name, value in amplitudes.items() if value > 1.0 + tol]
        if too_large:
            raise ValueError(f"source amplitudes must not exceed 1: {', '.join(too_large)}")
        n = self.c0**2 + 2 * self.c1**2 + 2 * self.c2**2
        if abs(n - 1.0) > tol:
            raise ValueError(f"source amplitudes not normalized: {n}")

    @classmethod
    def balanced(cls) -> "SourceAmplitudes":
        c = 1.0 / math.sqrt(3.0)
        return cls(c, c, 0.0)

    @classmethod
    def from_ratios(cls, c0_over_c1: float, c1_over_c2: float = math.inf) -> "SourceAmplitudes":
        c1 = 1.0
        c0 = c0_over_c1
        try:
            c2 = 0.0 if math.isinf(c1_over_c2) else c1 / c1_over_c2
            n = math.sqrt(c0**2 + 2 * c1**2 + 2 * c2**2)
        except (OverflowError, ZeroDivisionError):
            raise ValueError(
                "source amplitude ratios cannot be normalized: "
                f"c0_over_c1={c0_over_c1}, c1_over_c2={c1_over_c2}"
            ) from None
        return cls(c0 / n, c1 / n, c2 / n)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to assemble and run the four-photon pipeline."""

    source1: SourceAmplitudes = field(default_factory=SourceAmplitudes.balanced)
    source2: SourceAmplitudes = field(default_factory=SourceAmplitudes.balanced)
    mirrors: Mapping[str, int] = field(default_factory=lambda: dict(DEFAULT_MIRRORS))
    sorter: SorterConvention = SorterConvention()
    overlap: float = 1.0  # temporal overlap o of the two sources, in [0, 1]
    include_c2: bool = False
    cmp_ket: Mapping[int, complex] | None = field(default_factory=lambda: dict(CMP_KET))
    elements_override: tuple[ElementSpec, ...] | None = None
    restrict_detection: bool = True  # drop modes outside the c2-free support
    # computed by __post_init__: every element of pipeline_elements(self) with
    # its map over both runs' tags, the chain folded into one map, the CMP
    # projector (None without CMP), and the full source state of each run
    # through the multi-port, postselected
    multiport: tuple[tuple[ElementSpec, LinearMap], ...] = field(init=False, repr=False, compare=False)
    multiport_map: LinearMap = field(init=False, repr=False, compare=False)
    cmp: Projector1 | None = field(init=False, repr=False, compare=False)
    detected: Mapping[tuple[int, int], tuple[PhotonicState, float]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError(f"overlap must lie in [0, 1]: overlap={self.overlap}")
        if not isinstance(self.include_c2, bool):
            raise ValueError(f"include_c2 must be a bool: {self.include_c2!r}")
        cmp_ket = {} if self.cmp_ket is None else _oam_keys("cmp_ket", self.cmp_ket)
        cmp_ket = {ell: complex(v) for ell, v in cmp_ket.items()}
        require_finite(
            "pipeline config",
            overlap=self.overlap,
            **{f"mirrors[{k}]": v for k, v in self.mirrors.items()},
            **{f"cmp[{k}]": v for k, v in cmp_ket.items()},
        )
        unknown = set(self.mirrors) - set(MIRROR_STATIONS)
        if unknown:
            raise ValueError(f"unknown mirror stations: {sorted(unknown)}")
        mirrors = {k: int(v) for k, v in self.mirrors.items()}
        fractional = [f"mirrors[{k}]={v}" for k, v in self.mirrors.items() if v != mirrors[k]]
        if fractional:
            raise ValueError(f"mirror counts must be integers: {', '.join(fractional)}")
        negative = [f"mirrors[{k}]={n}" for k, n in mirrors.items() if n < 0]
        if negative:
            raise ValueError(f"mirror counts must be non-negative: {', '.join(negative)}")
        object.__setattr__(self, "mirrors", MappingProxyType(mirrors))
        if self.cmp_ket is not None:
            object.__setattr__(self, "cmp_ket", MappingProxyType(cmp_ket))
        if self.elements_override is not None:
            object.__setattr__(self, "elements_override", tuple(self.elements_override))
        try:
            cmp = None if self.cmp_ket is None else Projector1.of("A", self.cmp_ket)
        except ValueError as exc:
            raise ValueError(f"cmp_ket: {exc}") from None
        object.__setattr__(self, "cmp", cmp)
        multiport, multiport_map = _compile_multiport(self)
        object.__setattr__(self, "multiport", multiport)
        object.__setattr__(self, "multiport_map", multiport_map)
        # the combos of classify_terms occupy every |l| <= 1 source mode, a source emitting c2 its +-2 ones too
        sources = ((SOURCE1_PATHS, self.source1), (SOURCE2_PATHS, self.source2))
        c2_paths = {path for paths, amps in sources if self.include_c2 and amps.c2 for path in paths}
        missing = SOURCE_MODES.difference(multiport_map.entries)
        lost = {(m.path, m.oam) for m in missing if abs(m.oam) < 2 or m.path in c2_paths}
        if lost:
            where = ", ".join(f"{path} l={ell}" for path, ell in sorted(lost))
            raise ValueError(f"pipeline.elements push a photon out of the tracked OAM window: from {where}")
        detected = {tags: _detected(self, _sources(self, tags)) for tags in (EQUAL_TAGS, DISTINCT_TAGS)}
        object.__setattr__(self, "detected", MappingProxyType(detected))


def spdc_state(
    paths: Sequence[str],
    amps: SourceAmplitudes,
    tag: int = 0,
    include_c2: bool = False,
) -> PhotonicState:
    """Two-photon state emitted by one source into its two paths."""
    weights = {EVEN: amps.c0, ODD_PLUS: amps.c1, ODD_MINUS: amps.c1}
    if include_c2 and amps.c2:
        weights.update({C2_PLUS: amps.c2, C2_MINUS: amps.c2})
    paths = tuple(paths)
    return PhotonicState({_pair_term(kind, paths, tag): w for kind, w in weights.items()})


@functools.lru_cache(maxsize=64)
def _pair_term(kind: str, paths: tuple[str, ...], tag: int) -> Occupation:
    """The two modes a pair term of ``kind`` occupies, built once per process
    for each (kind, paths, tag); the pipeline asks for 20 of them."""
    return tuple(ModeLabel(path, ell, tag) for path, ell in zip(paths, PAIR_ELLS[kind]))


def pipeline_elements(cfg: PipelineConfig) -> tuple[ElementSpec, ...]:
    """The multi-port as an ordered element chain (CMP excluded)."""
    if cfg.elements_override is not None:
        return cfg.elements_override
    chain: list[ElementSpec] = []

    def add_mirror(station: str, path: str) -> None:
        if cfg.mirrors.get(station, 0) % 2:
            chain.append(ElementSpec("MIRROR", (path,)))

    add_mirror("a_pre_spp", "A")
    add_mirror("b_pre_sorter", "B")
    add_mirror("c_pre_sorter", "C")
    add_mirror("d", "D")
    chain.append(
        ElementSpec(
            "PARITY_SORTER",
            ("B", "C"),
            {"odd_swaps": cfg.sorter.odd_swaps, "swap_phase": cfg.sorter.swap_phase},
        )
    )
    add_mirror("b_post_sorter", "B")
    add_mirror("c_post_sorter", "C")
    chain.append(ElementSpec("SPP_REFLECT", ("A",)))
    chain.append(ElementSpec("BEAM_SPLITTER", ("A", "B")))
    add_mirror("a_post_bs", "A")
    add_mirror("b_post_bs", "B")
    return tuple(chain)


def _compile_multiport(
    cfg: PipelineConfig,
) -> tuple[tuple[tuple[ElementSpec, LinearMap], ...], LinearMap]:
    """Each element of ``pipeline_elements(cfg)`` with its factory map
    over the tags of both runs, acting on the element's paths only, and the
    chain folded into one map over the source modes, the only modes a state
    applied to it occupies.  A source mode whose photon the chain pushes out
    of the OAM window is left out of the folded map's support, so occupying
    it raises UnsupportedMode; ``PipelineConfig`` rejects a chain that leaves
    out a mode its runs occupy.  An element that cannot be built is a
    ValueError naming it.
    """
    chain = []
    for i, spec in enumerate(pipeline_elements(cfg)):
        try:
            chain.append((spec, build_element(spec)))
        except (KeyError, TypeError, ValueError) as exc:
            where = f"pipeline element {i} ({spec.kind} on {', '.join(spec.paths)})"
            raise ValueError(f"{where}: {exc}") from None
    return tuple(chain), fold([m for _, m in chain], SOURCE_MODES)


def _sources(cfg: PipelineConfig, tags: tuple[int, int]) -> PhotonicState:
    """Both sources at ``tags``."""
    s1 = spdc_state(SOURCE1_PATHS, cfg.source1, tags[0], cfg.include_c2)
    s2 = spdc_state(SOURCE2_PATHS, cfg.source2, tags[1], cfg.include_c2)
    return tensor(s1, s2)


@functools.cache
def _combo(tags: tuple[int, int], kinds: tuple[str, str]) -> PhotonicState:
    """One pair term of each source at ``tags``, with amplitude 1; each of the
    18 (EQUAL_TAGS or DISTINCT_TAGS, kind pair) states is built once per process."""
    pair1 = _pair_term(kinds[0], SOURCE1_PATHS, tags[0])
    return PhotonicState({pair1 + _pair_term(kinds[1], SOURCE2_PATHS, tags[1]): 1.0})


def _detected(cfg: PipelineConfig, state: PhotonicState) -> tuple[PhotonicState, float]:
    """A source state through the multi-port and postselected on one photon
    per detector, in one pass that builds only the selected terms and
    normalizes them once."""
    return _detect(cfg.multiport_map, state, DETECTOR_PATHS)


@dataclass(frozen=True)
class RelabelMap:
    """Per-path OAM relabeling (value -> logical level, phase) onto the GHZ form.

    Applying the phases and reading mode values as logical levels turns the
    pipeline output into the canonical balanced GHZ state
    (|000> + |111> + |222>)/sqrt(3).
    """

    by_path: Mapping[str, Mapping[int, tuple[int, complex]]]

    def levels(self, path: str) -> tuple[int, ...]:
        """OAM values of logical levels 0, 1, 2 on a path."""
        inv = {lvl: ell for ell, (lvl, _) in self.by_path[path].items()}
        return tuple(inv[i] for i in range(len(inv)))

    def to_dict(self) -> dict:
        return {
            path: {str(ell): [lvl, [phase.real, phase.imag]] for ell, (lvl, phase) in m.items()}
            for path, m in self.by_path.items()
        }


@dataclass(frozen=True)
class PipelineResult:
    """Output of one pipeline run at a fixed tag assignment."""

    bcd_state: PhotonicState
    a_state: PhotonicState | None
    probability: float
    four_photon_state: PhotonicState | None
    relabel: RelabelMap | None


def factor_single_path(
    state: PhotonicState, path: str
) -> tuple[PhotonicState, PhotonicState] | None:
    """Split ``state`` as (single photon on ``path``) x (rest), if possible.

    Returns None when the path photon is entangled with the rest.  Both
    factors come back normalized; the global phase stays on the rest factor.
    """
    groups: dict[tuple[ModeLabel, ...], dict[ModeLabel, complex]] = {}
    for term in state.terms:
        own = tuple(m for m in term.occupation if m.path == path)
        rest = tuple(m for m in term.occupation if m.path != path)
        if len(own) != 1:
            return None
        groups.setdefault(rest, {})[own[0]] = term.amplitude
    rests = sorted(groups)
    ref = groups[rests[0]]
    ref_norm = math.sqrt(sum(abs(a) ** 2 for a in ref.values()))
    ref_vec = {m: a / ref_norm for m, a in ref.items()}
    rest_amps: dict[tuple[ModeLabel, ...], complex] = {}
    for rest in rests:
        vec = groups[rest]
        if set(vec) != set(ref_vec):
            return None
        scale = None
        for m, a in vec.items():
            s = a / ref_vec[m]
            if scale is None:
                scale = s
            elif abs(s - scale) > 1e-10 * max(1.0, abs(scale)):
                return None
        rest_amps[rest] = scale
    a_state = PhotonicState({(m,): a for m, a in ref_vec.items()}).normalize()
    rest_state = PhotonicState(rest_amps).normalize()
    return a_state, rest_state


def _detection_support(cfg: PipelineConfig) -> set[tuple[str, int]] | None:
    """(path, OAM) support of the c2-free run; detection is restricted to it.

    Photons in higher-order modes still reach the detectors, but the
    projective measurements only address the three logical modes per path,
    so those events never enter the recorded state.
    """
    if not (cfg.restrict_detection and cfg.include_c2 and max(cfg.source1.c2, cfg.source2.c2) > 0):
        return None
    c2_free = tensor(spdc_state(SOURCE1_PATHS, cfg.source1), spdc_state(SOURCE2_PATHS, cfg.source2))
    selected, _ = _detected(cfg, c2_free)
    return {(m.path, m.oam) for m in selected.modes()} or None


def _after_cmp(
    cfg: PipelineConfig, tags: tuple[int, int], support: set[tuple[str, int]] | None
) -> tuple[PhotonicState, float]:
    """The state of one coherent pipeline run with fixed per-source tags
    after the CMP, and its probability."""
    selected, p_select = cfg.detected[tags]
    if support is not None and not selected.is_zero:
        kept = {
            term.occupation: term.amplitude
            for term in selected.terms
            if all((m.path, m.oam) in support for m in term.occupation)
        }
        weight = sum(abs(a) ** 2 for a in kept.values())
        selected = PhotonicState(kept)
        p_select *= weight
        if not selected.is_zero:
            selected = selected.normalize()
    four, p_cmp = (selected, 1.0) if cfg.cmp is None else project(cfg.cmp, selected)
    return four, 0.0 if four.is_zero else p_select * p_cmp


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Run the pipeline at the indistinguishable point (equal tags).

    For overlap o < 1 the reported probability is the convex mix
    o * P(equal tags) + (1 - o) * P(distinct tags); the returned states are
    those of the coherent, equal-tag branch.
    """
    support = _detection_support(cfg)
    four, probability = _after_cmp(cfg, EQUAL_TAGS, support)
    if cfg.overlap < 1.0:
        _, p_distinct = _after_cmp(cfg, DISTINCT_TAGS, support)
        probability = cfg.overlap * probability + (1 - cfg.overlap) * p_distinct
    if four.is_zero:
        return PipelineResult(four, None, probability, None, None)
    factored = factor_single_path(four, "A")
    if factored is None:
        return PipelineResult(four, None, probability, four, None)
    a_state, bcd = factored
    return PipelineResult(bcd, a_state, probability, four, ghz_relabel_map(bcd))


def ghz_relabel_map(bcd_state: PhotonicState, tol: float = 1e-10) -> RelabelMap | None:
    """Declared relabeling turning the pipeline output into the balanced GHZ.

    Requires three equal-weight terms on GHZ_PATHS with per-path distinct
    OAM values.  Logical level order follows D's values taken mod 3 when
    that is a permutation of (0, 1, 2), canonical term order otherwise.
    Phases are pushed onto B's modes.
    """
    terms = bcd_state.terms
    if len(terms) != 3:
        return None
    weights = [abs(t.amplitude) for t in terms]
    if max(weights) - min(weights) > tol:
        return None
    values: dict[str, list[int]] = {p: [] for p in GHZ_PATHS}
    for t in terms:
        by_path = {m.path: m.oam for m in t.occupation}
        if set(by_path) != set(GHZ_PATHS):
            return None
        for p in GHZ_PATHS:
            values[p].append(by_path[p])
    for p in GHZ_PATHS:
        if len(set(values[p])) != 3:
            return None

    last = GHZ_PATHS[-1]
    if sorted(v % 3 for v in values[last]) == [0, 1, 2]:
        order = sorted(range(3), key=lambda i: values[last][i] % 3)
    else:
        order = list(range(3))

    by_path: dict[str, dict[int, tuple[int, complex]]] = {p: {} for p in GHZ_PATHS}
    for level, idx in enumerate(order):
        amp = terms[idx].amplitude
        phase = (amp / abs(amp)).conjugate()
        for p in GHZ_PATHS:
            ph = phase if p == GHZ_PATHS[0] else 1.0 + 0j
            by_path[p][values[p][idx]] = (level, ph)
    return RelabelMap(by_path)


def logical_state_vector(bcd_state: PhotonicState, relab: RelabelMap) -> list[complex]:
    """27-component logical vector of a three-photon state under a relabeling."""
    vec = [0j] * 27
    for term in bcd_state.terms:
        by_path = {m.path: m.oam for m in term.occupation}
        idx = 0
        phase = 1.0 + 0j
        for p in GHZ_PATHS:
            level, ph = relab.by_path[p][by_path[p]]
            idx = idx * 3 + level
            phase *= ph
        vec[idx] += term.amplitude * phase
    # the norm and the scaling as numpy takes them: real squares, then imaginary
    n = math.sqrt(sum(z.real * z.real for z in vec) + sum(z.imag * z.imag for z in vec))
    return [z * (1.0 / n) for z in vec] if n else vec


SURVIVES = "SURVIVES"
PARITY_BLOCKED = "PARITY_BLOCKED"
CROSS_BLOCKED = "CROSS_BLOCKED"


@dataclass(frozen=True)
class ComboReport:
    verdict: str
    hom_involved: bool
    cmp_blocked: bool
    probability: float


@dataclass(frozen=True)
class TermClassification:
    """Verdict and mechanism flags for each of the nine four-photon combos."""

    combos: Mapping[tuple[str, str], ComboReport]

    def count(self, verdict: str) -> int:
        return sum(1 for r in self.combos.values() if r.verdict == verdict)


def _sorter_parity_blocked(cfg: PipelineConfig, kinds: tuple[str, str]) -> bool:
    """True when the first sorter alone (mirrors keep l's parity) already precludes one photon per path."""
    sorter = next((m for spec, m in cfg.multiport if spec.kind == "PARITY_SORTER"), LinearMap({}))
    return _detect(sorter, _combo(EQUAL_TAGS, kinds), DETECTOR_PATHS)[1] == 0.0


def classify_terms(cfg: PipelineConfig) -> TermClassification:
    """Run each of the nine pair-term combinations through the pipeline.

    SURVIVES: nonzero four-fold probability with indistinguishable photons.
    PARITY_BLOCKED: the sorter's parity routing already precludes a photon
    in every path.  CROSS_BLOCKED: everything else; mechanism flags record
    whether two-photon interference at the splitter is involved (probability
    changes for distinguishable photons) and whether the CMP is what blocks
    the four-fold event.
    """
    cmp = {} if cfg.cmp is None else {cfg.cmp.path: cfg.cmp}
    reports: dict[tuple[str, str], ComboReport] = {}
    for k1 in TERM_KINDS:
        for k2 in TERM_KINDS:
            kinds = (k1, k2)
            equal = _detected(cfg, _combo(EQUAL_TAGS, kinds))
            p_ind = _projected_fourfold(cmp, equal)
            p_dis = _projected_fourfold(cmp, _detected(cfg, _combo(DISTINCT_TAGS, kinds)))
            hom = abs(p_ind - p_dis) > 1e-12
            if p_ind > 1e-12:
                verdict = SURVIVES
                cmp_blocked = False
            elif _sorter_parity_blocked(cfg, kinds):
                verdict = PARITY_BLOCKED
                cmp_blocked = False
            else:
                verdict = CROSS_BLOCKED
                cmp_blocked = equal[1] > 1e-12  # the four-fold probability before the CMP
            reports[kinds] = ComboReport(verdict, hom, cmp_blocked, p_ind)
    return TermClassification(reports)


def _projected_fourfold(projection: Mapping[str, Projector1], detected: tuple[PhotonicState, float]) -> float:
    """Four-fold probability of a detected state after the given projectors,
    in detector order; the state after the last one is not normalized."""
    state, p = detected
    projectors = [projection[path] for path in DETECTOR_PATHS if path in projection]
    for proj in projectors[:-1]:
        if p == 0.0:
            return 0.0
        state, p_proj = project(proj, state)
        p *= p_proj
    if p == 0.0 or not projectors:
        return p
    return p * _projection(projectors[-1], state).norm() ** 2


def hom_scan(
    cfg: PipelineConfig,
    projection: Mapping[str, Projector1],
    overlaps: Sequence[float],
) -> tuple[tuple[float, float], ...]:
    """Four-fold probability vs temporal overlap for a projective setting.

    ``projection`` supplies one single-photon projector per detector path
    (the path-A projector plays the role of the CMP).  Each probability is
    the convex mix o * P(indistinguishable) + (1 - o) * P(distinguishable).
    """
    if set(projection) != set(DETECTOR_PATHS):
        raise ValueError("need exactly one projector per detector path")
    p_ind = _projected_fourfold(projection, cfg.detected[EQUAL_TAGS])
    p_dis = _projected_fourfold(projection, cfg.detected[DISTINCT_TAGS])
    out = []
    for o in overlaps:
        if not 0.0 <= o <= 1.0:
            raise ValueError("overlap values must lie in [0, 1]")
        out.append((float(o), o * p_ind + (1 - o) * p_dis))
    return tuple(out)

