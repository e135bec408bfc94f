"""Value-semantic algebra of multi-photon states over labeled optical modes.

A mode is a (path, OAM, tag) triple.  States are finite superpositions of
creation-operator monomials acting on the vacuum; linear-optical elements are
mode-to-superposition substitution maps.  Bosonic statistics (HOM bunching,
stimulated terms) fall out of the polynomial algebra automatically.

Amplitudes are coefficients of creation-operator monomials: a term
``a (a†_m)^2 |0>`` stores amplitude ``a``.  All algebra is done on these
coefficients; the Fock normalization ``sqrt(prod n_m!)`` enters only in
:meth:`PhotonicState.fock_amplitude`, norms and inner products.
One pruning rule holds everywhere: a state never holds an amplitude with
``|a| <= PRUNE_EPS``; every :class:`PhotonicState` is built through
``_checked``, which drops them.

Detection is one pass (:func:`_detect_runs`): a state, and any retagging of
it, is postselected while it is expanded through a map, each selected product
formed once for all of them; each one's sums are checked, pruned and normalized
once, by the root of the probability they sum to, without :func:`postselect`.

Everything here is an immutable value; all operations are pure functions.
"""

from __future__ import annotations

import functools
import math
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from ._checks import Frozen

ELL_MAX = 5  # largest |OAM| quantum number tracked by the simulator

PRUNE_EPS = 1e-14  # a state drops every term with |amplitude| <= PRUNE_EPS

UNITARY_TOL = 1e-12  # a unitary map's M†M is the identity to this, per entry


class UnsupportedMode(Exception):
    """A map was applied to a state occupying a mode outside its support."""


class PathCollision(ValueError):
    """Tensor product of states sharing an occupied path."""


class NotNormalized(ValueError):
    """Operation requires unit-norm input states."""


class ModeLabel(tuple):
    """A single optical mode: path id, OAM value, distinguishability tag.

    Tag 0 is the default spectral mode; photons with different tags never
    interfere.  A mode is the immutable tuple (path, oam, tag), so hashing,
    equality and the lexicographic order that fixes the canonical occupation
    order used for term merging all run in C.
    """

    __slots__ = ()

    def __new__(cls, path: str, oam: int, tag: int = 0) -> "ModeLabel":
        if not abs(oam) <= ELL_MAX:  # NaN fails this too
            raise ValueError(f"|OAM|={abs(oam)} exceeds ELL_MAX={ELL_MAX}")
        return tuple.__new__(cls, (path, oam, tag))

    def __getnewargs__(self) -> tuple[str, int, int]:
        return tuple(self)

    path = property(itemgetter(0))
    oam = property(itemgetter(1))
    tag = property(itemgetter(2))

    def __repr__(self) -> str:
        return f"ModeLabel(path={self[0]!r}, oam={self[1]!r}, tag={self[2]!r})"


Occupation = tuple[ModeLabel, ...]


def _canonical(modes: Iterable[ModeLabel]) -> Occupation:
    return tuple(sorted(modes))


@functools.lru_cache(maxsize=4096, typed=True)  # typed: a plain tuple equal to a mode keeps its type
def _tagged(mode: ModeLabel, tags: tuple[int, ...]) -> tuple[ModeLabel, ...]:
    """``mode``, then ``mode`` at each of ``tags``; built once per process."""
    return (mode, *(tuple.__new__(ModeLabel, (mode[0], mode[1], tag)) for tag in tags))


class FockTerm(NamedTuple):
    """One creation-operator monomial with its complex amplitude."""

    amplitude: complex
    occupation: Occupation


def _occupation_factorial(occ: Occupation) -> float:
    """prod n_m! over the multiset of modes in occ."""
    if len(set(occ)) == len(occ):
        return 1.0
    out = 1.0
    run = 1
    for i in range(1, len(occ) + 1):
        if i < len(occ) and occ[i] == occ[i - 1]:
            run += 1
        else:
            out *= math.factorial(run)
            run = 1
    return out


def _checked(terms: dict[Occupation, complex]) -> dict[Occupation, complex]:
    """``terms`` without the amplitudes at or below PRUNE_EPS; a non-finite
    amplitude or nonzero terms of mixed photon numbers are a ValueError."""
    total = sum(terms.values(), 0j)  # a finite sum proves every term finite
    if not math.isfinite(total.real + total.imag):
        for occ, a in terms.items():
            if not (math.isfinite(a.real) and math.isfinite(a.imag)):
                raise ValueError(f"non-finite amplitude {a} on occupation {occ}")
    sizes = set(map(len, terms))
    if len(sizes) > 1:  # only nonzero terms count: an exact zero of another photon number passes
        sizes = {len(occ) for occ, a in terms.items() if a != 0}
        if len(sizes) > 1:
            raise ValueError(f"inhomogeneous photon numbers: {sorted(sizes)}")
    return {occ: a for occ, a in terms.items() if abs(a) > PRUNE_EPS}


def _norm(terms: dict[Occupation, complex]) -> float:
    """Physical (Fock) norm of a term dict."""
    return math.sqrt(sum(abs(amp) ** 2 * _occupation_factorial(occ) for occ, amp in terms.items()))


class PhotonicState:
    """A finite superposition of same-photon-number Fock terms, built from an
    occupation -> amplitude mapping.  Equal occupations are summed; a non-finite
    amplitude or nonzero terms of mixed photon numbers are a ValueError; terms
    with |amplitude| <= PRUNE_EPS are dropped."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Occupation, complex]) -> None:
        merged: dict[Occupation, complex] = {}
        for occ, amp in terms.items():
            occ = _canonical(occ)
            merged[occ] = merged.get(occ, 0.0) + complex(amp)
        self._terms = _checked(merged)

    @classmethod
    def _trusted(cls, terms: dict[Occupation, complex]) -> "PhotonicState":
        """A state from complex amplitudes on occupations the caller has proved
        canonical and distinct: the constructor's checks and pruning without
        its sort and merge."""
        state = object.__new__(cls)
        state._terms = _checked(terms)
        return state

    @classmethod
    def vacuum(cls) -> "PhotonicState":
        return cls({(): 1.0})

    @classmethod
    def single(cls, mode: ModeLabel) -> "PhotonicState":
        return cls({(mode,): 1.0})

    @property
    def terms(self) -> tuple[FockTerm, ...]:
        return tuple(
            FockTerm(self._terms[occ], occ) for occ in sorted(self._terms)
        )

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    @property
    def photon_number(self) -> int:
        if not self._terms:
            return 0
        return len(next(iter(self._terms)))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def paths(self) -> set[str]:
        return {m.path for occ in self._terms for m in occ}

    def modes(self) -> set[ModeLabel]:
        return {m for occ in self._terms for m in occ}

    def amplitude(self, occupation: Iterable[ModeLabel]) -> complex:
        """Monomial coefficient of an occupation (0 if absent)."""
        return self._terms.get(_canonical(occupation), 0.0)

    def fock_amplitude(self, occupation: Iterable[ModeLabel]) -> complex:
        """Coefficient of the normalized Fock ket: amplitude * sqrt(prod n_m!)."""
        occ = _canonical(occupation)
        return self._terms.get(occ, 0.0) * math.sqrt(_occupation_factorial(occ))

    def norm(self) -> float:
        """Physical (Fock) norm of the state."""
        return _norm(self._terms)

    def normalize(self) -> "PhotonicState":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero state")
        return self.scale(1.0 / n)

    def scale(self, factor: complex) -> "PhotonicState":
        return PhotonicState._trusted({occ: amp * factor for occ, amp in self._terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhotonicState):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        parts = []
        for occ in sorted(self._terms)[:6]:
            modes = ",".join(f"{m.path}:{m.oam}" + (f"#{m.tag}" if m.tag else "") for m in occ)
            parts.append(f"({self._terms[occ]:.4g})|{modes}>")
        more = "" if len(self._terms) <= 6 else f" ... ({len(self._terms)} terms)"
        return "PhotonicState " + " + ".join(parts) + more


class LinearMap(Frozen):
    """A linear-optical element as a mode -> superposition-of-modes map.

    ``entries`` maps every supported input mode to its image, a tuple of
    (output mode, coefficient) pairs; it is stored as a read-only mapping, so
    one map can be shared, as the element factories' memoised maps are.
    ``unitary`` asserts column orthonormality of the coefficient matrix
    restricted to the support.  Every map declared unitary is checked once,
    at construction, in time linear in its nonzeros: build a map once, apply
    it often.  ``paths``, set at construction, are the paths the map acts on:
    those of its support and image.  The map is the identity on every other
    path, so no element map is extended over the paths it does not touch.
    """

    __slots__ = _fields = ("entries", "unitary", "paths")

    def __init__(
        self, entries: Mapping[ModeLabel, tuple[tuple[ModeLabel, complex], ...]], unitary: bool = False
    ) -> None:
        object.__setattr__(self, "entries", MappingProxyType(dict(entries)))
        object.__setattr__(self, "unitary", unitary)
        images = (dst for image in self.entries.values() for dst, _ in image)
        object.__setattr__(self, "paths", frozenset(m[0] for m in (*self.entries, *images)))
        if unitary and not self.check_unitary():
            raise ValueError("map declared unitary but fails column orthonormality")

    def image(self, mode: ModeLabel) -> tuple[tuple[ModeLabel, complex], ...]:
        try:
            return self.entries[mode]
        except KeyError:
            if mode[0] in self.paths:
                raise UnsupportedMode(f"mode {mode} not in map support") from None
            return ((mode, 1.0),)

    def check_unitary(self) -> bool:
        """Column orthonormality: M†M equals the identity to ``UNITARY_TOL``.

        Each output mode adds conj(a)·b to M†M for every pair of columns that
        hits it, so only nonzero Gram entries are formed: cost linear in nnz.
        """
        rows: dict[ModeLabel, list[tuple[int, complex]]] = {}
        for i, image in enumerate(self.entries.values()):
            for dst, coeff in image:
                rows.setdefault(dst, []).append((i, coeff))
        gram = {(i, i): -1.0 + 0j for i in range(len(self.entries))}  # accumulates M†M - I
        for hits in rows.values():
            for i, a in hits:
                for j, b in hits:
                    gram[i, j] = gram.get((i, j), 0.0) + a.conjugate() * b
        return all(abs(g) <= UNITARY_TOL for g in gram.values())


def extend_identity(m: LinearMap, modes: Iterable[ModeLabel]) -> LinearMap:
    """Extend a map by the identity on additional modes.

    Modes already in the support, or hit by the existing image, are skipped:
    adding identity on an image mode would destroy injectivity (and the
    unitary flag).  Such modes stay unsupported and occupying them raises
    UnsupportedMode downstream, which keeps truncation errors loud.
    Each added column is a unit vector on a mode no other column hits, so
    the unitary flag of ``m`` holds unchecked.  The extension acts on the
    paths of ``m`` and of ``modes``.
    """
    entries = dict(m.entries)
    image = {dst for img in m.entries.values() for dst, _ in img}
    for mode in modes:
        if mode not in entries and mode not in image:
            entries[mode] = ((mode, 1.0),)
    return _trusted_map(entries, m.paths.union(mode[0] for mode in entries), m.unitary)


def _trusted_map(entries: dict, paths: frozenset[str], unitary: bool) -> LinearMap:
    """A map on ``entries`` (kept, not copied) acting on ``paths``, flagged ``unitary``
    unchecked: the caller proved the flag, and that ``paths`` covers support and image."""
    m = object.__new__(LinearMap)
    object.__setattr__(m, "entries", MappingProxyType(entries))
    object.__setattr__(m, "unitary", unitary)
    object.__setattr__(m, "paths", paths)
    return m


def _push(
    image: tuple[tuple[ModeLabel, complex], ...], m: LinearMap
) -> tuple[tuple[ModeLabel, complex], ...]:
    """A superposition of modes through ``m``, in mode order, exact zeros dropped.

    Raises UnsupportedMode if the superposition holds a mode ``m`` does not take.
    """
    if len(image) == 1 and len(step := m.image(image[0][0])) == 1:  # the sum below, without its dict
        c = 0.0 + image[0][1] * step[0][1]
        return ((step[0][0], c),) if c != 0 else ()
    acc: dict[ModeLabel, complex] = {}
    for mid, c1 in image:
        for dst, c2 in m.image(mid):
            acc[dst] = acc.get(dst, 0.0) + c1 * c2
    return tuple(sorted((dst, c) for dst, c in acc.items() if c != 0))


def fold(chain: Sequence[LinearMap], modes: Iterable[ModeLabel]) -> LinearMap:
    """One map equal to applying the maps of ``chain`` in turn, on ``modes``.

    Each mode's image is pushed through the chain from the identity, so an
    empty chain gives the identity on ``modes``; a map on none of the
    image's paths would pass it unchanged, so it is skipped.  A mode whose
    image meets a mode some later map does not take is left out of the
    support: applying the fold, which acts on every path of the chain, to a
    state occupying it raises UnsupportedMode, even where interference
    between the state's terms would have emptied that component before it
    left.  The fold is unitary-flagged when every map is, and not checked
    again: each map was checked when it was built, a product of isometries
    is one, and leaving a mode out drops a column, which keeps the others
    orthonormal.
    """
    entries = {}
    for mode in modes:
        image, occupied = ((mode, 1.0),), {mode[0]}
        try:
            for m in chain:
                if not m.paths.isdisjoint(occupied):
                    image = _push(image, m)
                    occupied = {image[0][0][0]} if len(image) == 1 else {dst[0] for dst, _ in image}
        except UnsupportedMode:
            continue
        entries[mode] = image
    # an image lies on its mode's path or on the paths of the maps it met
    paths = frozenset(mode[0] for mode in entries).union(*(m.paths for m in chain))
    return _trusted_map(entries, paths, all(m.unitary for m in chain))


def _retagged(m: LinearMap, tags: Mapping[str, int]) -> LinearMap:
    """``m`` with each entry copied to tag ``tags[path]`` of its input path,
    every image mode at that tag too.  For a fold of maps that treat every
    tag alike this is the fold of the retagged modes, bit for bit.  A copy
    lies on other output modes than its original: the unitary flag holds."""
    entries = dict(m.entries)
    for mode, image in m.entries.items():
        tag = (tags[mode[0]],)
        entries[_tagged(mode, tag)[1]] = tuple((_tagged(dst, tag)[1], c) for dst, c in image)
    return _trusted_map(entries, m.paths, m.unitary)


def apply(m: LinearMap, state: PhotonicState) -> PhotonicState:
    """Substitute every creation operator through the map and expand.

    Identity is assumed on the paths the map does not act on, never on its
    own paths: a state occupying a mode of the map's paths outside its
    support raises UnsupportedMode.  ``ghz3d.apply`` resolves lazily to this
    module's ``apply`` on each access.
    """
    out: dict[Occupation, complex] = {}
    for occ, amp in state._terms.items():
        partial: list[tuple[list[ModeLabel], complex]] = [([], amp)]
        for mode in occ:
            image = m.image(mode)
            partial = [
                (modes + [dst], a * c)
                for modes, a in partial
                for dst, c in image
            ]
        for modes, a in partial:
            key = _canonical(modes)
            out[key] = out.get(key, 0.0) + a
    return PhotonicState._trusted(out)


def tensor(s1: PhotonicState, s2: PhotonicState) -> PhotonicState:
    """Product state of two states on disjoint path sets."""
    shared = s1.paths() & s2.paths()
    if shared:
        raise PathCollision(f"paths occupied on both factors: {sorted(shared)}")
    out: dict[Occupation, complex] = {}
    for occ1, a1 in s1._terms.items():
        for occ2, a2 in s2._terms.items():
            out[_canonical(occ1 + occ2)] = a1 * a2  # distinct: the paths are disjoint
    return PhotonicState._trusted(out)


def postselect(
    state: PhotonicState, detector_paths: Iterable[str]
) -> tuple[PhotonicState, float]:
    """Condition on exactly one photon per detector path and none elsewhere.

    Returns the renormalized conditional state and the pre-normalization
    probability (squared Fock norm of the selected component), normalizing
    once.  Probability 0 with an empty state signals an empty result; it is
    not an error.  The pipeline does not call it: :func:`_detect` selects
    and normalizes in its own pass, to the same bits.
    """
    wanted = set(detector_paths)
    kept: dict[Occupation, complex] = {}
    for occ, amp in state._terms.items():
        paths = [m.path for m in occ]
        if set(paths) != wanted or len(paths) != len(wanted):
            continue
        kept[occ] = amp
    if not kept:
        return PhotonicState({}), 0.0
    # selected terms are singly occupied: the Fock factor is 1, so sqrt(prob) is norm() bit for bit
    prob = sum(abs(a) ** 2 for a in kept.values())
    return PhotonicState._trusted(kept).scale(1.0 / math.sqrt(prob)), prob


def _detect(m: LinearMap, state: PhotonicState, detector_paths: Iterable[str]) -> tuple[PhotonicState, float]:
    """``postselect(apply(m, state), detector_paths)``, bit for bit, in one
    pass: :func:`_detect_runs` with no retag."""
    return _detect_runs(m, state, detector_paths, ())[0]


def _detect_runs(
    m: LinearMap, state: PhotonicState, detector_paths: Iterable[str], retags: Sequence[Mapping[str, int]]
) -> list[tuple[PhotonicState, float]]:
    """:func:`_detect` of ``state``, then of ``state`` with each photon at the
    tag each retag maps its input path to, from one expansion.

    A partial product is dropped once a photon lands off the detector paths or
    on an occupied one; the others are summed in ``apply``'s order under every
    run's key, then checked, pruned and scaled with ``scale``'s arithmetic.
    Every mode is looked up, so UnsupportedMode is raised where ``apply`` does;
    a non-finite amplitude on a dropped term goes unseen.  A retagged run gets
    its own detection's bits when ``m`` treats every tag alike, as factory maps
    and their folds do."""
    wanted = frozenset(detector_paths)
    outs: list[dict[Occupation, complex]] = [{} for _ in range(len(retags) + 1)]
    images: dict[ModeLabel, list] = {}  # each mode's image on the detector paths, in every run
    for occ, amp in state._terms.items():
        partial = [((), (), amp)]  # (each photon's mode in every run, their paths, amplitude)
        for mode in occ:
            image = images.get(mode)
            if image is None:
                tags = tuple([retag[mode[0]] for retag in retags])
                image = images[mode] = [(_tagged(dst, tags), dst[0], c) for dst, c in m.image(mode) if dst[0] in wanted]
            partial = [
                (modes + (dsts,), paths + (p,), a * c)
                for modes, paths, a in partial for dsts, p, c in image if p not in paths
            ]
        for modes, _, a in partial:
            # photons on distinct paths: sorting by the first run's modes sorts every run's
            for out, key in zip(outs, zip(*sorted(modes)) if modes else [()] * len(outs)):
                out[key] = out.get(key, 0.0) + a
    runs = []
    for out in outs:
        # a kept term's photons sit on distinct detector paths: it is selected when it fills them all
        kept = {occ: a for occ, a in _checked(out).items() if len(occ) == len(wanted)} if out else {}
        prob = sum((abs(a) ** 2 for a in kept.values()), 0.0)
        factor = 1.0 / math.sqrt(prob) if kept else 0.0
        detected = object.__new__(PhotonicState)  # finite and homogeneous: kept passed _checked
        detected._terms = {occ: b for occ, a in kept.items() if abs(b := a * factor) > PRUNE_EPS}
        runs.append((detected, prob))
    return runs


def inner(s1: PhotonicState, s2: PhotonicState) -> complex:
    """Physical inner product <s1|s2> respecting Fock normalization."""
    total = 0.0
    for occ, a2 in s2._terms.items():
        a1 = s1._terms.get(occ)
        if a1 is None:
            continue
        total += a1.conjugate() * a2 * _occupation_factorial(occ)
    return total


def fidelity_pure(s1: PhotonicState, s2: PhotonicState) -> float:
    """|<s1|s2>|^2 for normalized pure states of equal photon number (norms within 1e-9 of 1)."""
    for s in (s1, s2):
        if abs(s.norm() - 1.0) > 1e-9:
            raise NotNormalized(f"state norm {s.norm()} deviates from 1 by more than 1e-09")
    if s1.photon_number != s2.photon_number:
        raise ValueError("fidelity requires equal photon numbers")
    return min(abs(inner(s1, s2)) ** 2, 1.0)
