"""Factories for the linear-optical elements of the multi-port.

Every factory returns a :class:`~ghz3d.states.LinearMap` on the paths the
caller chooses and on every tag either run gives a photon, ``RUN_TAGS``: it
passes other paths unchanged and never implies identity on its own, where
support and image cover the OAM window ``ELLS`` (|l| <= ELL_MAX) but the
reflection + SPP's l = -5, -4.

Conventions declared once, here:

* beam splitter: symmetric 50/50, a† -> (c† + i d†)/sqrt(2),
  b† -> (i c† + d†)/sqrt(2), identical for every (OAM, tag);
* mirror: l -> -l with phase +1;
* reflection + spiral phase plate: l -> -l + 2 with phase +1;
* parity sorter: even stays / odd swaps by default, phases +1; the routing
  and swap phase are constructor parameters since four conventions are
  physically sensible.

Every factory map treats every tag alike: the image of (p, l, t) is that of
(p, l, 0) with each tag set to t, in the same order, and the support is the
same at every tag.  So a fold of them is folded at tag 0 only, and one
expansion serves both runs.  The mirror, SPP, beam splitter and parity sorter
maps depend only on their paths and sorter convention, so each is built and
checked once per process and shared from then on.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from bisect import bisect_left
from operator import itemgetter
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from ._checks import Frozen, require_finite
from .states import (
    ELL_MAX,
    LinearMap,
    ModeLabel,
    Occupation,
    PRUNE_EPS,
    PhotonicState,
    _checked,
    _norm,
)

ELLS = tuple(range(-ELL_MAX, ELL_MAX + 1))  # the tracked OAM window

#: per-source tags of the two runs: indistinguishable and distinguishable photons
EQUAL_TAGS = (0, 0)
DISTINCT_TAGS = (1, 2)
#: every tag either run gives a photon; each element map covers them all
RUN_TAGS = tuple(sorted({*EQUAL_TAGS, *DISTINCT_TAGS}))


class NotUnitary(ValueError):
    """Matrix handed to local_unitary is not unitary."""


@functools.lru_cache(maxsize=64)
def mirror(path: str) -> LinearMap:
    """Reflection: flips the OAM sign on one path.  Involution."""
    entries = {}
    for ell in ELLS:
        for t in RUN_TAGS:
            entries[ModeLabel(path, ell, t)] = ((ModeLabel(path, -ell, t), 1.0),)
    return LinearMap(entries, unitary=True)


@functools.lru_cache(maxsize=64)
def spp_reflect(path: str) -> LinearMap:
    """Reflection combined with a charge-2 spiral phase plate: l -> -l + 2.

    Supported on |l| <= ELL_MAX - 2 so the image stays inside the tracked
    OAM window; an involution on its support.
    """
    entries = {}
    for ell in range(-(ELL_MAX - 2), ELL_MAX - 2 + 1):
        for t in RUN_TAGS:
            entries[ModeLabel(path, ell, t)] = ((ModeLabel(path, -ell + 2, t), 1.0),)
    return LinearMap(entries, unitary=True)


@functools.lru_cache(maxsize=64)
def beam_splitter(p1: str, p2: str) -> LinearMap:
    """Symmetric 50/50 beam splitter combining two paths, per (OAM, tag)."""
    if p1 == p2:
        raise ValueError("beam splitter needs two distinct paths")
    s = 1.0 / math.sqrt(2.0)
    entries = {}
    for ell in ELLS:
        for t in RUN_TAGS:
            m1 = ModeLabel(p1, ell, t)
            m2 = ModeLabel(p2, ell, t)
            entries[m1] = ((m1, s), (m2, 1j * s))
            entries[m2] = ((m1, 1j * s), (m2, s))
    return LinearMap(entries, unitary=True)


class SorterConvention(Frozen):
    """Routing convention of the interferometric OAM parity sorter."""

    __slots__ = _fields = ("odd_swaps", "swap_phase")

    def __init__(self, odd_swaps: bool = True, swap_phase: complex = 1.0) -> None:
        if not isinstance(odd_swaps, bool):
            raise ValueError(f"sorter odd_swaps must be a bool: {odd_swaps!r}")
        require_finite("sorter convention", swap_phase=swap_phase)
        if abs(abs(swap_phase) - 1.0) > 1e-12:
            raise ValueError(f"sorter swap_phase must be unimodular: {swap_phase}")
        object.__setattr__(self, "odd_swaps", odd_swaps)  # False: even parity swaps paths instead
        object.__setattr__(self, "swap_phase", swap_phase)


@functools.lru_cache(maxsize=64)
def parity_sorter(
    p1: str,
    p2: str,
    convention: SorterConvention = SorterConvention(),
) -> LinearMap:
    """Interferometric sorter routing photons by OAM parity.

    OAM values are preserved; only the path changes.  With the default
    convention even l stays in its input path and odd l crosses.
    """
    if p1 == p2:
        raise ValueError("parity sorter needs two distinct paths")
    entries = {}
    for ell in ELLS:
        crosses = (ell % 2 == 1) == convention.odd_swaps
        for t in RUN_TAGS:
            m1 = ModeLabel(p1, ell, t)
            m2 = ModeLabel(p2, ell, t)
            if crosses:
                entries[m1] = ((ModeLabel(p2, ell, t), convention.swap_phase),)
                entries[m2] = ((ModeLabel(p1, ell, t), convention.swap_phase),)
            else:
                entries[m1] = ((m1, 1.0),)
                entries[m2] = ((m2, 1.0),)
    return LinearMap(entries, unitary=True)


def local_unitary(path: str, matrix: Sequence[Sequence[complex]], basis: Sequence[int]) -> LinearMap:
    """Unitary acting on a 3-level OAM span of one path, identity elsewhere.

    ``matrix[j][k]`` (nested lists or an ndarray) is the amplitude for
    basis[k] -> basis[j]; u†u must be the identity to 1e-12 per entry, the
    check :class:`~ghz3d.states.LinearMap` runs on every map declared unitary.
    """
    try:
        u = [[complex(x) for x in row] for row in matrix]
    except TypeError:  # a flat matrix, or entries that are not numbers
        u = []
    if not u or len(u) != len(basis) or any(len(row) != len(basis) for row in u):
        raise ValueError("matrix shape must match basis length")
    entries = {}
    basis = list(basis)
    for t in RUN_TAGS:
        for k, ell in enumerate(basis):
            image = tuple(
                (ModeLabel(path, basis[j], t), u[j][k])
                for j in range(len(basis))
                if u[j][k] != 0
            )
            entries[ModeLabel(path, ell, t)] = image
        for ell in ELLS:
            m = ModeLabel(path, ell, t)
            if m not in entries:
                entries[m] = ((m, 1.0),)
    try:
        return LinearMap(entries, unitary=True)
    except ValueError:
        raise NotUnitary("matrix fails unitarity check") from None


def relabel(path: str, mapping: Mapping[int, tuple[int, complex]]) -> LinearMap:
    """Phased permutation of OAM values on one path; identity on window values neither moved nor hit."""
    images = [v for v, _ in mapping.values()]
    if len(set(images)) != len(images):
        raise ValueError("relabeling must be injective")
    entries = {}
    for t in RUN_TAGS:
        for old, (new, phase) in mapping.items():
            entries[ModeLabel(path, old, t)] = ((ModeLabel(path, new, t), phase),)
        for ell in sorted(set(ELLS) - set(mapping) - set(images)):
            entries[ModeLabel(path, ell, t)] = ((ModeLabel(path, ell, t), 1.0),)
    return LinearMap(entries, unitary=True)


class Projector1(Frozen):
    """Single-photon projection onto a fixed OAM superposition in one path."""

    __slots__ = _fields = ("path", "ket")

    def __init__(self, path: str, ket: tuple[tuple[int, complex], ...]) -> None:
        norm = math.hypot(*(abs(c) for _, c in ket))  # scaled: no overflow
        if not abs(norm - 1.0) <= 1e-12:  # NaN fails this too
            raise ValueError(f"projector ket norm {norm} != 1")
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "ket", ket)

    @classmethod
    def of(cls, path: str, components: Mapping[int, complex]) -> "Projector1":
        """The projector onto ``components`` normalized; a zero, NaN or overflowing ket is a ValueError."""
        try:
            norm = math.sqrt(sum(abs(c) ** 2 for c in components.values()))
        except OverflowError:
            raise ValueError(f"projector ket on path {path} overflows: {dict(components)}") from None
        if norm == 0:
            raise ValueError(f"projector ket on path {path} is zero: {dict(components)}")
        ket = tuple(sorted((ell, c / norm) for ell, c in components.items()))
        return cls(path, ket)


def project(proj: Projector1, state: PhotonicState) -> tuple[PhotonicState, float]:
    """Apply |k><k| on the projector path; the photon stays in state k.

    Terms whose projector path is not singly occupied are annihilated
    (the projector lives in the single-photon subspace of that path).
    Returns the conditional state and the projection probability, taking
    the norm once.
    """
    projected = object.__new__(PhotonicState)
    projected._terms, p = _projected(proj, state._terms)  # checked there
    return projected, p


def _projected(proj: Projector1, terms: dict[Occupation, complex]) -> tuple[dict[Occupation, complex], float]:
    """``project`` on a state's term dict: the checked projection scaled by
    the inverse of its norm with ``scale``'s arithmetic, and the squared norm."""
    projected = _checked(_projection(proj, terms))
    n = _norm(projected)  # 0 only for no terms: every amplitude exceeds PRUNE_EPS
    factor = 1.0 / n if n else 0.0
    # finite and homogeneous, as projected passed _checked: a second check only prunes
    return {occ: b for occ, a in projected.items() if abs(b := a * factor) > PRUNE_EPS}, n**2


def _projection(proj: Projector1, terms: dict[Occupation, complex]) -> dict[Occupation, complex]:
    """|k><k| on the projector path applied to a term dict, unchecked and not
    renormalized; the photon replaced is alone on its path, so keys stay sorted."""
    path = proj.path
    lo, hi = (path,), (path, math.inf)  # the modes on the path sort between these
    coeffs = dict(proj.ket)
    overlapped = []  # (occupation, amplitude, index of the path's one photon) of each term the ket overlaps
    for occupation, amplitude in terms.items():
        i = bisect_left(occupation, lo)
        if bisect_left(occupation, hi, i) == i + 1 and coeffs.get(occupation[i][1]):
            overlapped.append((occupation, amplitude, i))
    kets: dict[int, list[tuple[ModeLabel, complex]]] = {}  # per tag: each ket mode with its coefficient
    out: dict[Occupation, complex] = {}
    # in term order: the last bits of the sums below depend on it
    for occupation, amplitude, i in sorted(overlapped, key=itemgetter(0)):
        _, oam, tag = occupation[i]
        ket = kets.get(tag)
        if ket is None:
            ket = kets[tag] = [(ModeLabel(path, ell, tag), c) for ell, c in proj.ket]
        amp = amplitude * coeffs[oam].conjugate()
        for mode, c in ket:
            key = occupation[:i] + (mode,) + occupation[i + 1:]
            out[key] = out.get(key, 0.0) + amp * c
    return out


ELEMENT_KINDS = (
    "SPP_REFLECT",
    "MIRROR",
    "BEAM_SPLITTER",
    "PARITY_SORTER",
    "LOCAL_UNITARY",
    "RELABEL",
)


def _is_ndarray(value: object) -> bool:
    """Whether ``value`` is a numpy array; one exists only once numpy is loaded."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, np.ndarray)


def _numbers(name: str, value: object) -> Iterator[tuple[str, complex]]:
    """(name, number) for every number nested in a params value, e.g.
    ``("matrix[1][2]", 0.5)``; any other leaf, such as a string or a bool, is
    a ValueError, so that no param is coerced into a number."""
    if isinstance(value, Mapping):
        for key, item in value.items():
            yield from _numbers(f"{name}[{key}]", item)
    elif isinstance(value, (list, tuple)) or _is_ndarray(value):
        for i, item in enumerate(value):
            yield from _numbers(f"{name}[{i}]", item)
    elif isinstance(value, numbers.Number) and not isinstance(value, bool):
        yield name, value
    else:
        raise ValueError(f"{name} must be a number: {value!r}")


class ElementSpec(Frozen):
    """Declarative description of one optical element; ``kind``, ``paths``
    and ``params`` are the keys of an element of the CLI config's chains."""

    __slots__ = _fields = ("kind", "paths", "params")

    def __init__(self, kind: str, paths: Sequence[str], params: Mapping[str, object] = MappingProxyType({})) -> None:
        if kind not in ELEMENT_KINDS:
            raise ValueError(f"unknown element kind {kind!r}")
        if not paths:
            raise ValueError("element needs at least one path")
        if not all(isinstance(p, str) for p in paths):
            raise ValueError(f"element paths must be strings: {list(paths)}")
        if kind in ("BEAM_SPLITTER", "PARITY_SORTER") and len(paths) != 2:
            raise ValueError(f"{kind} takes exactly 2 paths")
        params = dict(params)
        # odd_swaps is the one bool param; SorterConvention checks it
        numeric = {key: value for key, value in params.items() if key != "odd_swaps"}
        require_finite(
            f"{kind} params",
            **{name: v for key, value in numeric.items() for name, v in _numbers(str(key), value)},
        )
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "paths", tuple(paths))
        object.__setattr__(self, "params", MappingProxyType(params))


def _oam(name: str, value: object) -> int:
    """An OAM value read from element params or from a JSON object key (a
    string of an integer); a non-integral one is a ValueError naming it."""
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            raise ValueError(f"OAM values must be integers: {name}={value}") from None
    if not (isinstance(value, numbers.Real) and value == int(value)):
        raise ValueError(f"OAM values must be integers: {name}={value}")
    return int(value)


def _oam_keys(name: str, mapping: Mapping[object, complex]) -> dict[int, complex]:
    """``mapping`` keyed by OAM value, each key read by :func:`_oam`; a key
    outside the tracked window |l| <= ELL_MAX, or one naming the same value
    as an earlier key (``"0"`` and ``"00"``), is a ValueError naming it."""
    out: dict[int, complex] = {}
    for key, value in mapping.items():
        ell = _oam(f"{name}[{key}]", key)
        if abs(ell) > ELL_MAX:
            raise ValueError(f"OAM values must lie in the tracked window |l| <= {ELL_MAX}: {name}[{key}]")
        if ell in out:
            raise ValueError(f"OAM values must be distinct: {name}[{key}] repeats l={ell}")
        out[ell] = value
    return out


def _sorter_params(params: Mapping[str, object]) -> tuple[object, complex]:
    """The (odd_swaps, swap_phase) of the convention a PARITY_SORTER spec's ``params`` name."""
    return params.get("odd_swaps", True), complex(params.get("swap_phase", 1.0))


def build_element(spec: ElementSpec) -> LinearMap:
    """Instantiate the LinearMap described by an ElementSpec."""
    p = spec.params
    if spec.kind == "MIRROR":
        return mirror(spec.paths[0])
    if spec.kind == "SPP_REFLECT":
        return spp_reflect(spec.paths[0])
    if spec.kind == "BEAM_SPLITTER":
        return beam_splitter(spec.paths[0], spec.paths[1])
    if spec.kind == "PARITY_SORTER":
        return parity_sorter(spec.paths[0], spec.paths[1], SorterConvention(*_sorter_params(p)))
    if spec.kind == "LOCAL_UNITARY":
        basis = tuple(_oam(f"basis[{i}]", ell) for i, ell in enumerate(p["basis"]))
        return local_unitary(spec.paths[0], p["matrix"], basis)
    if spec.kind == "RELABEL":
        mapping = {}
        for old, (new, phase) in dict(p["mapping"]).items():
            ell = _oam(f"mapping key {old!r}", old)
            if ell in mapping:
                raise ValueError(f"OAM values must be distinct: mapping key {old!r} repeats l={ell}")
            mapping[ell] = (
                _oam(f"mapping[{old}]", new),
                complex(phase) if not isinstance(phase, (list, tuple)) else complex(*phase),
            )
        return relabel(spec.paths[0], mapping)
    raise ValueError(f"unknown element kind {spec.kind!r}")
