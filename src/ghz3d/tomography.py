"""Tri-qutrit density-matrix tools: the (3,3,3) entanglement-dimension
witness, its projective measurement decomposition, simulated counting and
Monte-Carlo error bars.

Party order is (B, C, D); a product ket |i j k> maps to index 9i + 3j + k
of a 27-component vector.

Every off-diagonal element needed by the witness is reconstructed from 64
projective settings: each party is measured in one of the four two-level
superposition projectors

    P+  = |a+b><a+b|/2,  P-  = |a-b><a-b|/2,
    P+i = |a+ib><a+ib|/2, P-i = |a-ib><a-ib|/2,

on its (a, b) element pair, and the signed/weighted sum of the 4^3 joint
expectations equals the complex matrix element exactly.  27 computational
projections supply the diagonal, 27 + 3 * 64 = 219 settings in total.

The fidelity estimate is therefore a ratio of two linear functionals of
the count vector n: F = (g.n) / (d.n), where d sums the computational
counts and g weights the ``ttt`` counts and the off-diagonal settings, so
each Poisson resample costs one draw and two dot products.  Resample s
draws from one Philox bit generator per call whose whole state is reset
to key (seed, s) and counter zero before the draw; that yields the same
stream as a freshly built ``Philox(key=(seed, s))``.

The input-free constants are built once per process and shared read-only:
the witness plan with the 64 settings of each witness element, each
setting's descriptors and operator vector (a read-only array), and the g
and d of the last few (sorted setting keys, weights) pairs.
"""

from __future__ import annotations

import functools
import math
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from ._checks import Frozen, NoiseParams, _check_weights, require_finite  # noqa: F401 - NoiseParams is re-exported

DIM = 3
N_PARTIES = 3
HILBERT = DIM**N_PARTIES

#: a Schmidt coefficient above this counts toward the Schmidt rank
SCHMIDT_RANK_EPS = 1e-7

#: descriptor label for an auxiliary never-populated mode, used when an
#: element pair coincides (a projector on (k, q) then measures |k><k|/2)
AUX_LABEL = "q"


class NotDensityMatrix(ValueError):
    """Matrix fails hermiticity, trace or positivity checks."""


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (HILBERT, HILBERT):
        raise NotDensityMatrix(f"expected {HILBERT}x{HILBERT}, got {rho.shape}")
    if not np.allclose(rho, rho.conj().T, atol=1e-10):
        raise NotDensityMatrix("not Hermitian within 1e-10")
    if abs(np.trace(rho).real - 1.0) > 1e-10 or abs(np.trace(rho).imag) > 1e-10:
        raise NotDensityMatrix("trace differs from 1 by more than 1e-10")
    smallest = float(np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2)))
    if smallest < -1e-8:
        raise NotDensityMatrix(f"negative eigenvalue {smallest}")
    return rho


def ideal_ghz(weights: Sequence[float] = (1.0, 1.0, 1.0)) -> tuple[np.ndarray, np.ndarray]:
    """Weighted GHZ state: normalized vector and its density matrix.  Raises
    ValueError unless ``weights`` are three finite weights whose sum of squared
    moduli is a normal float."""
    _check_weights("GHZ weights", weights)
    w = np.asarray(weights, dtype=complex)
    vec = np.zeros(HILBERT, dtype=complex)
    for t in range(3):
        vec[t * 9 + t * 3 + t] = w[t]
    vec = vec / np.linalg.norm(vec)
    return vec, np.outer(vec, vec.conj())


def fidelity(rho: np.ndarray, psi: np.ndarray) -> float:
    """Tr(rho |psi><psi|) for a pure target."""
    rho = np.asarray(rho, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    return float(np.real(psi.conj() @ rho @ psi))


def schmidt_coeffs(psi: np.ndarray, party: int) -> np.ndarray:
    """Descending Schmidt coefficients of one party against the other two."""
    t = np.asarray(psi, dtype=complex).reshape(3, 3, 3)
    mat = np.moveaxis(t, party, 0).reshape(3, 9)
    return np.linalg.svd(mat, compute_uv=False)


def srv(psi: np.ndarray) -> tuple[int, int, int]:
    """Schmidt rank vector across the three one-vs-rest bipartitions: per party,
    the number of Schmidt coefficients above ``SCHMIDT_RANK_EPS``."""
    return tuple(int(np.sum(schmidt_coeffs(psi, party) > SCHMIDT_RANK_EPS)) for party in range(3))


def witness_bound(psi: np.ndarray) -> float:
    """Largest fidelity any lower-dimensional entanglement structure reaches.

    Per bipartition the bound is the sum of all but the smallest squared
    Schmidt coefficient; the scalar witness threshold is the maximum over
    the three bipartitions (conservative).
    """
    bounds = []
    for party in range(3):
        lam2 = schmidt_coeffs(psi, party) ** 2
        bounds.append(float(np.sum(lam2) - np.min(lam2)))
    return max(bounds)


# --- projective decomposition of matrix elements ---------------------------

_KINDS = ("+", "-", "+i", "-i")

#: per-kind phase of the b component in (|a> + phase |b>)/sqrt(2)
_KIND_PHASE = {"+": 1.0 + 0j, "-": -1.0 + 0j, "+i": 1j, "-i": -1j}

#: weights w s.t. |a><b| = sum_kind w_kind P_kind   (derivation: expand the
#: four rank-1 projectors and solve; the diagonal parts cancel pairwise)
_LOWERING_WEIGHTS = {"+": 0.5, "-": -0.5, "+i": -0.5j, "-i": 0.5j}


class ProjKet(NamedTuple):
    """Single-party measurement ket: |a> or (|a> + phase |b>)/sqrt(2)."""

    a: int
    b: int | None = None
    kind: str | None = None  # one of _KINDS when b is not None

    def descriptor(self) -> str:
        if self.b is None:
            return str(self.a)
        suffix = "i" if self.kind in ("+i", "-i") else ""
        sign = "+" if self.kind in ("+", "+i") else "-"
        b_label = AUX_LABEL if self.b == AUX_IDX else str(self.b)
        return f"{self.a}{sign}{b_label}{suffix}"

    def vector(self) -> np.ndarray:
        v = np.zeros(DIM, dtype=complex)
        if self.b is None:
            v[self.a] = 1.0
            return v
        v[self.a] = 1.0
        if self.b != AUX_IDX:
            v[self.b] = _KIND_PHASE[self.kind]
        # aux component lives outside the tracked space and is dropped
        return v / math.sqrt(2.0)


AUX_IDX = -1  # sentinel index for the auxiliary mode


class PlanSetting(Frozen):
    """One joint projective setting with its reconstruction weight.

    Its descriptors and its read-only operator vector are computed on first
    use and kept, so a setting shared through the memoised plan pays for
    them once per process.
    """

    _fields = ("kets", "weight")
    __slots__ = (*_fields, "__dict__")  # the __dict__ holds the cached properties

    def __init__(self, kets: tuple[ProjKet, ProjKet, ProjKet], weight: complex = 0.0) -> None:
        object.__setattr__(self, "kets", kets)
        object.__setattr__(self, "weight", weight)  # contribution to the element estimate

    def descriptors(self) -> tuple[str, str, str]:
        return self._descriptors

    def operator_vector(self) -> np.ndarray:
        return self._vector

    def expectation(self, rho: np.ndarray) -> float:
        v = self._vector
        return float(np.real(v.conj() @ rho @ v))

    @functools.cached_property
    def _descriptors(self) -> tuple[str, str, str]:
        return tuple(k.descriptor() for k in self.kets)  # type: ignore[return-value]

    @functools.cached_property
    def _vector(self) -> np.ndarray:
        v = self.kets[0].vector()
        for k in self.kets[1:]:
            v = np.multiply.outer(v, k.vector()).ravel()  # kron of 1-D vectors
        v.flags.writeable = False
        return v


def offdiag_projectors(
    element: tuple[Sequence[int], Sequence[int]]
) -> tuple[PlanSetting, ...]:
    """The 64 projective settings reconstructing one matrix element.

    ``element`` is ((i, j, k), (l, m, n)) in logical levels; the estimate is
    <ijk| rho |lmn> = sum over settings of weight * Tr(rho P).  Slots with
    i_slot == l_slot use the auxiliary pair (value, q) whose four projectors
    each act as half the computational projector on the tracked space.
    """
    bra, ket = (tuple(int(x) for x in side) for side in element)
    if bra == ket:
        raise ValueError("use a diagonal setting for diagonal elements")
    per_slot: list[list[tuple[ProjKet, complex]]] = []
    for a, b in zip(bra, ket):
        slot: list[tuple[ProjKet, complex]] = []
        if a == b:
            # |a><a| = (1/2) * sum of the four (a, q) projectors
            for kind in _KINDS:
                slot.append((ProjKet(a, AUX_IDX, kind), 0.5))
        else:
            # |b><a| on this slot: E_dagger with E = |a><b|
            for kind in _KINDS:
                slot.append((ProjKet(a, b, kind), _LOWERING_WEIGHTS[kind]))
        per_slot.append(slot)
    settings = []
    for k0, w0 in per_slot[0]:
        for k1, w1 in per_slot[1]:
            for k2, w2 in per_slot[2]:
                settings.append(PlanSetting(kets=(k0, k1, k2), weight=w0 * w1 * w2))
    assert len(settings) == 64
    return tuple(settings)


def reconstruct_element(
    rho: np.ndarray, element: tuple[Sequence[int], Sequence[int]]
) -> complex:
    """Evaluate the 64 projector expectations and combine them.

    Equals the direct matrix entry exactly (an algebraic identity).
    """
    rho = np.asarray(rho, dtype=complex)
    total = 0j
    for setting in offdiag_projectors(element):
        total += setting.weight * setting.expectation(rho)
    return total


def element_index(levels: Sequence[int]) -> int:
    i, j, k = levels
    return 9 * i + 3 * j + k


def noise_model(params: NoiseParams) -> np.ndarray:
    """Density matrix with white noise and reduced coherence.

    rho = p * (D + c * Off) + (1 - p)/27 * I, where D and Off are the
    diagonal and off-diagonal parts of the weighted GHZ projector.  The
    construction is a convex mixture of positive operators for p, c in
    [0, 1], hence positive semidefinite.
    """
    _, ghz = ideal_ghz(params.weights)
    diag = np.diag(np.diag(ghz))
    off = ghz - diag
    rho = params.p * (diag + params.c * off) + (1.0 - params.p) / HILBERT * np.eye(HILBERT)
    return check_density_matrix(rho)


# --- measurement plan, simulated counts, fidelity estimation ---------------

#: unique off-diagonal elements entering the GHZ fidelity
WITNESS_ELEMENTS = (
    ((0, 0, 0), (1, 1, 1)),
    ((0, 0, 0), (2, 2, 2)),
    ((1, 1, 1), (2, 2, 2)),
)


@functools.cache
def build_witness_plan() -> tuple[PlanSetting, ...]:
    """All 219 settings: 27 computational projections plus 3 x 64, built once
    per process."""
    plan: list[PlanSetting] = []
    for i in range(3):
        for j in range(3):
            for k in range(3):
                plan.append(PlanSetting(kets=(ProjKet(i), ProjKet(j), ProjKet(k))))
    for element in WITNESS_ELEMENTS:
        plan.extend(offdiag_projectors(element))
    return tuple(plan)


class CountRecord(Frozen):
    """Simulated or measured counts for one projective setting.  Every
    setting is measured for the same duration; the estimator assumes it."""

    __slots__ = _fields = ("descriptors", "counts")

    def __init__(self, descriptors: tuple[str, str, str], counts: float) -> None:
        require_finite("count record", counts=counts)
        if counts < 0:
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "descriptors", descriptors)
        object.__setattr__(self, "counts", counts)


def _is_int(value: object) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_seed(seed: int) -> None:
    if not (_is_int(seed) and 0 <= seed < 2**64):
        raise ValueError(f"seed must be an int in [0, 2**64), got {seed!r}")


def simulate_counts(
    rho: np.ndarray,
    plan: Sequence[PlanSetting],
    total_events: float,
    seed: int = 0,
    sample: bool = True,
) -> tuple[CountRecord, ...]:
    """Expected or Poisson-sampled counts for every setting of the plan.

    Every setting gets equal measurement duration, so expected counts are
    proportional to Tr(rho P); the proportionality constant is fixed by the
    requested total expected number of events.  Raises ValueError unless
    ``seed`` is an int in [0, 2**64).
    """
    _check_seed(seed)
    rho = np.asarray(rho, dtype=complex)
    probs = np.array([s.expectation(rho) for s in plan], dtype=float)
    probs = np.clip(probs, 0.0, None)
    lam = total_events * probs / probs.sum()
    if sample:
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        counts = rng.poisson(lam).astype(float)
    else:
        counts = lam
    return tuple(
        CountRecord(descriptors=s.descriptors(), counts=float(c)) for s, c in zip(plan, counts)
    )


@functools.lru_cache(maxsize=8)
def _witness_functionals(
    keys: tuple[tuple[str, str, str], ...], weights: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """The read-only vectors g and d of :func:`estimate_fidelity` over ``keys``,
    kept for the last few (keys, weights).  The off-diagonal settings are the
    witness plan's, in its order after the 27 computational ones.

    Raises KeyError when a setting of the witness plan is missing from ``keys``.
    """
    w = np.asarray(weights, dtype=float)
    w = w / np.linalg.norm(w)
    index = {key: i for i, key in enumerate(keys)}
    g = np.zeros(len(keys))
    d = np.zeros(len(keys))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                d[index[(str(i), str(j), str(k))]] = 1.0
    for t in range(3):
        g[index[(str(t),) * 3]] = w[t] ** 2
    offdiag = build_witness_plan()[27:]
    for e, (bra, ket) in enumerate(WITNESS_ELEMENTS):
        scale = 2.0 * w[bra[0]] * w[ket[0]]
        for setting in offdiag[64 * e : 64 * (e + 1)]:
            g[index[setting.descriptors()]] += scale * setting.weight.real
    g.flags.writeable = d.flags.writeable = False
    return g, d


def estimate_fidelity(
    records: Sequence[CountRecord],
    weights: Sequence[float] = (1.0, 1.0, 1.0),
    n_resamples: int = 1000,
    seed: int = 1,
    accidentals: Mapping[tuple[str, str, str], float] | None = None,
) -> tuple[float, float]:
    """GHZ fidelity and its Monte-Carlo error from count records.

    Diagonal elements come from the 27 computational projections normalized
    by their total; off-diagonals from the 64-setting reconstruction.  Both
    are linear in the counts, so with n the counts over the sorted setting
    descriptors the estimate is F = (g.n) / (d.n) for two fixed real
    vectors, kept for the last few (descriptors, weights): d is 1 on the
    computational settings, and g holds w_t^2 on the ``ttt`` settings plus
    2 w_t1 w_t2 Re(weight) on each off-diagonal setting.  The uncertainty
    is the standard deviation of F over Poisson resamples of the observed
    counts (counter-keyed per-sample generators, so any execution order
    gives identical results).  Optional
    per-setting accidental counts are subtracted first, floored at zero;
    records with equal descriptors are summed.  Raises ValueError when the
    diagonal counts (of the data or of a resample) sum to zero, when
    ``seed`` is not an int in [0, 2**64), when ``n_resamples`` is not a
    non-negative int, or when ``weights`` are not three finite weights whose
    sum of squares is a normal float.
    """
    _check_seed(seed)
    if not (_is_int(n_resamples) and n_resamples >= 0):
        raise ValueError(f"n_resamples must be a non-negative int, got {n_resamples!r}")
    _check_weights("GHZ weights", weights)
    observed: dict[tuple[str, str, str], float] = {}
    for rec in records:
        value = rec.counts
        if accidentals is not None:
            value = max(value - accidentals.get(rec.descriptors, 0.0), 0.0)
        observed[rec.descriptors] = observed.get(rec.descriptors, 0.0) + value
    keys = sorted(observed)
    g, d = _witness_functionals(tuple(keys), tuple(map(float, weights)))

    def estimate(n: np.ndarray) -> float:
        diag_total = d @ n
        if diag_total <= 0:
            raise ValueError("no diagonal counts; cannot normalize")
        return float((g @ n) / diag_total)

    lam = np.array([observed[k] for k in keys], dtype=float)
    base = estimate(lam)
    if n_resamples == 0:
        return base, 0.0
    bits = np.random.Philox(key=0)  # re-keyed before every draw
    rng = np.random.Generator(bits)
    key = [int(seed), 0]
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,  # buffer spent: the next draw runs the counter
        "has_uint32": 0,
        "uinteger": 0,
    }
    estimates = np.empty(n_resamples, dtype=float)
    for s in range(n_resamples):
        key[1] = s
        bits.state = fresh
        estimates[s] = estimate(rng.poisson(lam).astype(float))
    return base, float(np.std(estimates))
