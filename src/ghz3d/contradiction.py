"""Multi-setting three-dimensional GHZ argument.

The local observables are the unitary (non-Hermitian) qutrit operators

    X |l> = |l + 1 mod 3>,   Z |l> = omega^l |l>,   omega = e^{2 pi i / 3},
    Y = Z^{1/3} X Z^{-1/3},  W = Z^{2/3} X Z^{-2/3},

with eigenvalues {1, omega, omega^2}.  Nine three-body products share the
balanced GHZ state as an eigenstate (a concurrent set); the weighted sum

    O = XXX + w^-1 YYY + w^-2 WWW
        + w^-1 (XYW + XWY + YXW + YWX + WXY + WYX)

reaches expectation 9 on the GHZ state, while an exact enumeration of all
3^9 = 19683 local-realistic value assignments, carried out in the ring
Z[omega] with integer arithmetic only, never exceeds modulus 6.

The input-free constants are built once per process and shared read-only:
the operator set of :func:`build_operators` (its concurrent-set check runs
on that one build), the Mermin operator of each set, the product
eigenbases of :func:`measurement_protocol` and the :func:`lr_enumerate`
result.  Their arrays are read-only, so writing into one raises ValueError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .tomography import HILBERT, NoiseParams, ideal_ghz, noise_model

OMEGA = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))

SETTINGS = ("X", "Y", "W")


class NotEigenstate(RuntimeError):
    """A concurrent-set product fails to have the GHZ state as eigenstate."""


@dataclass(frozen=True)
class CyclotomicInt:
    """Exact element a + b*omega of Z[omega], omega = e^{2 pi i/3}.

    Multiplication uses omega^2 = -1 - omega; the squared modulus
    a^2 - a b + b^2 is an integer.  No floating point is involved.
    """

    a: int
    b: int

    @classmethod
    def omega_power(cls, k: int) -> "CyclotomicInt":
        return (cls(1, 0), cls(0, 1), cls(-1, -1))[k % 3]

    def __add__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        return CyclotomicInt(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        return CyclotomicInt(self.a - other.a, self.b - other.b)

    def __mul__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        a, b, c, d = self.a, self.b, other.a, other.b
        return CyclotomicInt(a * c - b * d, a * d + b * c - b * d)

    def norm_sq(self) -> int:
        return self.a * self.a - self.a * self.b + self.b * self.b

    def to_complex(self) -> complex:
        return self.a + self.b * OMEGA

    def __str__(self) -> str:
        return f"{self.a}{self.b:+d}w"


@dataclass(frozen=True)
class Assignment:
    """Local-realistic values v(X_k), v(Y_k), v(W_k) as omega exponents."""

    trits: tuple[int, ...]  # layout (X1, X2, X3, Y1, Y2, Y3, W1, W2, W3)

    def __post_init__(self) -> None:
        if len(self.trits) != 9 or any(t not in (0, 1, 2) for t in self.trits):
            raise ValueError("assignment needs nine trits in {0, 1, 2}")

    def value(self, setting: str, party: int) -> int:
        """Exponent of omega assigned to observable ``setting`` of ``party`` (1-based)."""
        return self.trits[3 * SETTINGS.index(setting) + (party - 1)]

    @classmethod
    def from_index(cls, idx: int) -> "Assignment":
        trits = []
        v = idx
        for _ in range(9):
            trits.append(v % 3)
            v //= 3
        return cls(tuple(trits))

    def mermin_sum(self) -> CyclotomicInt:
        """Exact Z[omega] value of the nine-term sum for this assignment."""
        total = CyclotomicInt(0, 0)
        for pre, i1, i2, i3 in _kernels.LR_TERMS:
            e = (pre + self.trits[i1] + self.trits[i2] + self.trits[i3]) % 3
            total = total + CyclotomicInt.omega_power(e)
        return total


@dataclass(frozen=True, eq=False)
class OperatorSet:
    """The local observables, compared and hashed by identity (their arrays
    have no single-valued equality)."""

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    z: np.ndarray

    def by_name(self, name: str) -> np.ndarray:
        return {"X": self.x, "Y": self.y, "W": self.w, "Z": self.z}[name]


def _shift() -> np.ndarray:
    x = np.zeros((3, 3), dtype=complex)
    for t in range(3):
        x[(t + 1) % 3, t] = 1.0
    return x


def _z_fractional(power_third: int) -> np.ndarray:
    """Principal branch of Z^(power_third/3): diag phases omega^{t p/3}."""
    phases = [np.exp(2j * np.pi * t * (power_third / 3.0) / 3.0) for t in range(3)]
    return np.diag(phases)


CONCURRENT_TABLE: tuple[tuple[str, int], ...] = (
    ("XXX", 0),
    ("YYY", 1),
    ("WWW", 2),
    ("XYW", 1),
    ("XWY", 1),
    ("YXW", 1),
    ("YWX", 1),
    ("WXY", 1),
    ("WYX", 1),
)  # (product, eigenvalue as omega exponent)


@functools.cache
def build_operators() -> OperatorSet:
    """X, Y, W, Z on the principal fractional-power branch, checked against the
    concurrent set (NotEigenstate if a product fails; branches 1, 2 never pass).

    Built and checked once per process; the arrays are read-only.
    """
    x = _shift()
    z = np.diag([OMEGA**t for t in range(3)])
    z13 = _z_fractional(1)
    z23 = _z_fractional(2)
    y, w = z13 @ x @ z13.conj().T, z23 @ x @ z23.conj().T
    for a in (x, y, w, z):
        a.flags.writeable = False
    ops = OperatorSet(x=x, y=y, w=w, z=z)
    concurrent_set_check(ops, ideal_ghz()[0])
    return ops


def _three_body(ops: OperatorSet, names: str) -> np.ndarray:
    m = ops.by_name(names[0])
    for ch in names[1:]:
        m = np.kron(m, ops.by_name(ch))
    return m


def concurrent_set_check(ops: OperatorSet, ghz: np.ndarray) -> dict[str, complex]:
    """Verify each listed product has the GHZ state as eigenstate.

    Returns the product -> eigenvalue table; raises NotEigenstate when a
    residual exceeds 1e-10 or an eigenvalue is off the expected table by more.
    """
    out: dict[str, complex] = {}
    for names, exponent in CONCURRENT_TABLE:
        op = _three_body(ops, names)
        image = op @ ghz
        lam = complex(ghz.conj() @ image)
        if np.linalg.norm(image - lam * ghz) > 1e-10:
            raise NotEigenstate(f"{names}: GHZ is not an eigenstate")
        if abs(lam - OMEGA**exponent) > 1e-10:
            raise NotEigenstate(f"{names}: eigenvalue {lam} != omega^{exponent}")
        out[names] = lam
    return out


@functools.lru_cache(maxsize=4)
def mermin_operator(ops: OperatorSet) -> np.ndarray:
    """The 27x27 generalized Mermin operator; every summand is off-diagonal.

    Built once per operator set (the last few are kept) and read-only.
    """
    o = _three_body(ops, "XXX").astype(complex)
    o += OMEGA ** (-1) * _three_body(ops, "YYY")
    o += OMEGA ** (-2) * _three_body(ops, "WWW")
    for names in ("XYW", "XWY", "YXW", "YWX", "WXY", "WYX"):
        o += OMEGA ** (-1) * _three_body(ops, names)
    o.flags.writeable = False
    return o


def quantum_expectation(operator: np.ndarray, rho: np.ndarray) -> complex:
    """Tr(rho O)."""
    return complex(np.trace(np.asarray(rho, dtype=complex) @ operator))


@dataclass(frozen=True)
class LREnumeration:
    """Exhaustive local-realistic enumeration result."""

    count: int
    max_modulus_sq: int
    max_real_doubled: int
    distinct_values: tuple[CyclotomicInt, ...]
    argmax: tuple[Assignment, ...]

    @property
    def max_modulus(self) -> float:
        return math.isqrt(self.max_modulus_sq) if math.isqrt(self.max_modulus_sq) ** 2 == self.max_modulus_sq else math.sqrt(self.max_modulus_sq)

    @property
    def max_real(self) -> float:
        return self.max_real_doubled / 2.0


@functools.cache
def lr_enumerate() -> LREnumeration:
    """Scan all 3^9 assignments of the nine local observables exactly, once
    per process (the result is immutable).

    The sum lives in Z[omega]; the scan works on integer pairs (a, b) and
    the distinct-value set uses exact CyclotomicInt equality.  At most the
    first 32 maximizing assignments are materialized.
    """
    a, b = _kernels.lr_scan()
    norm_sq = a * a - a * b + b * b
    max_ns = int(norm_sq.max())
    max_re2 = int((2 * a - b).max())
    # nine omega powers put a and b in [-9, 9]: code each pair as one integer
    # in [0, 361); the occupied bins are the sorted distinct codes
    codes = np.flatnonzero(np.bincount((a + 9) * 19 + (b + 9)))
    distinct = tuple(
        sorted(
            (CyclotomicInt(int(c) // 19 - 9, int(c) % 19 - 9) for c in codes),
            key=lambda z: (z.norm_sq(), z.a, z.b),
        )
    )
    (argmax_idx,) = np.nonzero(norm_sq == max_ns)
    argmax = tuple(Assignment.from_index(int(i)) for i in argmax_idx[:32])
    return LREnumeration(
        count=int(a.shape[0]),
        max_modulus_sq=max_ns,
        max_real_doubled=max_re2,
        distinct_values=distinct,
        argmax=argmax,
    )


def noise_expectation(params: NoiseParams) -> float:
    """Closed-form Mermin expectation of the noise-model state.

    9 c p (ab + bc + ca) / (a^2 + b^2 + c^2) for GHZ weights (a, b, c);
    agrees with Tr(rho_p O) to floating-point accuracy.
    """
    a, b, c = params.weights
    num = a * b + b * c + c * a
    den = a * a + b * b + c * c
    return 9.0 * params.c * params.p * num / den


def noise_expectation_matrix(params: NoiseParams) -> complex:
    """Tr(noise_model(params) * O), the cross-check route."""
    return quantum_expectation(mermin_operator(build_operators()), noise_model(params))


def measurement_protocol(
    settings: Sequence[str] | str,
    rho: np.ndarray,
    ops: OperatorSet | None = None,
) -> np.ndarray:
    """Joint outcome distribution of one three-party setting choice.

    Each party is rotated into the eigenbasis of its chosen observable; the
    27 outcomes are indexed by omega exponents (k1, k2, k3) and returned as
    a (3, 3, 3) probability array.  Outcome k means eigenvalue omega^k.
    ``ops`` does not change the result, since the eigenbases are fixed; the
    parameter stays because callers pass it positionally.
    """
    if isinstance(settings, str):
        settings = tuple(settings)
    if len(settings) != 3 or any(s not in SETTINGS for s in settings):
        raise ValueError("settings must be three of X, Y, W")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (HILBERT, HILBERT):
        raise ValueError("rho must be 27x27")
    u = _product_eigenbasis(tuple(settings))
    probs = np.real(np.diag(u.conj().T @ rho @ u)).reshape(3, 3, 3)
    return np.clip(probs, 0.0, None)


@functools.lru_cache(maxsize=32)
def _product_eigenbasis(settings: tuple[str, str, str]) -> np.ndarray:
    """Read-only kron of the three parties' eigenbases, kept per setting choice."""
    # eigenvector matrix of X: columns |chi_k> with X|chi_k> = omega^k |chi_k>
    chi = np.array(
        [[OMEGA ** (-(k * t)) / math.sqrt(3) for k in range(3)] for t in range(3)]
    )
    basis = {
        "X": chi,
        "Y": _z_fractional(1) @ chi,
        "W": _z_fractional(2) @ chi,
    }
    u = np.kron(np.kron(basis[settings[0]], basis[settings[1]]), basis[settings[2]])
    u.flags.writeable = False
    return u


def product_distribution(probs: np.ndarray) -> dict[int, float]:
    """Distribution of the outcome product omega^{k1+k2+k3} over exponents."""
    out = {0: 0.0, 1: 0.0, 2: 0.0}
    for k1 in range(3):
        for k2 in range(3):
            for k3 in range(3):
                out[(k1 + k2 + k3) % 3] += float(probs[k1, k2, k3])
    return out


def expected_product(probs: np.ndarray) -> complex:
    dist = product_distribution(probs)
    return sum(dist[k] * OMEGA**k for k in dist)
