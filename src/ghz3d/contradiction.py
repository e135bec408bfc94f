"""Multi-setting three-dimensional GHZ argument.

The local observables are the unitary (non-Hermitian) qutrit operators

    X |l> = |l + 1 mod 3>,   Z |l> = omega^l |l>,   omega = e^{2 pi i / 3},
    Y = Z^{1/3} X Z^{-1/3},  W = Z^{2/3} X Z^{-2/3},

with eigenvalues {1, omega, omega^2}.  Nine three-body products share the
balanced GHZ state as an eigenstate (a concurrent set), each with eigenvalue
omega^e; the sum weighting each by omega^-e

    O = XXX + w^-1 YYY + w^-2 WWW
        + w^-1 (XYW + XWY + YXW + YWX + WXY + WYX)

reaches expectation 9 on the GHZ state, while an exact enumeration of all
3^9 = 19683 local-realistic value assignments, carried out in the ring
Z[omega] with integer arithmetic only, never exceeds modulus 6.  Adding t
to each X value and -t to each Y value, or s to each X and -s to each W
value, leaves all nine terms unchanged, so the enumeration sums one member
of each of the 3^7 nine-member classes and so covers all 3^9 assignments.
Since the GHZ state is (|000> + |111> + |222>)/sqrt(3), the quantum value
and the concurrent-set check need only the 3x3 entries of the observables.
The products and their exponents e are one table,
:data:`~ghz3d._kernels.CONCURRENT_TABLE`: the operator, its GHZ
expectation, the concurrent-set check and the enumeration's terms all read
it.

The input-free constants are built once per process and shared read-only:
the operator entries (their concurrent-set check runs on that one build),
the arrays :func:`build_operators` makes of them, the Mermin operator of
each set, the product eigenbases of :func:`measurement_protocol` and the
:func:`lr_enumerate` result.  Their arrays are read-only, so writing into
one raises ValueError.  Only the functions that take or return arrays
import numpy.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import _kernels
from ._checks import Frozen
from ._kernels import CONCURRENT_TABLE

if TYPE_CHECKING:
    import numpy as np

    from ._checks import NoiseParams

OMEGA = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))

SETTINGS = ("X", "Y", "W")


class NotEigenstate(RuntimeError):
    """A concurrent-set product fails to have the GHZ state as eigenstate."""


class CyclotomicInt(NamedTuple):
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


class Assignment(Frozen):
    """Local-realistic values v(X_k), v(Y_k), v(W_k) as omega exponents."""

    __slots__ = _fields = ("trits",)

    def __init__(self, trits: tuple[int, ...]) -> None:
        if len(trits) != 9 or any(t not in (0, 1, 2) for t in trits):
            raise ValueError("assignment needs nine trits in {0, 1, 2}")
        object.__setattr__(self, "trits", trits)  # layout (X1, X2, X3, Y1, Y2, Y3, W1, W2, W3)

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


class OperatorSet(Frozen):
    """The local observables as 3x3 matrices, indexed ``m[i][j]``: tuples of
    complex entries or read-only arrays.  Compared and hashed by identity
    (arrays have no single-valued equality)."""

    __slots__ = _fields = ("x", "y", "w", "z")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, x: np.ndarray, y: np.ndarray, w: np.ndarray, z: np.ndarray) -> None:
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "z", z)

    def by_name(self, name: str) -> np.ndarray:
        return {"X": self.x, "Y": self.y, "W": self.w, "Z": self.z}[name]


def _z_phases(power_third: int) -> list[complex]:
    """Diagonal of the principal branch of Z^(power_third/3): omega^{t p/3}."""
    return [cmath.exp(2j * math.pi * t * (power_third / 3.0) / 3.0) for t in range(3)]


def _z_fractional(power_third: int) -> np.ndarray:
    import numpy as np

    return np.diag(_z_phases(power_third))


#: the balanced GHZ state (|000> + |111> + |222>)/sqrt(3) as 27 amplitudes
GHZ_VECTOR = tuple(1 / math.sqrt(3) if i in (0, 13, 26) else 0.0 for i in range(27))


@functools.cache
def operator_entries() -> OperatorSet:
    """X, Y, W, Z on the principal fractional-power branch as tuples of 3x3
    complex entries, checked against the concurrent set (NotEigenstate if a
    product fails; branches 1, 2 never pass).

    Y = Z^{1/3} X Z^{-1/3} has the entries phase_i X_ij conj(phase_j), W
    likewise with Z^{2/3}.  Built and checked once per process.
    """
    x = tuple(tuple(1 + 0j if i == (j + 1) % 3 else 0j for j in range(3)) for i in range(3))

    def conjugated(phases: list[complex]) -> tuple[tuple[complex, ...], ...]:
        return tuple(
            tuple(phases[i] * phases[j].conjugate() if x[i][j] else 0j for j in range(3)) for i in range(3)
        )

    z = tuple(tuple(OMEGA**i if i == j else 0j for j in range(3)) for i in range(3))
    ops = OperatorSet(x=x, y=conjugated(_z_phases(1)), w=conjugated(_z_phases(2)), z=z)
    concurrent_set_check(ops, GHZ_VECTOR)
    return ops


@functools.cache
def build_operators() -> OperatorSet:
    """The :func:`operator_entries` as read-only complex arrays, built once per process."""
    import numpy as np

    entries = operator_entries()
    arrays = [np.array(entries.by_name(name), dtype=complex) for name in "XYWZ"]
    for a in arrays:
        a.flags.writeable = False
    return OperatorSet(*arrays)


def _three_body(ops: OperatorSet, names: str) -> np.ndarray:
    import numpy as np

    m = ops.by_name(names[0])
    for ch in names[1:]:
        m = np.kron(m, ops.by_name(ch))
    return m


def concurrent_set_check(ops: OperatorSet, ghz: Sequence[complex]) -> dict[str, complex]:
    """Verify each listed product has the 27-amplitude state ``ghz`` as eigenstate.

    Returns the product -> eigenvalue table; raises NotEigenstate when a
    residual exceeds 1e-10 or an eigenvalue is off the expected table by more.
    Runs on entries or arrays alike; the image sums over the nonzero
    amplitudes of ``ghz`` only.
    """
    support = [(u // 9, u // 3 % 3, u % 3, complex(ghz[u])) for u in range(27) if ghz[u]]
    out: dict[str, complex] = {}
    for names, exponent in CONCURRENT_TABLE:
        a, b, c = (ops.by_name(n) for n in names)
        # (A (x) B (x) C)|ghz>, component 9i + 3j + k
        image = [
            sum(a[i][l] * b[j][m] * c[k][n] * g for l, m, n, g in support)
            for i in range(3)
            for j in range(3)
            for k in range(3)
        ]
        lam = complex(sum(complex(ghz[u]).conjugate() * image[u] for u in range(27)))
        if math.sqrt(sum(abs(image[u] - lam * ghz[u]) ** 2 for u in range(27))) > 1e-10:
            raise NotEigenstate(f"{names}: GHZ is not an eigenstate")
        if abs(lam - OMEGA**exponent) > 1e-10:
            raise NotEigenstate(f"{names}: eigenvalue {lam} != omega^{exponent}")
        out[names] = lam
    return out


def ghz_expectation(ops: OperatorSet) -> complex:
    """<GHZ|O|GHZ> of the Mermin operator from 3x3 entries:
    (1/3) sum over the nine products of omega^-e sum_ij A1_ij A2_ij A3_ij,
    with e the product's eigenvalue exponent of :data:`CONCURRENT_TABLE`."""
    total = 0j
    for names, exponent in CONCURRENT_TABLE:
        a, b, c = (ops.by_name(n) for n in names)
        total += OMEGA ** (-exponent) * sum(a[i][j] * b[i][j] * c[i][j] for i in range(3) for j in range(3))
    return total / 3


@functools.lru_cache(maxsize=4)
def mermin_operator(ops: OperatorSet) -> np.ndarray:
    """The 27x27 generalized Mermin operator, the sum over
    :data:`CONCURRENT_TABLE` of omega^-e times each product, in table order;
    every summand is off-diagonal.

    Built once per operator set (the last few are kept) and read-only.
    """
    import numpy as np

    o = np.zeros((27, 27), dtype=complex)
    for names, exponent in CONCURRENT_TABLE:
        o += OMEGA ** (-exponent) * _three_body(ops, names)
    o.flags.writeable = False
    return o


def quantum_expectation(operator: np.ndarray, rho: np.ndarray) -> complex:
    """Tr(rho O)."""
    import numpy as np

    return complex(np.trace(np.asarray(rho, dtype=complex) @ operator))


class LREnumeration(NamedTuple):
    """Exhaustive local-realistic enumeration result."""

    count: int
    max_modulus_sq: int
    max_real_doubled: int
    distinct_values: tuple[CyclotomicInt, ...]

    @property
    def max_modulus(self) -> float:
        """The int square root when it is exact (6 for the Mermin sum), else a float."""
        root = math.isqrt(self.max_modulus_sq)
        return root if root * root == self.max_modulus_sq else math.sqrt(self.max_modulus_sq)

    @property
    def max_real(self) -> float:
        return self.max_real_doubled / 2.0


@functools.cache
def lr_enumerate() -> LREnumeration:
    """Cover all 3^9 assignments of the nine local observables exactly, once
    per process (the result is immutable).

    The sum lives in Z[omega]; the scan works on the integer pairs (a, b) of
    one representative per nine-member shift class, whose members share its
    value, and the distinct-value set uses exact CyclotomicInt equality.
    The scanned terms are :data:`~ghz3d._kernels.LR_TERMS`, derived from
    :data:`CONCURRENT_TABLE`.
    """
    a, b = _kernels.lr_scan()
    distinct = tuple(
        sorted((CyclotomicInt(x, y) for x, y in set(zip(a, b))), key=lambda z: (z.norm_sq(), z.a, z.b))
    )
    return LREnumeration(
        count=_kernels.CLASS_SIZE * len(a),
        max_modulus_sq=distinct[-1].norm_sq(),
        max_real_doubled=max(2 * z.a - z.b for z in distinct),
        distinct_values=distinct,
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
    from .tomography import noise_model

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
    import numpy as np

    from .tomography import HILBERT

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
    import numpy as np

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
