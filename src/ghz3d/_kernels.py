"""Numerically hot kernels.

The nine Mermin terms are defined once, in :data:`CONCURRENT_TABLE`; the
local-realistic enumeration reads its term layout, :data:`LR_TERMS`, off
that table.  The enumeration over the 3^9 value assignments runs in exact
integer arithmetic with no numpy: a shift symmetry of the nine terms splits
the assignments into 3^7 classes of nine with one value each, and one
representative per class is scanned.  The accumulation sums of the
four-frequency quadrature for the four-photon dip model take numpy arrays.
Both run their reductions in a fixed order, so results are deterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# --- the Mermin terms -------------------------------------------------------

#: the nine three-body products of the generalized Mermin sum (a concurrent
#: set) with the omega exponent e of their eigenvalue on the balanced GHZ
#: state; the sum weights each product by omega^-e
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
)

# --- local-realistic enumeration ------------------------------------------
#
# Nine observable slots per assignment, laid out as
# (X1, X2, X3, Y1, Y2, Y3, W1, W2, W3); each takes a trit exponent of
# omega.  Each Mermin term is then a pure omega power:
# exponent = prefactor + sum of three slot trits (mod 3), with prefactor -e.

#: (prefactor, slot of party 1, of party 2, of party 3) of each table term
LR_TERMS = tuple(
    ((-e) % 3, *(3 * "XYW".index(s) + party for party, s in enumerate(names))) for names, e in CONCURRENT_TABLE
)

N_ASSIGNMENTS = 3**9

# Adding t to every X slot and -t to every Y slot, or s to every X slot and
# -s to every W slot, moves each term's exponent by a multiple of 3 when the
# term holds three slots of one observable or one each of X, Y and W.  So an
# assignment's class {X + t + s, Y - t, W - s} has nine members of one value,
# and exactly one member with X1 = Y1 = 0: the class representative.

#: slots of a representative's free trits, least significant first; index r
#: of a representative is its base-3 number over these trits, so the
#: representatives run in the index order of their assignments
FREE_SLOTS = (1, 2, 4, 5, 6, 7, 8)
N_REPRESENTATIVES = 3 ** len(FREE_SLOTS)
CLASS_SIZE = N_ASSIGNMENTS // N_REPRESENTATIVES

# a + 1 and b + 1 of omega^e = a + b*omega for e in [0, 8], one byte each:
# omega^0 = 1, omega^1 = omega, omega^2 = -1 - omega
_A_PLUS_1 = bytes((2, 1, 0) * 3).ljust(256, b"\0")
_B_PLUS_1 = bytes((1, 2, 0) * 3).ljust(256, b"\0")


def _check_shift_invariant(terms) -> None:
    """Raise ValueError unless every term counts X, Y and W slots equally mod 3,
    the condition for the class shifts to leave its exponent unchanged."""
    for pre, *slots in terms:
        n = [0, 0, 0]
        for slot in slots:
            n[slot // 3] += 1
        if (n[0] - n[1]) % 3 or (n[0] - n[2]) % 3:
            raise ValueError(f"LR term {(pre, *slots)} is not invariant under the X/Y/W class shifts")


def lr_scan() -> tuple[list[int], list[int]]:
    """(a, b) integer coordinates of S = a + b*omega for the 3^7 class
    representatives of the 3^9 assignments, in representative index order.

    Each representative's value is the value of its nine class members.  The
    scan packs one byte per representative into a Python int, so the three
    slot trits of a term add for all representatives at once, and a byte
    table maps each exponent to its omega power.  Integer arithmetic
    throughout; no floating point touches the sum.
    """
    terms = LR_TERMS
    _check_shift_invariant(terms)
    n = N_REPRESENTATIVES
    cols = [0] * 9  # X1 and Y1 are 0 in every representative
    for pos, slot in enumerate(FREE_SLOTS):  # the trit at 3**pos: runs of 3**pos zeros, ones, twos
        run = 3**pos
        cols[slot] = int.from_bytes((b"\0" * run + b"\1" * run + b"\2" * run) * (n // (3 * run)), "little")
    ones = int.from_bytes(b"\1" * n, "little")
    a = b = 0
    for pre, i1, i2, i3 in terms:
        # one byte per representative, the term's exponent before mod 3, at most 8
        e = (pre * ones + cols[i1] + cols[i2] + cols[i3]).to_bytes(n, "little")
        a += int.from_bytes(e.translate(_A_PLUS_1), "little")
        b += int.from_bytes(e.translate(_B_PLUS_1), "little")
    k = len(terms)  # the byte sums lie in [0, 2k], so no byte carries
    return [v - k for v in a.to_bytes(n, "little")], [v - k for v in b.to_bytes(n, "little")]


# --- four-photon quadrature sums -------------------------------------------


def p4_sums(weights: np.ndarray, phi: np.ndarray, phase: np.ndarray) -> tuple[float, float]:
    """Quadrature sums (I2, cross) of the four-photon coincidence integral.

    I2    = sum_jk w_j w_k phi_jk^2                    (single-pair norm)
    cross = sum_jk w_j w_k |sum_i w_i phase_i phi_ij phi_ik|^2

    ``weights`` are effective quadrature weights for an unweighted integral,
    ``phi`` the sampled joint spectral amplitude, ``phase`` the per-node
    delay phase factors exp(-i omega_i dT).
    """
    wphi = weights[:, None] * phi
    i2 = float((wphi * phi * weights[None, :]).sum())
    h = ((weights * phase)[:, None] * phi).T @ phi
    cross = float(((h.real**2 + h.imag**2) @ weights) @ weights)
    return i2, cross
