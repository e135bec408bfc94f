"""Numerically hot kernels, vectorized in numpy.

The two kernels that dominate runtime are the local-realistic enumeration
over 3^9 value assignments (exact integer arithmetic) and the accumulation
sums of the four-frequency quadrature for the four-photon dip model.  Both
run their reductions in a fixed order, so results are deterministic.
"""

from __future__ import annotations

import numpy as np

# --- local-realistic enumeration ------------------------------------------
#
# Nine observable slots per assignment, laid out as
# (X1, X2, X3, Y1, Y2, Y3, W1, W2, W3); each takes a trit exponent of
# omega.  The generalized Mermin sum has nine product terms, each a pure
# omega power: exponent = prefactor + sum of three slot trits (mod 3).
# Prefactors: omega^0 for XXX, omega^-1 = omega^2 for YYY and the six
# mixed terms, omega^-2 = omega^1 for WWW.

LR_TERMS = (
    (0, 0, 1, 2),   # X1 X2 X3
    (2, 3, 4, 5),   # w^-1 Y1 Y2 Y3
    (1, 6, 7, 8),   # w^-2 W1 W2 W3
    (2, 0, 4, 8),   # w^-1 X1 Y2 W3
    (2, 0, 7, 5),   # w^-1 X1 W2 Y3
    (2, 3, 1, 8),   # w^-1 Y1 X2 W3
    (2, 3, 7, 2),   # w^-1 Y1 W2 X3
    (2, 6, 1, 5),   # w^-1 W1 X2 Y3
    (2, 6, 4, 2),   # w^-1 W1 Y2 X3
)

N_ASSIGNMENTS = 3**9


def lr_scan() -> tuple[np.ndarray, np.ndarray]:
    """(a, b) integer coordinates of S = a + b*omega for all 3^9 assignments.

    Index i encodes the assignment base-3, least-significant slot first.
    Integer arithmetic throughout; no floating point touches the sum.
    """
    idx = np.arange(N_ASSIGNMENTS, dtype=np.int64)
    trits = np.empty((9, N_ASSIGNMENTS), dtype=np.int64)
    for j in range(9):
        trits[j] = (idx // 3**j) % 3
    counts = np.zeros((3, N_ASSIGNMENTS), dtype=np.int64)
    for pre, i1, i2, i3 in LR_TERMS:
        e = (pre + trits[i1] + trits[i2] + trits[i3]) % 3
        for r in range(3):
            counts[r] += e == r
    return counts[0] - counts[2], counts[1] - counts[2]


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
    i2 = float(np.sum(wphi * phi * weights[None, :]))
    h = ((weights * phase)[:, None] * phi).T @ phi
    cross = float(((h.real**2 + h.imag**2) @ weights) @ weights)
    return i2, cross
