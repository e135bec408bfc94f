"""Hot kernels: the LR scan's layout and dtype, the P4 sums against loops."""

import numpy as np
import pytest

from ghz3d import _kernels as k


def test_lr_scan_is_int64():
    a, b = k.lr_scan()
    assert a.dtype == np.int64 and b.dtype == np.int64
    assert a.shape == b.shape == (3**9,)


def test_p4_sums_match_python_loops():
    rng = np.random.default_rng(12)
    n = 7
    weights = rng.uniform(0.1, 1.0, size=n)
    phi = rng.uniform(0.0, 1.0, size=(n, n))
    phi = (phi + phi.T) / 2
    phase = np.exp(-1j * rng.uniform(-3, 3, size=n))
    i2 = 0.0
    cross = 0.0
    for j in range(n):
        for kk in range(n):
            i2 += weights[j] * weights[kk] * phi[j, kk] ** 2
            h = sum(weights[i] * phase[i] * phi[i, j] * phi[i, kk] for i in range(n))
            cross += weights[j] * weights[kk] * abs(h) ** 2
    got_i2, got_cross = k.p4_sums(weights, phi, phase)
    assert got_i2 == pytest.approx(i2, rel=1e-12)
    assert got_cross == pytest.approx(cross, rel=1e-12)


def test_lr_terms_layout():
    # nine product terms over nine observable slots, prefactors in {0, 1, 2}
    assert len(k.LR_TERMS) == 9
    assert all(len(t) == 4 for t in k.LR_TERMS)
    assert {t[0] for t in k.LR_TERMS} == {0, 1, 2}
    for _, i1, i2, i3 in k.LR_TERMS:
        # one observable per party: slots are 3*op + party
        assert {i1 % 3, i2 % 3, i3 % 3} == {0, 1, 2}
