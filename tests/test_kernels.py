"""Hot kernels: the LR scan's representative layout, the P4 sums against loops."""

import itertools

import numpy as np
import pytest

from ghz3d import _kernels as k
from ghz3d.contradiction import Assignment


def test_lr_scan_returns_plain_ints_per_class_representative():
    a, b = k.lr_scan()
    assert type(a) is list and type(b) is list
    assert len(a) == len(b) == k.N_REPRESENTATIVES == 3**7
    assert all(type(v) is int for v in a + b)
    # representative r has X1 = Y1 = 0 and its free trits are the base-3 digits of r
    for r, free in enumerate(itertools.product(range(3), repeat=len(k.FREE_SLOTS))):
        trits = [0] * 9
        for slot, t in zip(k.FREE_SLOTS, reversed(free)):
            trits[slot] = t
        s = Assignment(tuple(trits)).mermin_sum()
        assert (a[r], b[r]) == (s.a, s.b), trits


def test_shift_classes_map_every_assignment_to_a_representative_of_its_value():
    a, b = k.lr_scan()
    members = dict.fromkeys(range(k.N_REPRESENTATIVES), 0)
    for i in range(3**9):
        trits = Assignment.from_index(i).trits
        # X + t + s, Y - t, W - s with t = Y1 and s = -X1 - Y1 takes X1 and Y1 to 0
        t, s = trits[3], -trits[0] - trits[3]
        rep = [(v + (t + s, -t, -s)[slot // 3]) % 3 for slot, v in enumerate(trits)]
        assert rep[0] == rep[3] == 0
        r = sum(rep[slot] * 3**pos for pos, slot in enumerate(k.FREE_SLOTS))
        value = Assignment(trits).mermin_sum()
        assert (a[r], b[r]) == (value.a, value.b), trits
        members[r] += 1
    assert set(members.values()) == {9}


def test_lr_scan_rejects_terms_without_the_shift_symmetry(monkeypatch):
    # X1 X2 Y3 moves by 2t - t = t under X + t, Y - t
    monkeypatch.setattr(k, "LR_TERMS", (*k.LR_TERMS[:-1], (2, 0, 1, 5)))
    with pytest.raises(ValueError, match=r"LR term \(2, 0, 1, 5\)"):
        k.lr_scan()


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
    assert k.LR_TERMS == (
        (0, 0, 1, 2),  # X1 X2 X3
        (2, 3, 4, 5),  # w^-1 Y1 Y2 Y3
        (1, 6, 7, 8),  # w^-2 W1 W2 W3
        (2, 0, 4, 8),  # w^-1 X1 Y2 W3
        (2, 0, 7, 5),  # w^-1 X1 W2 Y3
        (2, 3, 1, 8),  # w^-1 Y1 X2 W3
        (2, 3, 7, 2),  # w^-1 Y1 W2 X3
        (2, 6, 1, 5),  # w^-1 W1 X2 Y3
        (2, 6, 4, 2),  # w^-1 W1 Y2 X3
    )
    # nine product terms over nine observable slots, prefactors in {0, 1, 2}
    assert len(k.LR_TERMS) == 9
    assert all(len(t) == 4 for t in k.LR_TERMS)
    assert {t[0] for t in k.LR_TERMS} == {0, 1, 2}
    for _, i1, i2, i3 in k.LR_TERMS:
        # one observable per party: slots are 3*op + party
        assert {i1 % 3, i2 % 3, i3 % 3} == {0, 1, 2}
