"""Coincidence arithmetic: formulas, symmetries, unit conventions."""

import itertools

import numpy as np
import pytest

from ghz3d import counts as cnt


def test_fourfold_probability_symmetric_inputs():
    q = 3e-4
    assert cnt.fourfold_probability(q, q, q, q, q, q) == pytest.approx(3 * q * q, rel=1e-12)


def test_fourfold_probability_single_pairing():
    assert cnt.fourfold_probability(1e-3, 1e-3, 0, 0, 0, 0) == pytest.approx(1e-6, rel=1e-12)
    assert cnt.fourfold_probability(0, 0, 2e-3, 3e-3, 0, 0) == pytest.approx(6e-6, rel=1e-12)


def test_fourfold_probability_relabeling_invariance():
    rng = np.random.default_rng(21)
    for _ in range(50):
        p = {k: float(rng.uniform(0, 1e-2)) for k in cnt.PAIR_KEYS}

        def of(perm, key):
            a, b = sorted(perm[k] for k in key)
            return p[a + b]

        base = cnt.fourfold_probability(
            p["AB"], p["CD"], p["AC"], p["BD"], p["AD"], p["BC"]
        )
        for perm_vals in itertools.permutations("ABCD"):
            perm = dict(zip("ABCD", perm_vals))
            permuted = cnt.fourfold_probability(
                of(perm, "AB"), of(perm, "CD"), of(perm, "AC"),
                of(perm, "BD"), of(perm, "AD"), of(perm, "BC"),
            )
            assert permuted == pytest.approx(base, rel=1e-12)


def test_fourfold_probability_validates_range():
    with pytest.raises(ValueError):
        cnt.fourfold_probability(1.5, 0, 0, 0, 0, 0)


def test_accidental_pair_reference_example():
    assert cnt.accidental_pair(1000, 2000, 1.0, 8e7) == pytest.approx(2.5e-2, rel=1e-12)


def test_accidental_pair_zero_and_symmetry():
    assert cnt.accidental_pair(0, 5000, 1.0, 8e7) == 0.0
    assert cnt.accidental_pair(123, 456, 0.5, 8e7) == cnt.accidental_pair(456, 123, 0.5, 8e7)


def test_accidental_pair_bilinear_and_rate_scaling():
    rng = np.random.default_rng(4)
    for _ in range(200):
        s1, s2 = rng.uniform(10, 1e5, size=2)
        k = rng.uniform(0.1, 10)
        tau, rate = 1.7, 8e7
        base = cnt.accidental_pair(s1, s2, tau, rate)
        assert cnt.accidental_pair(k * s1, s2, tau, rate) == pytest.approx(k * base, rel=1e-12)
        assert cnt.accidental_pair(s1, k * s2, tau, rate) == pytest.approx(k * base, rel=1e-12)
        assert cnt.accidental_pair(s1, s2, tau, k * rate) == pytest.approx(base / k, rel=1e-12)
        assert cnt.accidental_pair(s1, s2, k * tau, rate) == pytest.approx(base / k**2, rel=1e-12)


def test_accidental_fourfold_uniform():
    acc = {k: 2.0 for k in cnt.PAIR_KEYS}
    cc = {k: 5.0 for k in cnt.PAIR_KEYS}
    assert cnt.accidental_fourfold(acc, cc) == pytest.approx(6 * 2.0 * 5.0, rel=1e-12)
    assert cnt.accidental_fourfold({k: 0.0 for k in cnt.PAIR_KEYS}, cc) == 0.0


def test_accidental_fourfold_missing_pair():
    acc = {k: 1.0 for k in cnt.PAIR_KEYS if k != "BD"}
    with pytest.raises(cnt.MissingPair):
        cnt.accidental_fourfold(acc, {k: 1.0 for k in cnt.PAIR_KEYS})


def test_accidental_fourfold_dominated_by_bright_pairs():
    # pairings that involve the brightest coincidence channel dominate
    acc = {k: 1.0 for k in cnt.PAIR_KEYS}
    cc_dim = {k: 1.0 for k in cnt.PAIR_KEYS}
    cc_bright = dict(cc_dim, CD=50.0)
    assert cnt.accidental_fourfold(acc, cc_bright) > 5 * cnt.accidental_fourfold(acc, cc_dim)


def test_subtract():
    assert cnt.subtract(10, 3) == 7
    assert cnt.subtract(2, 5) == 0.0
    assert cnt.subtract(11.5, 0) == 11.5
    with pytest.raises(ValueError):
        cnt.subtract(-1, 0)


def test_mean_photon_number_reference_value():
    mu = cnt.mean_photon_number(13000, 0.44, 8e7)
    assert mu == pytest.approx(8.39e-4, rel=1e-3)
    assert abs(mu - 8.4e-4) / 8.4e-4 < 0.01


def test_mean_photon_number_scalings():
    base = cnt.mean_photon_number(13000, 0.44, 8e7)
    assert cnt.mean_photon_number(26000, 0.44, 8e7) == pytest.approx(2 * base, rel=1e-12)
    assert cnt.mean_photon_number(8e7, 1.0, 8e7) == pytest.approx(1.0, rel=1e-12)


def test_higher_order_ratio_reference_value():
    mu = cnt.mean_photon_number(13000, 0.44, 8e7)
    ratio = cnt.higher_order_ratio(mu, 0.44)
    assert abs(ratio - 4.8e-4) / 4.8e-4 < 0.02
    assert cnt.higher_order_ratio(8.4e-4, 0.44) == pytest.approx(4.88e-4, rel=1e-2)


def test_higher_order_ratio_limits():
    assert cnt.higher_order_ratio(0.0, 0.44) == 0.0
    assert cnt.higher_order_ratio(2e-4, 0.3) == pytest.approx(
        2 * cnt.higher_order_ratio(1e-4, 0.3), rel=1e-12
    )


def test_higher_order_linear_in_pair_rate():
    eta, rate = 0.44, 8e7
    r1 = cnt.higher_order_ratio(cnt.mean_photon_number(1000, eta, rate), eta)
    r3 = cnt.higher_order_ratio(cnt.mean_photon_number(3000, eta, rate), eta)
    assert r3 == pytest.approx(3 * r1, rel=1e-12)


def test_rate_model_validation():
    with pytest.raises(ValueError):
        cnt.RateModel(rep_rate=0, tau_int=1.0, eta=0.4)
    with pytest.raises(ValueError):
        cnt.RateModel(rep_rate=8e7, tau_int=1.0, eta=1.5)
    m = cnt.RateModel(rep_rate=8e7, tau_int=1.0, eta=0.44, singles={"A": 10.0})
    assert m.singles["A"] == 10.0
