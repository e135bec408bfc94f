"""GHZ contradiction: operators, concurrent set, exact enumeration, noise."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from ghz3d import contradiction as ct
from ghz3d.tomography import NoiseParams, ideal_ghz, noise_model

OMEGA = ct.OMEGA


@pytest.fixture(scope="module")
def ops():
    return ct.build_operators()


@pytest.fixture(scope="module")
def ghz_pair():
    return ideal_ghz()


# --- cyclotomic integers -----------------------------------------------------


def test_cyclotomic_multiplication_rule():
    z1 = ct.CyclotomicInt(2, -3)
    z2 = ct.CyclotomicInt(-1, 4)
    prod = z1 * z2
    # (a + b w)(c + d w) = (ac - bd) + (ad + bc - bd) w
    assert prod == ct.CyclotomicInt(2 * -1 - (-3) * 4, 2 * 4 + (-3) * (-1) - (-3) * 4)
    assert abs(prod.to_complex() - z1.to_complex() * z2.to_complex()) < 1e-12


def test_cyclotomic_norm_is_integer_modulus():
    for a in range(-5, 6):
        for b in range(-5, 6):
            z = ct.CyclotomicInt(a, b)
            assert z.norm_sq() == pytest.approx(abs(z.to_complex()) ** 2, abs=1e-9)


def test_omega_powers():
    for k in range(6):
        z = ct.CyclotomicInt.omega_power(k)
        assert abs(z.to_complex() - OMEGA**k) < 1e-12


# --- operators ----------------------------------------------------------------


def test_shift_operator_wraps(ops):
    e2 = np.zeros(3)
    e2[2] = 1.0
    assert np.allclose(ops.x @ e2, [1.0, 0.0, 0.0])  # X|2> = |0>


def test_z_eigenvalues(ops):
    assert np.allclose(np.diag(ops.z), [1.0, OMEGA, OMEGA**2])


def test_operators_unitary_but_not_hermitian(ops):
    for name in "XYWZ":
        m = ops.by_name(name)
        assert np.allclose(m.conj().T @ m, np.eye(3), atol=1e-12)
    assert not np.allclose(ops.x, ops.x.conj().T)


def test_cubes_are_identity(ops):
    for name in "XYW":
        m = ops.by_name(name)
        assert np.allclose(np.linalg.matrix_power(m, 3), np.eye(3), atol=1e-12)


def test_concurrent_table(ops, ghz_pair):
    ghz, _ = ghz_pair
    table = ct.concurrent_set_check(ops, ghz)
    assert abs(table["XXX"] - 1.0) < 1e-10
    assert abs(table["YYY"] - OMEGA) < 1e-10
    assert abs(table["WWW"] - OMEGA**2) < 1e-10
    for names in ("XYW", "XWY", "YXW", "YWX", "WXY", "WYX"):
        assert abs(table[names] - OMEGA) < 1e-10


def test_concurrent_residuals_small(ops, ghz_pair):
    ghz, _ = ghz_pair
    for names, exp in ct.CONCURRENT_TABLE:
        op = ct._three_body(ops, names)
        assert np.linalg.norm(op @ ghz - (OMEGA**exp) * ghz) < 1e-10


# --- Mermin operator -------------------------------------------------------------


def test_mermin_expectation_on_ghz(ops, ghz_pair):
    _, rho = ghz_pair
    val = ct.quantum_expectation(ct.mermin_operator(ops), rho)
    assert abs(val - 9.0) < 1e-10


def test_mermin_operator_structure(ops):
    o = ct.mermin_operator(ops)
    assert abs(np.trace(o)) < 1e-12
    assert np.max(np.abs(np.diag(o))) < 1e-12


def test_mermin_operator_bytes_are_pinned(ops):
    # recorded before the operator was built from the concurrent-set table
    digest = hashlib.sha256(ct.mermin_operator(ops).tobytes()).hexdigest()
    assert digest == "21e78d33d5b45135162e1969cfee5a720c00d7f1e2601185130030dc567673e2"


def test_mermin_zero_on_diagonal_states(ops):
    o = ct.mermin_operator(ops)
    rng = np.random.default_rng(2)
    probs = rng.dirichlet(np.ones(27))
    assert abs(ct.quantum_expectation(o, np.diag(probs.astype(complex)))) < 1e-12
    assert abs(ct.quantum_expectation(o, np.eye(27, dtype=complex) / 27)) < 1e-12


# --- local-realistic enumeration ----------------------------------------------------


@pytest.fixture(scope="module")
def enumeration():
    return ct.lr_enumerate()


def test_enumeration_count(enumeration):
    assert enumeration.count == 3**9 == 19683


def test_enumeration_maximum(enumeration):
    assert enumeration.max_modulus_sq == 36
    assert enumeration.max_modulus == 6


def test_enumeration_distinct_values(enumeration):
    assert len(enumeration.distinct_values) == 16
    assert all(z.norm_sq() <= 36 for z in enumeration.distinct_values)


def test_enumeration_distinct_values_in_order(enumeration):
    # sorted by (norm_sq, a, b); recorded from the two-column np.unique scan
    assert [(z.a, z.b) for z in enumeration.distinct_values] == [
        (0, 0), (-3, -3), (-3, 0), (0, -3), (0, 3), (3, 0), (3, 3), (-6, -3),
        (-3, -6), (-3, 3), (3, -3), (3, 6), (6, 3), (-6, -6), (0, 6), (6, 0),
    ]


def test_all_ones_assignment_is_maximizer():
    a = ct.Assignment((0,) * 9)
    s = a.mermin_sum()
    assert s == ct.CyclotomicInt(-6, -6)
    assert s.norm_sq() == 36


def test_enumeration_matches_pure_python_oracle(enumeration):
    # independent route: CyclotomicInt sums over every assignment, with no
    # shift classes; Assignment.from_index orders them as the enumeration does
    sums = [ct.Assignment.from_index(i).mermin_sum() for i in range(3**9)]
    assert {ct.Assignment.from_index(i).trits for i in range(3**9)} == set(itertools.product((0, 1, 2), repeat=9))
    max_ns = max(s.norm_sq() for s in sums)
    assert len(sums) == enumeration.count
    assert max_ns == enumeration.max_modulus_sq
    assert max(2 * s.a - s.b for s in sums) == enumeration.max_real_doubled == 12
    assert {(s.a, s.b) for s in sums} == {(z.a, z.b) for z in enumeration.distinct_values}


def test_quantum_value_exceeds_every_lr_value(enumeration, ops, ghz_pair):
    _, rho = ghz_pair
    quantum = ct.quantum_expectation(ct.mermin_operator(ops), rho).real
    assert quantum > enumeration.max_modulus
    assert quantum > enumeration.max_real


# --- noise expectation ---------------------------------------------------------------


def test_noise_expectation_table1_value():
    val = ct.noise_expectation(NoiseParams.table1())
    # exact closed form with the tabulated inputs; the quoted reference
    # value for the same expression is 6.26 +- 0.25
    assert val == pytest.approx(6.2834, abs=5e-4)


def test_noise_expectation_limits():
    assert ct.noise_expectation(NoiseParams(1.0, 1.0, (1.0, 1.0, 1.0))) == pytest.approx(9.0)
    assert ct.noise_expectation(NoiseParams(0.7, 0.0, (1.0, 1.0, 1.0))) == 0.0


def test_noise_expectation_matches_matrix_route(ops):
    rng = np.random.default_rng(17)
    for _ in range(100):
        params = NoiseParams(
            p=float(rng.uniform()),
            c=float(rng.uniform()),
            weights=tuple(rng.uniform(0.1, 1.0, size=3)),
        )
        closed = ct.noise_expectation(params)
        matrix = ct.quantum_expectation(ct.mermin_operator(ops), noise_model(params))
        assert abs(matrix - closed) < 1e-10


# --- measurement protocol ---------------------------------------------------------------


def test_protocol_xxx_perfect_correlations(ops, ghz_pair):
    _, rho = ghz_pair
    probs = ct.measurement_protocol("XXX", rho, ops)
    dist = ct.product_distribution(probs)
    assert dist[0] == pytest.approx(1.0, abs=1e-10)
    for party in range(3):
        marg = probs.sum(axis=tuple(i for i in range(3) if i != party))
        assert np.allclose(marg, 1.0 / 3.0, atol=1e-10)


def test_protocol_uniform_marginals_all_settings(ops, ghz_pair):
    _, rho = ghz_pair
    for setting in itertools.product("XYW", repeat=3):
        probs = ct.measurement_protocol(setting, rho, ops)
        for party in range(3):
            marg = probs.sum(axis=tuple(i for i in range(3) if i != party))
            assert np.allclose(marg, 1.0 / 3.0, atol=1e-10)


def test_protocol_expected_products_match_table(ops, ghz_pair):
    _, rho = ghz_pair
    for names, exp in ct.CONCURRENT_TABLE:
        probs = ct.measurement_protocol(names, rho, ops)
        assert abs(ct.expected_product(probs) - OMEGA**exp) < 1e-10


def test_protocol_maximally_mixed(ops):
    probs = ct.measurement_protocol("XYW", np.eye(27, dtype=complex) / 27, ops)
    assert np.allclose(probs, 1.0 / 27.0, atol=1e-12)


def test_protocol_matches_photonic_rotation(ops, ghz_pair):
    """The matrix-level protocol agrees with rotating an actual photonic state."""
    from ghz3d.elements import local_unitary
    from ghz3d.states import ModeLabel, PhotonicState, apply, extend_identity

    ghz, rho = ghz_pair
    paths = ("B", "C", "D")
    state = PhotonicState(
        {tuple(ModeLabel(p, t) for p in paths): 1.0 for t in range(3)}
    ).normalize()
    chi = np.array(
        [[OMEGA ** (-(k * t)) / math.sqrt(3) for k in range(3)] for t in range(3)]
    )
    setting = ("X", "Y", "W")
    basis_map = {
        "X": chi,
        "Y": ct._z_fractional(1) @ chi,
        "W": ct._z_fractional(2) @ chi,
    }
    all_modes = {ModeLabel(p, ell) for p in paths for ell in range(3)}
    rotated = state
    for path, s in zip(paths, setting):
        u = basis_map[s].conj().T  # eigenbasis -> computational
        rotated = apply(extend_identity(local_unitary(path, u, (0, 1, 2)), all_modes), rotated)
    probs_matrix = ct.measurement_protocol(setting, rho, ops)
    for k1 in range(3):
        for k2 in range(3):
            for k3 in range(3):
                amp = rotated.amplitude(
                    (ModeLabel("B", k1), ModeLabel("C", k2), ModeLabel("D", k3))
                )
                assert abs(abs(amp) ** 2 - probs_matrix[k1, k2, k3]) < 1e-10


def test_invalid_settings_rejected(ops, ghz_pair):
    _, rho = ghz_pair
    with pytest.raises(ValueError):
        ct.measurement_protocol("XY", rho, ops)
    with pytest.raises(ValueError):
        ct.measurement_protocol("XYZ", rho, ops)


def test_assignment_accessor_layout():
    a = ct.Assignment((0, 1, 2, 0, 0, 1, 2, 2, 0))
    assert a.value("X", 1) == 0 and a.value("X", 2) == 1 and a.value("X", 3) == 2
    assert a.value("Y", 3) == 1
    assert a.value("W", 1) == 2
    with pytest.raises(ValueError):
        ct.Assignment((0, 1))
    with pytest.raises(ValueError):
        ct.Assignment((0, 1, 2, 3, 0, 0, 0, 0, 0))


# --- constants built once per process -------------------------------------------


def test_operator_set_is_built_and_checked_once_and_read_only(ops, monkeypatch):
    assert ct.build_operators() is ops
    entries = ct.operator_entries()
    checks = []
    monkeypatch.setattr(ct, "concurrent_set_check", lambda o, ghz: checks.append(o))
    fresh = ct.operator_entries.__wrapped__()
    assert len(checks) == 1  # a build of the entries runs the concurrent-set check
    assert ct.build_operators.__wrapped__().x is not ops.x and len(checks) == 1  # the arrays reuse it
    for name in ("X", "Y", "W", "Z"):
        assert fresh.by_name(name) == entries.by_name(name)
        assert np.array_equal(ops.by_name(name), entries.by_name(name))
        with pytest.raises(ValueError, match="read-only"):
            ops.by_name(name)[0, 0] = 0.0


def test_concurrent_set_check_runs_on_entries():
    table = ct.concurrent_set_check(ct.operator_entries(), ct.GHZ_VECTOR)
    assert list(table) == [names for names, _ in ct.CONCURRENT_TABLE]
    for names, exponent in ct.CONCURRENT_TABLE:
        assert type(table[names]) is complex and abs(table[names] - OMEGA**exponent) < 1e-12
    with pytest.raises(ct.NotEigenstate, match="XXX"):  # X maps |222> to |000>
        ct.concurrent_set_check(ct.operator_entries(), (0.0,) * 26 + (1.0,))


def test_ghz_expectation_from_entries_matches_the_trace(ops, ghz_pair):
    _, rho = ghz_pair
    quantum = ct.ghz_expectation(ct.operator_entries())
    assert type(quantum) is complex and abs(quantum - 9.0) < 1e-12
    assert abs(quantum - ct.quantum_expectation(ct.mermin_operator(ops), rho)) < 1e-12


def test_mermin_operator_is_built_once_per_set_and_read_only(ops):
    o = ct.mermin_operator(ops)
    assert ct.mermin_operator(ct.build_operators()) is o
    assert np.array_equal(ct.mermin_operator.__wrapped__(ops), o)
    with pytest.raises(ValueError, match="read-only"):
        o[0, 1] = 0.0
    # a set is keyed by identity: a copy gets its own array
    copy = ct.OperatorSet(ops.x, ops.y, ops.w, ops.z)
    assert copy != ops and ct.mermin_operator(copy) is not o


def test_enumeration_is_built_once(enumeration):
    assert ct.lr_enumerate() is enumeration
    assert ct.lr_enumerate.__wrapped__() == enumeration


def test_protocol_eigenbases_are_built_once_and_read_only(ops, ghz_pair):
    _, rho = ghz_pair
    u = ct._product_eigenbasis(("X", "Y", "W"))
    assert ct._product_eigenbasis(("X", "Y", "W")) is u
    assert np.array_equal(ct._product_eigenbasis.__wrapped__(("X", "Y", "W")), u)
    with pytest.raises(ValueError, match="read-only"):
        u[0, 0] = 0.0
    assert np.array_equal(ct.measurement_protocol("XYW", rho, ops), ct.measurement_protocol(["X", "Y", "W"], rho, ops))
