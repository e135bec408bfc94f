"""Witness machinery: GHZ states, Schmidt structure, projective
reconstruction, the noise model, and simulated counting."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ghz3d import tomography as tm


def random_rho(rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(27, 27)) + 1j * rng.normal(size=(27, 27))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_lower_srv_states(
    n: int, seed: int, deficient_party: int
) -> np.ndarray:
    """Random states with Schmidt rank <= 2 on one party, as (n, 27) array."""
    rng = np.random.default_rng(seed)
    chi = rng.normal(size=(n, 3, 3, 2)) + 1j * rng.normal(size=(n, 3, 3, 2))
    full = np.zeros((n, 3, 3, 3), dtype=complex)
    full[..., :2] = chi
    full = np.moveaxis(full, 3, deficient_party + 1)
    us = []
    for _ in range(3):
        g = rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3))
        q, r = np.linalg.qr(g)
        # fix phases so the distribution is Haar
        d = np.einsum("nii->ni", r)
        q = q * (d / np.abs(d))[:, None, :]
        us.append(q)
    rotated = np.einsum("nai,nbj,nck,nijk->nabc", us[0], us[1], us[2], full)
    rotated = rotated.reshape(n, 27)
    return rotated / np.linalg.norm(rotated, axis=1, keepdims=True)


# --- states and spectra ----------------------------------------------------------


def test_ideal_ghz_balanced_diagonals():
    vec, rho = tm.ideal_ghz()
    for t in range(3):
        assert rho[t * 13, t * 13] == pytest.approx(1.0 / 3.0)
    assert np.trace(rho) == pytest.approx(1.0)


def test_ideal_ghz_table1_diagonals():
    vec, rho = tm.ideal_ghz(tm.NoiseParams.table1().weights)
    diags = [abs(vec[t * 13]) ** 2 for t in range(3)]
    assert np.allclose(np.round(diags, 3), [0.444, 0.327, 0.228])


def test_ideal_ghz_single_weight_is_product():
    vec, _ = tm.ideal_ghz((0.0, 1.0, 0.0))
    assert abs(vec[13] - 1.0) < 1e-12
    assert tm.srv(vec) == (1, 1, 1)


def test_fidelity_identities():
    vec, rho = tm.ideal_ghz()
    assert tm.fidelity(rho, vec) == pytest.approx(1.0)
    assert tm.fidelity(np.eye(27) / 27, vec) == pytest.approx(1.0 / 27.0)


def test_schmidt_coefficients_balanced():
    vec, _ = tm.ideal_ghz()
    for party in range(3):
        lam = tm.schmidt_coeffs(vec, party)
        assert np.allclose(lam, [1 / np.sqrt(3)] * 3)


def test_schmidt_coefficients_product_and_weighted():
    prod = np.zeros(27, dtype=complex)
    prod[0] = 1.0
    assert np.allclose(tm.schmidt_coeffs(prod, 0), [1.0, 0.0, 0.0])
    w = tm.NoiseParams.table1().weights
    vec, _ = tm.ideal_ghz(w)
    expected = np.sort(np.asarray(w) / np.linalg.norm(w))[::-1]
    assert np.allclose(tm.schmidt_coeffs(vec, 1), expected)


def test_srv_cases():
    vec, _ = tm.ideal_ghz()
    assert tm.srv(vec) == (3, 3, 3)
    prod = np.zeros(27, dtype=complex)
    prod[0] = 1.0
    assert tm.srv(prod) == (1, 1, 1)
    # Bell pair on (B, C), product on D: SRV (2, 2, 1)
    bell = np.zeros((3, 3, 3), dtype=complex)
    bell[0, 0, 0] = bell[1, 1, 0] = 1 / np.sqrt(2)
    assert tm.srv(bell.reshape(27)) == (2, 2, 1)


def splits(vec) -> list[np.ndarray]:
    """The 3 x 9 matrices of the B|CD, C|BD and D|BC splits."""
    t = np.asarray(vec, dtype=complex).reshape(3, 3, 3)
    return [np.moveaxis(t, p, 0).reshape(3, 9) for p in range(3)]


def svd_rank_vector(vec) -> tuple[int, int, int]:
    """The Schmidt rank vector as LAPACK's SVD gives it, with the rule's threshold."""
    return tuple(int(np.sum(np.linalg.svd(m, compute_uv=False) > tm.SCHMIDT_RANK_EPS)) for m in splits(vec))


def assert_rank_rule_matches_svd(vec: np.ndarray, expected: tuple[int, int, int] | None = None) -> None:
    want = svd_rank_vector(vec)
    assert tm.srv(vec) == want
    assert expected is None or want == expected


def normalized(vec: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(vec)
    assume(norm > 1e-100)  # a norm that underflows leaves nothing to normalize
    return vec / norm


kets = st.lists(st.complex_numbers(max_magnitude=1.0), min_size=3, max_size=3)


@settings(max_examples=200, deadline=None)
@given(kets, kets, kets)
def test_rank_rule_matches_svd_on_product_states(b, c, d):
    assert_rank_rule_matches_svd(normalized(np.einsum("i,j,k->ijk", b, c, d).ravel()), (1, 1, 1))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2))
def test_rank_rule_matches_svd_on_lower_rank_states(seed, party):
    for vec in random_lower_srv_states(10, seed, deficient_party=party):
        assert_rank_rule_matches_svd(vec)
        assert tm.srv(vec)[party] == 2


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.sampled_from([-1e-3, 1e-3]))
def test_rank_rule_matches_svd_at_the_threshold(seed, party, offset):
    """A split whose third Schmidt coefficient is 1e-7 (1 +- 1e-3), the others
    of order one: rank 2 below the threshold, rank 3 above it."""
    rng = np.random.default_rng(seed)
    sigma = np.array([rng.uniform(0.3, 1.0), rng.uniform(0.1, 0.5), tm.SCHMIDT_RANK_EPS * (1 + offset)])
    u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    v = np.linalg.qr(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))[0][:3]
    split = np.moveaxis(((u * sigma) @ v).reshape(3, 3, 3), 0, party).ravel()
    assert_rank_rule_matches_svd(split)
    assert tm.srv(split)[party] == (2 if offset < 0 else 3)


def test_witness_bound_values():
    vec, _ = tm.ideal_ghz()
    assert tm.witness_bound(vec) == pytest.approx(2.0 / 3.0, abs=1e-12)
    prod = np.zeros(27, dtype=complex)
    prod[26] = 1.0
    assert tm.witness_bound(prod) == pytest.approx(1.0)
    w_vec, _ = tm.ideal_ghz(tm.NoiseParams.table1().weights)
    assert tm.witness_bound(w_vec) == pytest.approx(0.772, abs=1e-3)
    # |0> x (sqrt(.5)|00> + sqrt(.3)|11> + sqrt(.2)|22>): the bipartition bounds are 1, 0.8 and 0.8, the largest counts
    uneven = np.zeros(27, dtype=complex)
    uneven[[0, 4, 8]] = np.sqrt([0.5, 0.3, 0.2])
    assert tm.witness_bound(uneven) == pytest.approx(1.0)


def test_no_lower_srv_state_beats_the_bound():
    vec, _ = tm.ideal_ghz()
    for party in range(3):
        states = random_lower_srv_states(700, seed=10 + party, deficient_party=party)
        fid = np.abs(states @ vec.conj()) ** 2
        assert fid.max() <= 2.0 / 3.0 + 1e-9


# --- projective decomposition -----------------------------------------------------


def test_projector_count_and_plan_size():
    settings = tm.offdiag_projectors(((0, 0, 0), (1, 1, 1)))
    assert len(settings) == 64
    assert len(tm.WITNESS_ELEMENTS) == 3
    assert len(tm.build_witness_plan()) == 219


def test_projector_weights_are_signed_eighths():
    for setting in tm.offdiag_projectors(((0, 0, 0), (1, 1, 1))):
        w = setting.weight
        assert abs(abs(w) - 0.125) < 1e-12
        assert w.real == 0 or w.imag == 0


def test_reconstruct_balanced_ghz_element():
    _, rho = tm.ideal_ghz()
    val = tm.reconstruct_element(rho, ((0, 0, 0), (1, 1, 1)))
    assert val == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_reconstruct_maximally_mixed_is_zero():
    rho = np.eye(27, dtype=complex) / 27
    for elem in tm.WITNESS_ELEMENTS:
        assert abs(tm.reconstruct_element(rho, elem)) < 1e-12


def test_reconstruct_matches_direct_entries_random():
    rng = np.random.default_rng(99)
    for _ in range(20):
        rho = random_rho(rng)
        for elem in tm.WITNESS_ELEMENTS + (((2, 1, 0), (0, 2, 1)),):
            direct = rho[tm.element_index(elem[0]), tm.element_index(elem[1])]
            assert abs(tm.reconstruct_element(rho, elem) - direct) < 1e-12


def test_reconstruct_coincident_slot():
    rng = np.random.default_rng(3)
    rho = random_rho(rng)
    elem = ((2, 1, 1), (1, 2, 1))
    direct = rho[tm.element_index(elem[0]), tm.element_index(elem[1])]
    assert abs(tm.reconstruct_element(rho, elem) - direct) < 1e-12


def test_noise_model_limits():
    pure = tm.noise_model(tm.NoiseParams(p=1.0, c=1.0, weights=(1.0, 1.0, 1.0)))
    _, ghz = tm.ideal_ghz()
    assert np.allclose(pure, ghz, atol=1e-12)
    white = tm.noise_model(tm.NoiseParams(p=0.0, c=0.5, weights=(1.0, 1.0, 1.0)))
    assert np.allclose(white, np.eye(27) / 27, atol=1e-12)


@pytest.mark.parametrize(
    "weights,message",
    [
        ((0.0, 0.0, 0.0), "cannot be normalized"),
        ((1e200, 1e200, 1e200), "cannot be normalized"),  # the squares overflow
        ((1e-200, 0.0, 0.0), "cannot be normalized"),  # the square underflows
        ((1.0, 1.0), "need three weights"),
        ((1.0, 1.0, 1.0, 1.0), "need three weights"),
        ((1e200, 1e200, 1.0), "cannot be normalized"),
        ((1e-200, 1e-200, 0.0), "cannot be normalized"),
        ((math.nan, 1.0, 1.0), "must be finite: weights[0]=nan"),
        ((1.0, math.inf, 1.0), "must be finite: weights[1]=inf"),
    ],
)
def test_noise_weights_must_be_three_and_normalizable(weights, message):
    # one rule for every taker of GHZ term weights
    records = tm.simulate_counts(tm.ideal_ghz()[1], WITNESS_PLAN, 1652)
    for use in (
        lambda: tm.NoiseParams(0.5, 0.5, weights),
        lambda: tm.ideal_ghz(weights),
        lambda: tm.estimate_fidelity(records, weights, n_resamples=0),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            use()


def test_extreme_normalizable_weights_give_a_density_matrix():
    for scale in (1e-150, 1e150):
        params = tm.NoiseParams(0.9, 0.8, (scale, scale, 0.0))
        tm.check_density_matrix(tm.noise_model(params))


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("c", [0.0, 0.5, 1.0])
def test_noise_model_is_valid_density_matrix(p, c):
    rho = tm.noise_model(tm.NoiseParams(p=p, c=c, weights=tm.NoiseParams.table1().weights))
    tm.check_density_matrix(rho)  # raises on failure


def test_noise_model_coherence_element():
    params = tm.NoiseParams.table1()
    a, b, g = params.weights
    rho = tm.noise_model(params)
    expected = params.p * params.c * a * b / (a * a + b * b + g * g)
    assert rho[tm.element_index((0, 0, 0)), tm.element_index((1, 1, 1))] == pytest.approx(
        expected, abs=1e-12
    )


# --- counting ----------------------------------------------------------------------


def test_expected_counts_recover_exact_fidelity():
    rho = tm.noise_model(tm.NoiseParams.table1())
    plan = tm.build_witness_plan()
    records = tm.simulate_counts(rho, plan, 1e6, sample=False)
    f_est, sigma = tm.estimate_fidelity(records, n_resamples=0)
    vec, _ = tm.ideal_ghz()
    assert abs(f_est - tm.fidelity(rho, vec)) < 1e-9
    assert sigma == 0.0


def test_estimate_invariant_under_count_rescaling():
    rho = tm.noise_model(tm.NoiseParams.table1())
    plan = tm.build_witness_plan()
    records = tm.simulate_counts(rho, plan, 1652, seed=11)
    scaled = tuple(tm.CountRecord(r.descriptors, r.counts * 7.5) for r in records)
    f1, _ = tm.estimate_fidelity(records, n_resamples=0)
    f2, _ = tm.estimate_fidelity(scaled, n_resamples=0)
    assert f1 == pytest.approx(f2, rel=1e-12)


def test_pure_ghz_counts_estimate_unity():
    _, rho = tm.ideal_ghz()
    plan = tm.build_witness_plan()
    records = tm.simulate_counts(rho, plan, 20000, seed=5)
    f_est, _ = tm.estimate_fidelity(records, n_resamples=0)
    assert abs(f_est - 1.0) < 0.05


def test_sigma_band_at_reference_event_count():
    rho = tm.noise_model(tm.NoiseParams.table1())
    plan = tm.build_witness_plan()
    records = tm.simulate_counts(rho, plan, 1652, seed=333)
    f_est, sigma = tm.estimate_fidelity(records, n_resamples=1000, seed=334)
    assert 0.01 <= sigma <= 0.05
    assert 0.5 < f_est < 0.95


def test_simulation_deterministic_per_seed():
    rho = tm.noise_model(tm.NoiseParams.table1())
    plan = tm.build_witness_plan()
    a = tm.simulate_counts(rho, plan, 1652, seed=8)
    b = tm.simulate_counts(rho, plan, 1652, seed=8)
    assert a == b


def test_counts_clip_a_setting_whose_expectation_rounds_below_zero():
    # a pure state orthogonal to one setting: Tr(rho P) is 0 but can round to
    # about -1e-17, and a Poisson draw at a negative rate raises
    plan = tm.build_witness_plan()
    for i, k in ((i, k) for i in range(len(plan)) for k in range(27)):
        v = plan[i].operator_vector()
        psi = np.eye(27)[k] - v.conj()[k] / (v.conj() @ v) * v
        if np.linalg.norm(psi) > 0.5:
            rho = tm.check_density_matrix(np.outer(psi, psi.conj()) / np.linalg.norm(psi) ** 2)
            if plan[i].expectation(rho) < 0:
                break
    else:
        pytest.skip("no setting's expectation rounds below zero with this BLAS")
    records = tm.simulate_counts(rho, plan, 1652, seed=3)
    assert records[i].counts == 0.0
    assert sum(r.counts for r in records) > 0


def test_accidental_subtraction_floors_at_zero():
    rho = tm.noise_model(tm.NoiseParams.table1())
    plan = tm.build_witness_plan()
    records = tm.simulate_counts(rho, plan, 1652, seed=13)
    accidentals = {r.descriptors: 1.0 for r in records}
    f_raw, _ = tm.estimate_fidelity(records, n_resamples=0)
    f_sub, _ = tm.estimate_fidelity(records, n_resamples=0, accidentals=accidentals)
    assert f_sub != f_raw  # subtraction changed the estimate
    zero_floor = {r.descriptors: 1e9 for r in records}
    with pytest.raises(ValueError):
        tm.estimate_fidelity(records, n_resamples=0, accidentals=zero_floor)


def test_count_record_validation():
    with pytest.raises(ValueError):
        tm.CountRecord(("0", "0", "0"), -1.0)


def test_white_noise_estimate_is_one_over_27():
    rho = tm.noise_model(tm.NoiseParams(p=0.0, c=0.5, weights=(1.0, 1.0, 1.0)))
    plan = tm.build_witness_plan()
    records = tm.simulate_counts(rho, plan, 1e6, sample=False)
    f_est, _ = tm.estimate_fidelity(records, n_resamples=0)
    assert f_est == pytest.approx(1.0 / 27.0, abs=1e-9)
    assert f_est < tm.witness_bound(tm.ideal_ghz()[0])  # witness fails


def test_ideal_state_infinite_statistics_passes_witness():
    _, rho = tm.ideal_ghz()
    plan = tm.build_witness_plan()
    records = tm.simulate_counts(rho, plan, 1e6, sample=False)
    f_est, _ = tm.estimate_fidelity(records, n_resamples=0)
    assert f_est == pytest.approx(1.0, abs=1e-9)
    assert f_est > tm.witness_bound(tm.ideal_ghz()[0])


def test_witness_plan_descriptors_unique():
    plan = tm.build_witness_plan()
    descriptors = [s.descriptors() for s in plan]
    assert len(set(descriptors)) == len(descriptors) == 219


# --- the estimator against its per-setting reference ----------------------------


def reference_estimate(counts, weights):
    """The estimator element by element: the diagonal normalized by its total,
    each witness element as the weighted sum over its 64 settings."""
    w = np.asarray(weights, dtype=float)
    w = w / np.linalg.norm(w)
    diag_total = 0.0
    diag = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                c = counts[(str(i), str(j), str(k))]
                diag[i, j, k] = c
                diag_total += c
    if diag_total <= 0:
        raise ValueError("no diagonal counts; cannot normalize")
    f = sum(w[t] ** 2 * diag[t, t, t] for t in range(3)) / diag_total
    for (bra, ket) in tm.WITNESS_ELEMENTS:
        elem = 0j
        for setting in tm.offdiag_projectors((bra, ket)):
            elem += setting.weight * counts[setting.descriptors()] / diag_total
        f += 2.0 * w[bra[0]] * w[ket[0]] * elem.real
    return float(f)


def reference_fidelity(records, weights, n_resamples, seed, accidentals=None):
    """estimate_fidelity with every resample re-evaluated by reference_estimate."""
    observed = {}
    for rec in records:
        value = rec.counts
        if accidentals is not None:
            value = max(value - accidentals.get(rec.descriptors, 0.0), 0.0)
        observed[rec.descriptors] = observed.get(rec.descriptors, 0.0) + value
    keys = sorted(observed)
    lam = np.array([observed[k] for k in keys], dtype=float)
    estimates = []
    for s in range(n_resamples):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([np.uint64(seed), np.uint64(s)], dtype=np.uint64))
        )
        estimates.append(reference_estimate(dict(zip(keys, rng.poisson(lam).astype(float))), weights))
    return reference_estimate(observed, weights), float(np.std(estimates))


def test_estimator_matches_per_setting_reference():
    plan = tm.build_witness_plan()
    rng = np.random.default_rng(21)
    for case in range(6):
        params = tm.NoiseParams(rng.uniform(), rng.uniform(), tuple(rng.uniform(0.1, 1.0, 3)))
        records = tm.simulate_counts(tm.noise_model(params), plan, 500 + 4000 * case, seed=case)
        if case % 3 == 2:  # duplicate descriptors are summed
            records = records + records[::7]
        weights = tuple(rng.uniform(0.1, 1.0, 3))
        accidentals = {r.descriptors: rng.uniform(0.0, 3.0) for r in records} if case % 2 else None
        got = tm.estimate_fidelity(records, weights, n_resamples=30, seed=100 + case, accidentals=accidentals)
        want = reference_fidelity(records, weights, 30, 100 + case, accidentals)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_estimator_reference_values_at_witness_cli_inputs():
    rho = tm.noise_model(tm.NoiseParams.table1())
    records = tm.simulate_counts(rho, tm.build_witness_plan(), 1652, seed=333)
    f_est, sigma = tm.estimate_fidelity(records, seed=334)
    assert (repr(f_est), repr(sigma)) == ("0.7442528735632186", "0.049013199920460465")


def test_estimator_reference_values_at_other_inputs():
    plan = tm.build_witness_plan()
    weights = (0.6, 0.55, 0.5)
    records = tm.simulate_counts(tm.noise_model(tm.NoiseParams(0.9, 0.75, weights)), plan, 5000, seed=7)
    got = tm.estimate_fidelity(records, weights, n_resamples=500, seed=8)
    assert tuple(map(repr, got)) == ("0.7203084292797713", "0.028282677022611898")

    rho = tm.noise_model(tm.NoiseParams.table1())
    records = tm.simulate_counts(rho, plan, 20000, seed=2**40 + 3)
    accidentals = {r.descriptors: 0.5 * (i % 4) for i, r in enumerate(records)}
    got = tm.estimate_fidelity(records, seed=12345, accidentals=accidentals)
    assert tuple(map(repr, got)) == ("0.7818268186753532", "0.01587440702544345")

    records = tm.simulate_counts(rho, plan, 1652, seed=2**64 - 2)
    got = tm.estimate_fidelity(records, seed=2**64 - 1)
    assert tuple(map(repr, got)) == ("0.8159340659340663", "0.06414080550776202")


def test_estimator_repeats_exactly():
    records = tm.simulate_counts(tm.noise_model(tm.NoiseParams.table1()), WITNESS_PLAN, 3000, seed=4)
    first = tm.estimate_fidelity(records, n_resamples=200, seed=9)
    assert tm.estimate_fidelity(records, n_resamples=200, seed=9) == first
    tm.estimate_fidelity(records, n_resamples=37, seed=10)  # leaves no state behind
    assert tm.estimate_fidelity(records, n_resamples=200, seed=9) == first


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, "3", None])
def test_seed_must_be_a_64_bit_int(seed):
    rho = tm.noise_model(tm.NoiseParams.table1())
    with pytest.raises(ValueError, match="seed"):
        tm.simulate_counts(rho, WITNESS_PLAN, 1652, seed=seed)
    records = tm.simulate_counts(rho, WITNESS_PLAN, 1652)
    with pytest.raises(ValueError, match="seed"):
        tm.estimate_fidelity(records, n_resamples=10, seed=seed)


@pytest.mark.parametrize("n_resamples", [-1, 2.0, True, None])
def test_n_resamples_must_be_a_non_negative_int(n_resamples):
    records = tm.simulate_counts(tm.noise_model(tm.NoiseParams.table1()), WITNESS_PLAN, 1652)
    with pytest.raises(ValueError, match="n_resamples"):
        tm.estimate_fidelity(records, n_resamples=n_resamples)


def kron_operator_vector(setting):
    v = setting.kets[0].vector()
    for k in setting.kets[1:]:
        v = np.kron(v, k.vector())
    return v


def test_operator_vectors_equal_the_kron_chain():
    coinciding = tm.offdiag_projectors(((2, 1, 1), (1, 2, 1)))  # aux-q slot
    for setting in tm.build_witness_plan() + coinciding:
        assert np.array_equal(setting.operator_vector(), kron_operator_vector(setting))


def test_expected_counts_equal_a_kron_reference():
    rho = tm.noise_model(tm.NoiseParams.table1())
    probs = []
    for setting in WITNESS_PLAN:
        v = kron_operator_vector(setting)
        probs.append(float(np.real(v.conj() @ rho @ v)))
    probs = np.clip(np.array(probs), 0.0, None)
    lam = 1652 * probs / probs.sum()
    records = tm.simulate_counts(rho, WITNESS_PLAN, 1652, sample=False)
    assert np.array_equal([r.counts for r in records], lam)


def test_estimator_needs_every_plan_setting():
    records = tm.simulate_counts(tm.noise_model(tm.NoiseParams.table1()), tm.build_witness_plan(), 1652)
    with pytest.raises(KeyError):
        tm.estimate_fidelity(records[:-1], n_resamples=0)


WITNESS_PLAN = tm.build_witness_plan()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    p=st.floats(0.0, 1.0),
    c=st.floats(0.0, 1.0),
    state_weights=st.tuples(*[st.floats(0.05, 1.0)] * 3),
    weights=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda w: max(map(abs, w)) > 0.1),
)
def test_unsampled_estimate_is_the_fidelity(p, c, state_weights, weights):
    rho = tm.noise_model(tm.NoiseParams(p, c, state_weights))
    records = tm.simulate_counts(rho, WITNESS_PLAN, 1e4, sample=False)
    f_est, _ = tm.estimate_fidelity(records, weights, n_resamples=0)
    assert f_est == pytest.approx(tm.fidelity(rho, tm.ideal_ghz(weights)[0]), abs=1e-10)


# --- constants built once per process -------------------------------------------


def test_witness_plan_and_projectors_are_built_once_and_read_only():
    plan = tm.build_witness_plan()
    assert tm.build_witness_plan() is plan
    assert tm.build_witness_plan.__wrapped__() == plan
    # the plan holds each witness element's settings, in order, after the 27 computational ones
    assert plan[27:91] == tm.offdiag_projectors(((0, 0, 0), (1, 1, 1)))
    assert plan[27:91] == tm.offdiag_projectors([[0, 0, 0], np.array([1, 1, 1])])
    assert plan[27:] == tuple(s for element in tm.WITNESS_ELEMENTS for s in tm.offdiag_projectors(element))
    for setting in plan:
        v = setting.operator_vector()
        assert setting.operator_vector() is v and setting.descriptors() is setting.descriptors()
        fresh = tm.PlanSetting(setting.kets, setting.weight)
        assert np.array_equal(fresh.operator_vector(), v) and fresh.descriptors() == setting.descriptors()
        with pytest.raises(ValueError, match="read-only"):
            v[0] = 1.0


def test_witness_functionals_are_kept_per_keys_and_weights():
    keys = tuple(sorted(s.descriptors() for s in WITNESS_PLAN))
    pair = tm._witness_functionals(keys, (1.0, 1.0, 1.0))
    assert tm._witness_functionals(keys, (1.0, 1.0, 1.0)) is pair
    assert tm._witness_functionals(keys, (1.0, 2.0, 1.0)) is not pair
    for kept, fresh in zip(pair, tm._witness_functionals.__wrapped__(keys, (1.0, 1.0, 1.0))):
        assert np.array_equal(kept, fresh)
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 0.0
    # weights of any sequence type give the same functionals
    records = tm.simulate_counts(tm.noise_model(tm.NoiseParams.table1()), WITNESS_PLAN, 1652, seed=3)
    weights = (0.685, 0.588, 0.491)
    assert tm.estimate_fidelity(records, np.array(weights), n_resamples=5) == tm.estimate_fidelity(
        records, list(weights), n_resamples=5
    )
