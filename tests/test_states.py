"""Photonic state algebra: terms, maps, bosonic statistics, post-selection."""

import cmath
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

import ghz3d.states
from ghz3d.states import (
    ELL_MAX,
    PRUNE_EPS,
    LinearMap,
    ModeLabel,
    NotNormalized,
    PathCollision,
    PhotonicState,
    UnsupportedMode,
    apply,
    extend_identity,
    fidelity_pure,
    fold,
    inner,
    postselect,
    tensor,
)
from ghz3d.elements import (
    ELLS,
    SorterConvention,
    beam_splitter,
    local_unitary,
    mirror,
    parity_sorter,
    spp_reflect,
)

A0 = ModeLabel("A", 0)
A1 = ModeLabel("A", 1)
B1 = ModeLabel("B", 1)


def test_mode_label_ordering_and_equality():
    assert ModeLabel("A", 0, 0) == ModeLabel("A", 0, 0)
    assert ModeLabel("A", 0) != ModeLabel("A", 0, 1)
    assert ModeLabel("A", -1) < ModeLabel("A", 0) < ModeLabel("B", -5)


def test_mode_label_is_its_tuple():
    modes = [ModeLabel(p, ell, t) for p in "AB" for ell in (-1, 0, 1) for t in (0, 1)]
    for m in modes:
        t = (m.path, m.oam, m.tag)
        assert m == t and hash(m) == hash(t)
        assert pickle.loads(pickle.dumps(m)) == m
        for other in modes:
            assert (m < other) == (t < (other.path, other.oam, other.tag))
    assert repr(ModeLabel("A", 4)) == "ModeLabel(path='A', oam=4, tag=0)"
    for name in ("path", "oam", "tag", "spare"):
        with pytest.raises(AttributeError):
            setattr(modes[0], name, 1)


def test_mode_label_ell_max_enforced():
    ModeLabel("A", ELL_MAX)
    with pytest.raises(ValueError):
        ModeLabel("A", ELL_MAX + 1)


def test_terms_merge_regardless_of_insertion_order():
    s1 = PhotonicState({(A0, B1): 0.5, (B1, A0): 0.25})
    s2 = PhotonicState({(B1, A0): 0.75})
    assert s1 == s2
    assert s1.num_terms == 1


def test_exchange_symmetry_random_orders():
    rng = np.random.default_rng(42)
    modes = [ModeLabel("A", 1), ModeLabel("A", 1), ModeLabel("B", -2), ModeLabel("C", 0)]
    states = []
    for _ in range(10):
        perm = rng.permutation(len(modes))
        states.append(PhotonicState({tuple(modes[i] for i in perm): 1.0}))
    assert all(s == states[0] for s in states)


def test_inhomogeneous_photon_number_rejected():
    with pytest.raises(ValueError):
        PhotonicState({(A0,): 1.0, (A0, B1): 1.0})


def test_identity_map_is_identity():
    s = PhotonicState.single(A0)
    m = LinearMap({A0: ((A0, 1.0),)}, unitary=True)
    assert apply(m, s) == s


def test_apply_passes_other_paths_and_raises_on_its_own():
    m = LinearMap({A0: ((A0, 1.0),)})
    assert m.paths == {"A"}
    # a mode on a path the map does not act on passes unchanged
    s = PhotonicState({(A0, B1): 0.6, (A0, ModeLabel("B", -2, 1)): 0.8})
    assert apply(m, s) == s
    # an unsupported mode on the map's own path raises
    for mode in (A1, ModeLabel("A", 0, 1)):
        with pytest.raises(UnsupportedMode):
            apply(m, PhotonicState({(mode, B1): 1.0}))


def test_spp_reflect_examples():
    m = spp_reflect("A")
    assert apply(m, PhotonicState.single(A0)) == PhotonicState.single(ModeLabel("A", 2))
    assert apply(m, PhotonicState.single(A1)) == PhotonicState.single(A1)  # fixed point
    assert apply(m, PhotonicState.single(ModeLabel("A", -1))) == PhotonicState.single(
        ModeLabel("A", 3)
    )


def test_hom_two_identical_photons_cancel():
    bs = beam_splitter("A", "B")
    s = PhotonicState({(A1, B1): 1.0})
    out = apply(bs, s)
    assert out.amplitude((ModeLabel("A", 1), ModeLabel("B", 1))) == 0
    # both photons bunch: |2,0> and |0,2> with monomial coefficient i/2 each
    assert abs(out.amplitude((A1, A1)) - 0.5j) < 1e-12
    # physical (fock) probabilities: |i/2 * sqrt(2)|^2 = 1/2 each
    assert abs(abs(out.fock_amplitude((A1, A1))) ** 2 - 0.5) < 1e-12


def test_hom_distinguishable_photons_coincide_half_the_time():
    bs = beam_splitter("A", "B")
    s = PhotonicState({(ModeLabel("A", 1, 0), ModeLabel("B", 1, 1)): 1.0})
    out = apply(bs, s)
    coincidence = 0.0
    for term in out.terms:
        paths = sorted(m.path for m in term.occupation)
        if paths == ["A", "B"]:
            coincidence += abs(term.amplitude) ** 2
    assert abs(coincidence - 0.5) < 1e-12


def test_tensor_amplitudes_multiply_and_counts():
    s1 = PhotonicState({(A0,): 2.0, (A1,): 1.0, (ModeLabel("A", -1),): 1.0})
    s2 = PhotonicState({(B1,): 3.0, (ModeLabel("B", 0),): 1.0, (ModeLabel("B", 2),): 1.0})
    prod = tensor(s1, s2)
    assert prod.num_terms == 9
    assert prod.amplitude((A0, B1)) == 6.0


def test_tensor_with_vacuum_is_identity():
    s = PhotonicState({(A0, B1): 0.5})
    assert tensor(s, PhotonicState.vacuum()) == s


def test_tensor_path_collision():
    with pytest.raises(PathCollision):
        tensor(PhotonicState.single(A0), PhotonicState.single(A1))


def test_postselect_double_occupancy_discarded():
    s = PhotonicState({(A0, A0): 1.0}).normalize()
    state, prob = postselect(s, {"A"})
    assert prob == 0.0
    assert state.is_zero


def test_postselect_keeps_one_photon_per_path():
    s = PhotonicState({(A0, B1): 0.6, (A0, A1): 0.8})
    state, prob = postselect(s, {"A", "B"})
    assert abs(prob - 0.36) < 1e-12
    assert state.num_terms == 1
    assert abs(state.norm() - 1.0) < 1e-12


def test_fock_amplitude_includes_occupation_factorial():
    s = PhotonicState({(A1, A1, B1): 1.0})
    assert s.amplitude((A1, B1, A1)) == 1.0
    assert abs(s.fock_amplitude((A1, B1, A1)) - math.sqrt(2)) < 1e-12
    assert s.amplitude((A0,) * 3) == 0
    assert s.fock_amplitude((A0,) * 3) == 0


def test_fidelity_identities():
    s = PhotonicState({(A0,): 1.0, (A1,): 1.0}).normalize()
    assert abs(fidelity_pure(s, s) - 1.0) < 1e-12
    t = PhotonicState.single(ModeLabel("A", 2))
    assert fidelity_pure(s.normalize(), t) == 0.0
    with pytest.raises(NotNormalized):
        fidelity_pure(s.scale(2.0), s)


def test_fidelity_product_vs_ghz_is_one_third():
    paths = ("B", "C", "D")
    terms = {}
    for level in range(3):
        terms[tuple(ModeLabel(p, level) for p in paths)] = 1.0
    ghz = PhotonicState(terms).normalize()
    product = PhotonicState({tuple(ModeLabel(p, 0) for p in paths): 1.0})
    assert abs(fidelity_pure(product, ghz) - 1.0 / 3.0) < 1e-12


def test_unitary_apply_preserves_single_photon_norm():
    rng = np.random.default_rng(7)
    for _ in range(20):
        amps = rng.normal(size=3) + 1j * rng.normal(size=3)
        s = PhotonicState(
            {(A0,): amps[0], (A1,): amps[1], (ModeLabel("B", 0),): amps[2]}
        ).normalize()
        m = extend_identity(beam_splitter("A", "B"), set())
        out = apply(m, s)
        assert abs(out.norm() - 1.0) < 1e-12


def test_fold_and_compose_act_on_every_path_of_their_maps():
    # a B photon is on a path the chain acts on but outside the folded support
    a_modes = {ModeLabel("A", ell) for ell in ELLS}
    b1, c1 = PhotonicState.single(B1), PhotonicState.single(ModeLabel("C", 1))
    for m in (fold([mirror("B")], a_modes), fold([mirror("A"), mirror("B")], a_modes)):
        assert m.paths == {"A", "B"} and {mode.path for mode in m.entries} == {"A"}
        with pytest.raises(UnsupportedMode):
            apply(m, b1)
        assert apply(m, c1) == c1  # C is no path of the chain


def test_fold_pushes_a_mode_only_through_maps_on_its_paths(monkeypatch):
    pushes = []
    push = ghz3d.states._push

    def counted(image, m):
        pushes.append(m)
        return push(image, m)

    monkeypatch.setattr(ghz3d.states, "_push", counted)
    sorter, bs, flip = parity_sorter("B", "C"), beam_splitter("A", "B"), mirror("C")
    # A:0 meets the splitter only; C:1 crosses to B at the sorter, then meets
    # the splitter and nothing on C; C:0 stays on C
    folded = fold([sorter, bs, flip], [A0, ModeLabel("C", 1), ModeLabel("C", 0)])
    assert pushes == [bs, sorter, bs, sorter, flip]
    assert folded.entries[ModeLabel("C", 0)] == ((ModeLabel("C", 0), 1.0),)


def test_postselect_invariant_under_internal_unitary():
    # photons occupying detector paths A, B plus an internal path I
    det = {"A", "B"}
    s = PhotonicState(
        {
            (A0, B1): 0.5,
            (A0, ModeLabel("I", 0)): 0.6,
            (ModeLabel("I", 0), ModeLabel("I", 1)): 0.4,
        }
    )
    _, p0 = postselect(s, det)
    internal = beam_splitter("I", "J")  # arbitrary unitary on internal paths
    modes = {ModeLabel(p, ell) for p in "AB" for ell in range(-2, 3)}
    out = apply(extend_identity(internal, modes), s)
    _, p1 = postselect(out, det)
    assert abs(p0 - p1) < 1e-12


def test_inner_product_counts_multiplicity():
    s = PhotonicState({(A1, A1): 1.0})
    assert abs(inner(s, s) - 2.0) < 1e-12  # <0|a a a† a†|0> = 2


def test_nonfinite_amplitude_rejected():
    for bad in (math.nan, math.inf, complex(0.5, math.nan), complex(-math.inf, 0.0)):
        with pytest.raises(ValueError, match="non-finite"):
            PhotonicState({(A0,): 0.5, (A1,): bad})
    # a sum that overflows is not a non-finite term
    PhotonicState({(A0,): 1e308, (A1,): 1e308})


def test_amplitudes_at_or_below_prune_eps_are_dropped():
    s = PhotonicState({(A0,): 1.0, (A1,): PRUNE_EPS, (B1,): 2 * PRUNE_EPS})
    assert s.num_terms == 2
    assert s.amplitude((A1,)) == 0.0
    assert s.amplitude((B1,)) == 2 * PRUNE_EPS
    assert PhotonicState({(A0,): 1j * PRUNE_EPS}).is_zero
    # a map output obeys the same rule: 1.2e-14 splits into two halves of 8.5e-15
    out = apply(beam_splitter("A", "B"), PhotonicState({(A0,): 1.0, (A1,): 1.2 * PRUNE_EPS}))
    assert {t.occupation for t in out.terms} == {(A0,), (ModeLabel("B", 0),)}


def test_operation_outputs_keep_the_constructor_checks():
    # apply, tensor, postselect and scale skip the constructor's sort and merge only
    b0 = ModeLabel("B", 0)
    with pytest.raises(ValueError, match="non-finite"):
        apply(LinearMap({A0: ((A0, 1e200),)}), PhotonicState({(A0,): 1e200}))
    with pytest.raises(ValueError, match="non-finite"):
        PhotonicState.single(A0).scale(math.inf)
    # (A - iB)/sqrt(2) leaves the splitter wholly in A: the B amplitudes cancel
    out = apply(beam_splitter("A", "B"), PhotonicState({(A0,): 1.0, (b0,): -1j}).normalize())
    assert out.modes() == {A0}
    tiny = PhotonicState({(A1,): 1e-8})
    assert tensor(tiny, PhotonicState({(b0,): 1e-7})).is_zero
    assert tensor(tiny, PhotonicState({(b0,): 1e-5})).num_terms == 1
    assert PhotonicState({(A0,): 1.0, (A1,): 1e-3}).scale(1e-12).modes() == {A0}
    selected, p = postselect(PhotonicState({(A0, b0): 1.0, (A1, A1): 1.0}), ("A", "B"))
    assert selected == PhotonicState({(A0, b0): 1.0}) and p == 1.0


def test_tiny_term_with_another_photon_number_still_raises():
    with pytest.raises(ValueError, match="inhomogeneous"):
        PhotonicState({(A0,): 1.0, (A0, B1): PRUNE_EPS / 2})


def test_homogeneity_counts_the_nonzero_terms_only():
    # equal lengths pass without looking at the amplitudes; mixed ones fall
    # back to the rule on nonzero terms, at any magnitude
    with pytest.raises(ValueError, match=re.escape("inhomogeneous photon numbers: [1, 2]")):
        PhotonicState({(A0,): 1.0, (A0, B1): 1e-300})
    with pytest.raises(ValueError, match=re.escape("inhomogeneous photon numbers: [1, 2]")):
        ghz3d.states._checked({(A0,): 1.0, (A0, B1): 1e-300j})
    exact_zero = PhotonicState({(A0,): 1.0, (A0, B1): 0.0})
    assert exact_zero == PhotonicState.single(A0) and exact_zero.num_terms == 1
    assert ghz3d.states._checked({(A0,): 1.0, (A0, B1): 0j, (A1,): 0.5}) == {(A0,): 1.0, (A1,): 0.5}
    for bad in (math.nan, complex(0.0, math.nan)):
        with pytest.raises(ValueError, match=re.escape(f"on occupation {(A0, B1)}")):
            PhotonicState({(A0,): 1.0, (A0, B1): bad})


def test_apply_raises_on_nan_coefficient():
    m = LinearMap({A0: ((A0, math.nan),)})
    with pytest.raises(ValueError, match="non-finite"):
        apply(m, PhotonicState.single(A0))


def test_map_entries_are_read_only():
    for m in (LinearMap({A0: ((A0, 1.0),)}), extend_identity(mirror("A"), {B1})):
        with pytest.raises(TypeError):
            m.entries[A1] = ((A1, 1.0),)
        with pytest.raises(TypeError):
            del m.entries[A0]


# --- unitarity check ----------------------------------------------------------

S2 = 1 / math.sqrt(2)


@pytest.mark.parametrize(
    "entries",
    [
        # two columns onto one mode
        {A0: ((A0, 1.0),), A1: ((A0, 1.0),)},
        # a 50/50 column without its 1/sqrt(2)
        {A0: ((A0, 1.0), (B1, 1.0)), B1: ((A0, S2), (B1, -S2))},
        # two overlapping, non-orthogonal images
        {A0: ((A0, S2), (B1, S2)), B1: ((A0, S2), (B1, 1j * S2))},
        # a supported mode with an empty image
        {A0: ((A0, 1.0),), A1: ()},
    ],
    ids=["shared-image", "unnormalized-5050", "non-orthogonal", "empty-image"],
)
def test_declared_unitary_map_rejected(entries):
    assert not LinearMap(entries).check_unitary()
    with pytest.raises(ValueError, match="unitary"):
        LinearMap(entries, unitary=True)


def test_map_within_tolerance_accepted():
    def perturbed(off):
        return {A0: ((A0, S2 * (1 + off)), (B1, 1j * S2)), B1: ((A0, 1j * S2), (B1, S2))}

    # the column norm squared is off away from 1, a cross term off / 2
    assert ghz3d.states.UNITARY_TOL == 1e-12
    assert LinearMap(perturbed(8e-13), unitary=True).check_unitary()
    assert not LinearMap(perturbed(1.2e-12)).check_unitary()
    with pytest.raises(ValueError, match="unitary"):
        LinearMap(perturbed(1.2e-12), unitary=True)


def brute_force_unitary(entries, tol=1e-12):
    """O(n^2) reference: every column pair's inner product against delta_ij."""
    images = {}
    for src, image in entries.items():
        acc = {}
        for dst, c in image:
            acc[dst] = acc.get(dst, 0.0) + c
        images[src] = acc
    for ci, img_i in images.items():
        for cj, img_j in images.items():
            dot = sum(img_i.get(m, 0.0).conjugate() * c for m, c in img_j.items())
            if abs(dot - (1.0 if ci == cj else 0.0)) > tol:
                return False
    return True


MAP_MODES = [
    ModeLabel(p, ell, t) for p in "AB" for ell in range(-ELL_MAX, ELL_MAX + 1) for t in (0, 1)
]
ANGLES = st.floats(0.0, 2 * math.pi)


@st.composite
def sparse_maps(draw):
    """Phased permutations and 2x2 unitary blocks, some of them perturbed."""
    n = draw(st.integers(1, len(MAP_MODES)))
    srcs = draw(st.permutations(MAP_MODES))[:n]
    dsts = draw(st.permutations(MAP_MODES))[:n]
    entries = {}
    i = 0
    while i < n:
        phase = cmath.exp(1j * draw(ANGLES))
        if i + 1 < n and draw(st.booleans()):
            theta, phi = draw(ANGLES), cmath.exp(1j * draw(ANGLES))
            c, s = math.cos(theta), math.sin(theta)
            a, b = dsts[i], dsts[i + 1]
            entries[srcs[i]] = ((a, c * phase), (b, s * phase))
            entries[srcs[i + 1]] = ((a, -s * phi), (b, c * phi))
            i += 2
        else:
            entries[srcs[i]] = ((dsts[i], phase),)
            i += 1
    k, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    perturbation = draw(st.sampled_from(["none", "scale", "leak", "copy", "drop"]))
    if perturbation == "scale":  # |column|^2 moves by about 2 delta
        delta = draw(st.sampled_from([1e-14, 1e-6, 0.1]))
        entries[srcs[k]] = tuple((m, c * (1 + delta)) for m, c in entries[srcs[k]])
    elif perturbation == "leak":  # extra coefficient onto another column's image
        eps = draw(st.sampled_from([1e-14, 1e-3, 0.5]))
        entries[srcs[k]] = entries[srcs[k]] + ((dsts[j], eps),)
    elif perturbation == "copy" and j != k:
        entries[srcs[k]] = entries[srcs[j]]
    elif perturbation == "drop":
        entries[srcs[k]] = ()
    return entries


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sparse_maps())
def test_check_unitary_matches_brute_force(entries):
    assert LinearMap(entries).check_unitary() == brute_force_unitary(entries)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sparse_maps(), st.sets(st.sampled_from(MAP_MODES + [ModeLabel("C", ell) for ell in ELLS])))
def test_identity_extension_of_a_checked_map_is_unitary(entries, modes):
    # extend_identity trusts the unitary flag of its input instead of checking again
    try:
        m = LinearMap(entries, unitary=True)
    except ValueError:
        reject()
    extended = extend_identity(m, modes)
    assert extended.unitary
    assert extended.check_unitary()


# --- properties of element chains -------------------------------------------------

CHAIN_PATHS = "ABC"
CHAIN_MODES = {ModeLabel(p, ell) for p in CHAIN_PATHS for ell in ELLS}


@st.composite
def elements(draw, scoped=False):
    """One factory-built element on the chain paths, identity-extended over
    them unless ``scoped``."""
    kind = draw(st.sampled_from(["mirror", "spp", "bs", "sorter", "unitary"]))
    p, q = draw(st.permutations(CHAIN_PATHS))[:2]
    if kind == "mirror":
        m = mirror(p)
    elif kind == "spp":
        m = spp_reflect(p)
    elif kind == "bs":
        m = beam_splitter(p, q)
    elif kind == "sorter":
        conv = SorterConvention(draw(st.booleans()), draw(st.sampled_from([1.0, -1.0, 1j])))
        m = parity_sorter(p, q, conv)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        basis = draw(st.permutations(ELLS))[:3]
        m = local_unitary(p, u, basis)
    return m if scoped else extend_identity(m, CHAIN_MODES)


@st.composite
def states(draw, repeated=False):
    """Normalized states of 1-3 photons, modes possibly repeated within a term
    (with ``repeated``, the first term always holds two photons in one mode)."""
    n = draw(st.integers(2 if repeated else 1, 3))
    modes = st.builds(ModeLabel, st.sampled_from(CHAIN_PATHS), st.integers(-2, 2))
    occupations = draw(st.lists(st.lists(modes, min_size=n, max_size=n), min_size=1, max_size=4))
    if repeated:
        occupations[0][1] = occupations[0][0]
    parts = st.floats(-1.0, 1.0)
    terms = {}
    for occ in occupations:
        key = tuple(sorted(occ))
        terms[key] = terms.get(key, 0.0) + complex(draw(parts), draw(parts))
    state = PhotonicState(terms)
    if state.norm() < 1e-3:
        reject()
    return state.normalize()


def assert_states_close(s1, s2, tol=1e-12):
    a1 = {t.occupation: t.amplitude for t in s1.terms}
    a2 = {t.occupation: t.amplitude for t in s2.terms}
    for occ in a1.keys() | a2.keys():
        assert abs(a1.get(occ, 0.0) - a2.get(occ, 0.0)) <= tol


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(states(), st.lists(elements(), min_size=1, max_size=4))
def test_element_chain_preserves_norm(state, chain):
    out = state
    try:
        for m in chain:
            out = apply(m, out)
    except UnsupportedMode:  # the chain left the tracked OAM window
        reject()
    assert abs(out.norm() - 1.0) < 1e-12


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(states(repeated=True), elements(), st.sampled_from([0.5, 1j, -2.0]))
def test_operation_outputs_are_canonical(state, m, factor):
    # apply, tensor, postselect and scale build their output without the
    # constructor's sort and merge: rebuilding it through the constructor changes nothing
    try:
        out = apply(m, state)
    except UnsupportedMode:
        reject()
    paired = tensor(out, PhotonicState.single(ModeLabel("D", 1)))
    for s in (out, paired, postselect(paired, "ABD")[0], out.scale(factor)):
        assert all(occ == tuple(sorted(occ)) for occ in s._terms)
        assert PhotonicState(s._terms) == s


def apply_in_turn(chain, state):
    for m in chain:
        state = apply(m, state)
    return state


def unless_unsupported(f):
    try:
        return f()
    except UnsupportedMode:
        return None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(states(), st.lists(elements(), max_size=5))
def test_fold_is_the_chain_applied_in_turn(state, chain):
    folded = fold(chain, CHAIN_MODES)
    assert folded.unitary
    in_turn = unless_unsupported(lambda: apply_in_turn(chain, state))
    once = unless_unsupported(lambda: apply(folded, state))
    if in_turn is None:
        assert once is None
    if once is not None:
        assert_states_close(once, in_turn)
    # one term: no interference between terms can empty a mode, so the two
    # raise together
    term = PhotonicState({state.terms[0].occupation: 1.0})
    in_turn = unless_unsupported(lambda: apply_in_turn(chain, term))
    once = unless_unsupported(lambda: apply(folded, term))
    assert (in_turn is None) == (once is None)
    if once is not None:
        assert_states_close(once, in_turn)


def test_fold_support_does_not_depend_on_the_state():
    # A+iB at l=4 leaves the splitter wholly in B, so the reflection + SPP on A
    # (unsupported at l=4) never sees a photon in turn; the folded map still
    # leaves A:4 and B:4 out of its support
    a4, b4 = ModeLabel("A", 4), ModeLabel("B", 4)
    chain = [extend_identity(m, CHAIN_MODES) for m in (beam_splitter("A", "B"), spp_reflect("A"))]
    state = PhotonicState({(a4,): 1.0, (b4,): 1j}).normalize()
    assert_states_close(apply_in_turn(chain, state), PhotonicState({(b4,): 1j}))
    folded = fold(chain, CHAIN_MODES)
    assert a4 not in folded.entries and b4 not in folded.entries
    with pytest.raises(UnsupportedMode):
        apply(folded, state)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(elements(scoped=True), max_size=5))
def test_fold_of_element_maps_equals_the_identity_extended_fold(chain):
    scoped = fold(chain, CHAIN_MODES)
    extended = fold([extend_identity(m, CHAIN_MODES) for m in chain], CHAIN_MODES)
    assert all(extended.entries[mode] == image for mode, image in scoped.entries.items())
    # the extension passes the reflection + SPP's l = -5 and -4 unchanged;
    # the element map itself does not take them
    assert set(scoped.entries) <= set(extended.entries)
    if not any(m is spp_reflect(p) for m in chain for p in CHAIN_PATHS):
        assert set(scoped.entries) == set(extended.entries)


def detection(f):
    """What a detection returns, as text that tells apart every bit, signed
    zeros and term order included, or the UnsupportedMode it raises."""
    try:
        state, p = f()
    except UnsupportedMode as exc:
        return "UnsupportedMode", str(exc)
    return repr(list(state._terms.items())), repr(p)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(states(), states(repeated=True)),
    st.lists(elements(scoped=True), max_size=4),
    st.sets(st.sampled_from(CHAIN_PATHS), min_size=1),
)
def test_one_pass_detection_is_postselect_of_apply(state, chain, detector_paths):
    detector_paths = "".join(sorted(detector_paths))
    for m in (fold(chain, CHAIN_MODES), *chain):
        once = detection(lambda: ghz3d.states._detect(m, state, detector_paths))
        assert once == detection(lambda: postselect(apply(m, state), detector_paths))
    # postselect normalizes once, as normalize() would
    selected = {occ: a for occ, a in state._terms.items() if sorted(m.path for m in occ) == list(detector_paths)}
    if selected:
        by_norm = PhotonicState(selected).normalize(), PhotonicState(selected).norm() ** 2
        assert detection(lambda: postselect(state, detector_paths)) == detection(lambda: by_norm)


def test_one_pass_detection_sums_as_apply_does():
    # apply adds each amplitude to the 0.0 it starts from, which turns the
    # -0.0 imaginary part of (1+0j) * (-1-0j) into 0.0
    m = LinearMap({A1: ((A1, complex(-1.0, -0.0)),), B1: ((B1, 1.0),)})
    state = PhotonicState({(A1, B1): 1.0})
    once = detection(lambda: ghz3d.states._detect(m, state, "AB"))
    assert once == detection(lambda: postselect(apply(m, state), "AB")) == (repr([((A1, B1), -1 + 0j)]), "1.0")


def test_one_pass_detection_looks_up_every_mode():
    # the first photon leaves the detector paths, which empties every partial
    # product; the second still meets the map, outside its support
    m = LinearMap({A0: ((ModeLabel("C", 0), 1.0),), A1: ((A1, 1.0),)})
    state = PhotonicState({(A0, ModeLabel("A", 2)): 1.0})
    for detect in (lambda: apply(m, state), lambda: ghz3d.states._detect(m, state, "AB")):
        with pytest.raises(UnsupportedMode, match="ModeLabel\\(path='A', oam=2"):
            detect()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(states(repeated=True))
def test_fock_norm_identities(state):
    norm2 = state.norm() ** 2
    assert abs(inner(state, state) - norm2) < 1e-12
    fock = sum(abs(state.fock_amplitude(t.occupation)) ** 2 for t in state.terms)
    assert abs(fock - norm2) < 1e-12
