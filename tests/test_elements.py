"""Optical element factories: conventions, unitarity, projections."""

import math
import re

import numpy as np
import pytest

from ghz3d.elements import (
    DISTINCT_TAGS,
    ELLS,
    RUN_TAGS,
    ElementSpec,
    NotUnitary,
    Projector1,
    SorterConvention,
    beam_splitter,
    build_element,
    local_unitary,
    mirror,
    parity_sorter,
    project,
    relabel,
    spp_reflect,
)
from ghz3d.states import ModeLabel, PhotonicState, UnsupportedMode, apply

OMEGA = np.exp(2j * np.pi / 3)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: mirror("A"),
        lambda: spp_reflect("A"),
        lambda: beam_splitter("A", "B"),
        lambda: parity_sorter("B", "C"),
        lambda: parity_sorter("B", "C", SorterConvention(odd_swaps=False)),
        lambda: parity_sorter("B", "C", SorterConvention(swap_phase=-1.0)),
        lambda: local_unitary("A", np.eye(3), (0, 1, -1)),
        lambda: relabel("B", {2: (0, 1.0), 3: (1, 1.0), -1: (2, 1.0)}),
    ],
)
def test_factories_return_unitary_maps(factory):
    m = factory()
    assert m.unitary
    assert m.check_unitary()


def test_mirror_involution():
    m = mirror("A")
    s = PhotonicState.single(ModeLabel("A", 1))
    assert apply(m, apply(m, s)) == s
    assert apply(mirror("A"), PhotonicState.single(ModeLabel("A", 0))) == PhotonicState.single(
        ModeLabel("A", 0)
    )
    assert apply(mirror("A"), s) == PhotonicState.single(ModeLabel("A", -1))


def test_spp_reflect_involution_on_support():
    # involution wherever image and preimage both sit inside the support
    m = spp_reflect("A")
    for ell in range(-1, 4):
        s = PhotonicState.single(ModeLabel("A", ell))
        assert apply(m, apply(m, s)) == s


def test_beam_splitter_single_photon_split():
    out = apply(beam_splitter("A", "B"), PhotonicState.single(ModeLabel("A", 1)))
    pa = abs(out.amplitude((ModeLabel("A", 1),))) ** 2
    pb = abs(out.amplitude((ModeLabel("B", 1),))) ** 2
    assert abs(pa - 0.5) < 1e-12 and abs(pb - 0.5) < 1e-12


def test_sorter_routing_and_parity():
    m = parity_sorter("B", "C")
    assert apply(m, PhotonicState.single(ModeLabel("B", 0))) == PhotonicState.single(
        ModeLabel("B", 0)
    )
    assert apply(m, PhotonicState.single(ModeLabel("C", -1))) == PhotonicState.single(
        ModeLabel("B", -1)
    )
    assert apply(m, PhotonicState.single(ModeLabel("B", -1))) == PhotonicState.single(
        ModeLabel("C", -1)
    )


@pytest.mark.parametrize("odd_swaps", [True, False])
@pytest.mark.parametrize("phase", [1.0, -1.0])
def test_sorter_twice_is_identity_and_preserves_ell(odd_swaps, phase):
    conv = SorterConvention(odd_swaps=odd_swaps, swap_phase=phase)
    m = parity_sorter("B", "C", conv)
    for ell in range(-3, 4):
        for path in ("B", "C"):
            s = PhotonicState.single(ModeLabel(path, ell))
            out = apply(m, s)
            (term,) = out.terms
            assert term.occupation[0].oam == ell  # sorter never changes OAM
            assert apply(m, out).amplitude((ModeLabel(path, ell),)) == pytest.approx(
                phase**2 if ((ell % 2 == 1) == odd_swaps) else 1.0
            )


def test_local_unitary_fourier_column():
    f = np.array([[OMEGA ** (j * k) for k in range(3)] for j in range(3)]) / np.sqrt(3)
    m = local_unitary("A", f, (0, 1, 2))
    out = apply(m, PhotonicState.single(ModeLabel("A", 0)))
    for ell in range(3):
        assert abs(abs(out.amplitude((ModeLabel("A", ell),))) ** 2 - 1.0 / 3.0) < 1e-12


def test_local_unitary_diagonalizes_shift():
    # eigenbasis rotation of the cyclic shift: columns are its eigenvectors
    shift = np.zeros((3, 3), dtype=complex)
    for t in range(3):
        shift[(t + 1) % 3, t] = 1.0
    eigvals, eigvecs = np.linalg.eig(shift)
    m = local_unitary("A", eigvecs, (0, 1, 2))
    # applying shift after the rotation equals rotating the scaled basis state
    for k in range(3):
        basis = PhotonicState.single(ModeLabel("A", k))
        rotated = apply(m, basis)
        shifted = apply(local_unitary("A", shift, (0, 1, 2)), rotated)
        expected = rotated.scale(eigvals[k])
        for term in expected.terms:
            assert shifted.amplitude(term.occupation) == pytest.approx(term.amplitude)


def test_local_unitary_rejects_nonunitary():
    with pytest.raises(NotUnitary):
        local_unitary("A", np.ones((3, 3)), (0, 1, 2))
    # off by 5e-11: u†u misses the identity by 1e-10, beyond the 1e-12 that
    # LinearMap.check_unitary allows
    with pytest.raises(NotUnitary, match="matrix fails unitarity check"):
        local_unitary("A", np.diag([1.0 + 5e-11, 1.0, 1.0]), (0, 1, 2))


@pytest.mark.parametrize(
    "matrix",
    [
        [1, 0, 0, 0, 1, 0, 0, 0, 1],  # flat
        [[1, 0, 0], [0, 1], [0, 0, 1]],  # ragged
        [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]],  # [re, im] entries
        np.eye(3)[..., None] * [1, 0],  # the same as an array
    ],
    ids=["flat", "ragged", "3x3x2", "3x3x2-array"],
)
def test_local_unitary_rejects_a_matrix_of_the_wrong_shape(matrix):
    with pytest.raises(ValueError, match="matrix shape must match basis length"):
        local_unitary("A", matrix, (0, 1, 2))


@pytest.mark.parametrize("phase", [2.0, 0.5j, 0.0, 1.0 + 1e-9])
def test_sorter_convention_rejects_non_unimodular_phase(phase):
    with pytest.raises(ValueError, match="swap_phase must be unimodular"):
        SorterConvention(swap_phase=phase)
    with pytest.raises(ValueError, match="swap_phase must be unimodular"):
        build_element(ElementSpec("PARITY_SORTER", ("B", "C"), {"swap_phase": phase}))


@pytest.mark.parametrize("ket", [{}, {0: 0.0}, {0: 0.0, -1: 0j}])
def test_projector_rejects_zero_ket(ket):
    with pytest.raises(ValueError, match="projector ket on path A is zero"):
        Projector1.of("A", ket)


def test_project_examples():
    plus = Projector1.of("A", {0: 1.0, -1: 1.0})
    in_plus = PhotonicState(
        {(ModeLabel("A", 0),): 1.0, (ModeLabel("A", -1),): 1.0}
    ).normalize()
    state, prob = project(plus, in_plus)
    assert abs(prob - 1.0) < 1e-12
    orth = PhotonicState.single(ModeLabel("A", 1))
    _, prob_orth = project(plus, orth)
    assert prob_orth == 0.0


def test_project_idempotent():
    plus = Projector1.of("A", {0: 1.0, -1: 1.0})
    s = PhotonicState(
        {(ModeLabel("A", 0), ModeLabel("B", 1)): 0.8, (ModeLabel("A", 1), ModeLabel("B", 0)): 0.6}
    )
    once, p_once = project(plus, s)
    twice, p_twice = project(plus, once)
    assert once == twice
    assert abs(p_twice - 1.0) < 1e-12


def test_element_spec_validation():
    with pytest.raises(ValueError):
        ElementSpec("BEAM_SPLITTER", ("A",))
    with pytest.raises(ValueError):
        ElementSpec("NOT_A_KIND", ("A",))
    with pytest.raises(ValueError):
        ElementSpec("MIRROR", ())
    with pytest.raises(ValueError, match="paths must be strings"):
        ElementSpec("BEAM_SPLITTER", ("A", 1))


def test_element_spec_rejects_nested_nonfinite_params():
    matrix = np.eye(3, dtype=complex)
    matrix[2, 0] = complex(0.0, math.inf)
    with pytest.raises(ValueError, match=r"matrix\[2\]\[0\]=infj"):
        ElementSpec("LOCAL_UNITARY", ("B",), {"matrix": matrix, "basis": (0, 1, -1)})
    with pytest.raises(ValueError, match=r"mapping\[1\]\[1\]\[0\]=nan"):
        ElementSpec("RELABEL", ("B",), {"mapping": {1: (-1, [math.nan, 0.0])}})


def test_build_element_rejects_non_integral_relabel_key():
    # JSON keys are strings, which the CLI tests cover; a library caller can pass a float
    with pytest.raises(ValueError, match=re.escape("mapping key 1.5")):
        build_element(ElementSpec("RELABEL", ("Z",), {"mapping": {1.5: (2, 1.0)}}))


def test_build_element_reads_integral_oam_values_as_ints():
    m = build_element(ElementSpec("LOCAL_UNITARY", ("B",), {"matrix": np.eye(3), "basis": (0.0, 1.0, -1.0)}))
    modes = [mode for src, image in m.entries.items() for mode in (src, *(dst for dst, _ in image))]
    assert {type(mode.oam) for mode in modes} == {int}


def test_built_in_element_maps_are_built_once_and_read_only():
    specs = [
        ElementSpec("MIRROR", ("C",)),
        ElementSpec("SPP_REFLECT", ("A",)),
        ElementSpec("BEAM_SPLITTER", ("A", "B")),
        ElementSpec("PARITY_SORTER", ("B", "C"), {"odd_swaps": False, "swap_phase": -1.0}),
    ]
    for spec in specs:
        m = build_element(spec)
        assert build_element(ElementSpec(spec.kind, list(spec.paths), dict(spec.params))) is m
        with pytest.raises(TypeError):
            m.entries[ModeLabel(spec.paths[0], 0, 0)] = ()
    shear = ElementSpec("LOCAL_UNITARY", ("B",), {"matrix": np.eye(3), "basis": (0, 1, -1)})
    relabeling = ElementSpec("RELABEL", ("B",), {"mapping": {2: (0, 1.0)}})
    for spec in (shear, relabeling):
        assert build_element(spec) is not build_element(spec)



# --- element maps act on their own paths only ---------------------------------

COVERAGE_SPECS = [
    ElementSpec("MIRROR", ("C",)),
    ElementSpec("SPP_REFLECT", ("A",)),
    ElementSpec("BEAM_SPLITTER", ("A", "B")),
    *(
        ElementSpec("PARITY_SORTER", ("B", "C"), {"odd_swaps": odd, "swap_phase": phase})
        for odd in (True, False)
        for phase in (1.0, -1.0)
    ),
    ElementSpec("LOCAL_UNITARY", ("B",), {"matrix": np.eye(3)[[1, 2, 0]], "basis": (0, 1, -1)}),
    ElementSpec("RELABEL", ("Z",), {"mapping": {"1": [2, 1]}}),
    ElementSpec("RELABEL", ("B",), {"mapping": {"2": [0, 1], "3": [1, 1], "-1": [2, 1]}}),
    ElementSpec("RELABEL", ("B",), {"mapping": {"-5": [5, 1], "5": [-5, -1]}}),
]


# the photons' tags in the equal-tag run, in the distinct-tag run and in both
@pytest.mark.parametrize("tags", [(0,), DISTINCT_TAGS, RUN_TAGS])
@pytest.mark.parametrize("spec", COVERAGE_SPECS, ids=lambda spec: spec.kind)
def test_element_maps_cover_the_window_on_their_own_paths(spec, tags):
    m = build_element(spec)
    assert m.paths == set(spec.paths)
    covered = set(m.entries) | {dst for image in m.entries.values() for dst, _ in image}
    assert {mode.tag for mode in covered} == set(RUN_TAGS)
    window = {ModeLabel(p, ell, t) for p in spec.paths for ell in ELLS for t in tags}
    # the one exception: the reflection + SPP's images of l = -5 and -4 are 7 and 6
    gaps = {-5, -4} if spec.kind == "SPP_REFLECT" else set()
    assert window - covered == {ModeLabel(p, ell, t) for p in spec.paths for ell in gaps for t in tags}


FOURIER_MATRIX = [[OMEGA ** (j * k) / math.sqrt(3) for k in range(3)] for j in range(3)]
FOURIER = ElementSpec("LOCAL_UNITARY", ("D",), {"matrix": FOURIER_MATRIX, "basis": (0, 1, -1)})


@pytest.mark.parametrize("spec", [*COVERAGE_SPECS, FOURIER], ids=lambda spec: spec.kind)
def test_every_factory_map_treats_every_tag_alike(spec):
    # the invariant one expansion for both runs, and the retagged fold, rest on
    m = build_element(spec)
    support = {t: {(mode.path, mode.oam) for mode in m.entries if mode.tag == t} for t in RUN_TAGS}
    assert support[0] and all(modes == support[0] for modes in support.values())
    for mode, image in m.entries.items():
        tag0 = m.entries[ModeLabel(mode.path, mode.oam, 0)]
        assert repr(image) == repr(tuple((ModeLabel(dst.path, dst.oam, mode.tag), c) for dst, c in tag0))


def test_relabel_is_the_identity_off_its_keys_and_targets():
    m = build_element(ElementSpec("RELABEL", ("Z",), {"mapping": {"1": [2, 1]}}))
    z = {ell: PhotonicState.single(ModeLabel("Z", ell)) for ell in (0, 1, 2)}
    assert apply(m, z[0]) == z[0]
    assert apply(m, z[1]) == z[2]
    with pytest.raises(UnsupportedMode):  # a target that is not a key
        apply(m, z[2])
    assert m.unitary and m.check_unitary()


@pytest.mark.parametrize("ell", [-5, -4])
def test_spp_reflect_rejects_the_values_whose_image_leaves_the_window(ell):
    m = spp_reflect("A")
    with pytest.raises(UnsupportedMode):
        apply(m, PhotonicState.single(ModeLabel("A", ell)))
    # a photon on another path still passes
    other = PhotonicState.single(ModeLabel("B", ell))
    assert apply(m, other) == other
