"""Every numeric field of the input dataclasses is checked at construction.

Whatever floats are drawn (NaN, +-inf, negatives, valid values), a
constructor either builds an object whose numeric fields are all finite or
raises ValueError.
"""

import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

from ghz3d.counts import DETECTORS, PAIR_KEYS, RateModel
from ghz3d.elements import Projector1
from ghz3d.spectral import DipModel, SpectralModel
from ghz3d.states import ModeLabel
from ghz3d.tomography import CountRecord, NoiseParams

# unbounded floats, the special values, and values that every field
# accepts, so that both branches of every constructor are reached
numbers = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0]),
    st.floats(min_value=0.01, max_value=1.0),
)


def numeric_values(obj):
    for value in vars(obj).values():
        if isinstance(value, float):
            yield value
        elif isinstance(value, tuple):
            yield from (v for v in value if isinstance(v, float))
        elif isinstance(value, dict):
            yield from value.values()


def build_or_reject(cls, *args, **kwargs):
    try:
        obj = cls(*args, **kwargs)
    except ValueError:
        return
    assert all(math.isfinite(v) for v in numeric_values(obj))


SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(numbers, numbers, st.tuples(numbers, numbers, numbers))
def test_noise_params(p, c, weights):
    build_or_reject(NoiseParams, p, c, weights)


@SETTINGS
@given(numbers, numbers, numbers, numbers, numbers)
def test_spectral_model(sigma_f, sigma_p, crystal_length, delta_inv_gv, lambda_c):
    build_or_reject(SpectralModel, sigma_f, sigma_p, crystal_length, delta_inv_gv, lambda_c)


@SETTINGS
@given(numbers, numbers, numbers, numbers)
def test_dip_model(baseline, visibility, width, center):
    build_or_reject(DipModel, baseline, visibility, width, center)


@SETTINGS
@given(
    numbers,
    numbers,
    numbers,
    numbers,
    st.dictionaries(st.sampled_from(DETECTORS), numbers, max_size=2),
    st.dictionaries(st.sampled_from(PAIR_KEYS), numbers, max_size=2),
)
def test_rate_model(rep_rate, tau_int, eta, pair_rate, singles, pairs):
    build_or_reject(RateModel, rep_rate, tau_int, eta, pair_rate, singles, pairs)


@SETTINGS
@given(numbers)
def test_count_record(counts):
    build_or_reject(CountRecord, ("0", "0", "0"), counts)


@SETTINGS
@given(st.dictionaries(st.integers(-2, 2), numbers, max_size=3))
def test_projector(components):
    # the ket a projector holds is finite, whether normalized by of() or given as is
    for build in (lambda: Projector1.of("A", components), lambda: Projector1("A", tuple(components.items()))):
        try:
            proj = build()
        except ValueError:
            continue
        assert all(cmath.isfinite(c) for _, c in proj.ket)


@pytest.mark.parametrize(
    "build,field",
    [
        (lambda: NoiseParams(0.5, 0.5, (1.0, math.inf, 1.0)), "weights[1]=inf"),
        (lambda: SpectralModel(1.0, 1.0, math.nan, 1.0, 1.0), "crystal_length=nan"),
        (lambda: DipModel(1.0, 0.5, 1.0, -math.inf), "center=-inf"),
        (lambda: RateModel(1.0, 1.0, 0.5, pairs={"AB": math.nan}), "pairs[AB]=nan"),
        (lambda: CountRecord(("0", "0", "0"), math.inf), "counts=inf"),
        (lambda: Projector1.of("A", {0: math.nan, 1: 1.0}), "projector ket norm nan"),
        (lambda: Projector1.of("A", {0: math.inf}), "projector ket norm nan"),
        (lambda: ModeLabel("A", math.nan), "=nan exceeds ELL_MAX"),
    ],
)
def test_error_names_the_field(build, field):
    with pytest.raises(ValueError, match=field.replace("[", r"\[").replace("]", r"\]")):
        build()
