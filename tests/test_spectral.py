"""Spectral model: widths, visibility closed form, quadrature, dip fits."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.hermite import hermgauss

import ghz3d
from ghz3d import spectral as sp
from ghz3d._kernels import p4_sums

SGVM_REF = sp.sigma_gvm(1e-3, 1.6e-9)


def model_with_filter(sigma_f: float) -> sp.SpectralModel:
    base = sp.SpectralModel.reference_defaults()
    return sp.SpectralModel(
        sigma_f=sigma_f,
        sigma_p=base.sigma_p,
        crystal_length=base.crystal_length,
        delta_inv_gv=base.delta_inv_gv,
        lambda_c=base.lambda_c,
    )


# --- widths -------------------------------------------------------------------


def test_sigma_gvm_reference_value():
    assert SGVM_REF == pytest.approx(5.59e11, rel=1e-3)


def test_sigma_gvm_scalings():
    assert sp.sigma_gvm(2e-3, 1.6e-9) == pytest.approx(SGVM_REF / 2, rel=1e-12)
    assert sp.sigma_gvm(1e-3, 1.6e12) == pytest.approx(0.0, abs=1e-9)


def test_bandwidth_wavelength_conversion():
    dl = sp.bandwidth_to_wavelength(5.59e11, 808e-9)
    assert dl == pytest.approx(1.216e-9, rel=2e-3)
    assert sp.bandwidth_to_wavelength(0.0, 808e-9) == 0.0
    assert sp.bandwidth_to_wavelength(2e11, 808e-9) == pytest.approx(
        2 * sp.bandwidth_to_wavelength(1e11, 808e-9), rel=1e-12
    )
    assert sp.wavelength_to_bandwidth(dl, 808e-9) == pytest.approx(5.59e11, rel=1e-12)


def test_gvm_width_corresponds_to_1p2nm():
    dl = sp.bandwidth_to_wavelength(SGVM_REF, 808e-9)
    assert abs(dl - 1.2e-9) / 1.2e-9 < 0.02


# --- closed-form visibility ------------------------------------------------------


def test_visibility_equal_widths_is_sqrt3_over_2():
    assert abs(sp.visibility(1.0, 1.0) - math.sqrt(3) / 2) < 1e-12
    assert abs(sp.visibility(SGVM_REF, SGVM_REF) - 0.866) < 1e-3


def test_visibility_limits():
    assert sp.visibility(1e-9, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert sp.visibility(2.0, 1.0) == pytest.approx(0.6, abs=1e-12)


def test_visibility_monotone_in_filter_width():
    values = [sp.visibility(f, 1.0) for f in np.linspace(0.05, 4.0, 40)]
    assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("sigma_f, sigma_gvm", [(1e200, 1e12), (1e12, 1e200), (1e154, 1.0), (1e-200, 1e-200)])
def test_visibility_of_widths_past_the_float_range_names_both(sigma_f, sigma_gvm):
    with pytest.raises(ValueError, match=re.escape(f"sigma_f={sigma_f}, sigma_gvm={sigma_gvm}")):
        sp.visibility(sigma_f, sigma_gvm)


@settings(max_examples=300, deadline=None)
@given(st.floats(-150.0, 150.0), st.floats(-150.0, 150.0))
def test_visibility_of_in_range_widths_is_the_closed_form_unscaled(log_f, log_g):
    f, g = 10.0**log_f, 10.0**log_g
    assert sp.visibility(f, g) == g * math.sqrt(2 * f**2 + g**2) / (f**2 + g**2)


# --- numeric four-photon probability ----------------------------------------------


@pytest.mark.parametrize("factor", [0.5, 1.0, 2.0])
def test_quadrature_visibility_close_to_gvm_closed_form(factor):
    model = model_with_filter(factor * SGVM_REF)
    v_num = sp.visibility_numeric(model)
    v_closed = sp.visibility(model.sigma_f, model.sigma_gvm)
    assert abs(v_num - v_closed) / v_closed < 0.01


@pytest.mark.parametrize("factor", [0.5, 1.0, 2.0])
def test_quadrature_visibility_exact_against_effective_width(factor):
    # both routes use the same Gaussian JSA once the pump width is folded in
    model = model_with_filter(factor * SGVM_REF)
    v_num = sp.visibility_numeric(model, order=48)
    v_closed = sp.visibility(model.sigma_f, model.sigma_s)
    assert abs(v_num - v_closed) < 1e-9


def test_p4_even_in_delay():
    model = sp.SpectralModel.reference_defaults()
    for dt in (0.4e-12, 1.3e-12):
        assert sp.p4_numeric(model, dt) == pytest.approx(
            sp.p4_numeric(model, -dt), rel=1e-12
        )


def test_p4_approaches_constant_at_large_delay():
    model = sp.SpectralModel.reference_defaults()
    limit = sp.p4_limit(model)
    far = sp.p4_numeric(model, 60e-12, order=96)
    assert abs(far - limit) / limit < 1e-3


def test_p4_dip_shape_is_gaussian():
    # the Gaussian JSA makes the dip exactly Gaussian in the delay
    model = sp.SpectralModel.reference_defaults()
    limit = sp.p4_limit(model)
    dts = np.linspace(-3e-12, 3e-12, 13)
    depth = np.array([1.0 - sp.p4_numeric(model, dt) / limit for dt in dts])
    logd = np.log(depth / depth[6])
    quad = np.polyfit(dts, logd, 2)
    reconstructed = np.polyval(quad, dts)
    assert np.max(np.abs(reconstructed - logd)) < 1e-6


def test_p4_convergence_guard():
    model = model_with_filter(2.0 * SGVM_REF)
    with pytest.raises(sp.QuadratureNotConverged):
        sp.p4_numeric(model, 0.0, order=4)


def test_p4_scan_samples_the_jsa_once_per_order():
    model = sp.SpectralModel.reference_defaults()
    delays = np.linspace(-2e-12, 2e-12, 7)
    sp._nodes.cache_clear()
    values = [sp.p4_numeric(model, dt) for dt in delays]
    info = sp._nodes.cache_info()
    assert (info.misses, info.hits) == (2, 2 * len(delays) - 2)
    # bit-identical to sampling the nodes afresh for every delay
    omega, weights, phi = sp._nodes.__wrapped__(model, sp.DEFAULT_QUAD_ORDER)
    for dt, value in zip(delays, values):
        i2, cross = p4_sums(weights, phi, np.exp(-1j * omega * dt))
        assert value == 2.0 * i2**2 - 2.0 * cross
    for a in sp._nodes(model, sp.DEFAULT_QUAD_ORDER):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_hermite_nodes_cached_and_read_only():
    x, w, exp_x2 = sp._hermite(24)
    assert sp._hermite(24)[0] is x
    ref_x, ref_w = hermgauss(24)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    assert np.array_equal(exp_x2, np.exp(ref_x**2))
    for a in (x, w, exp_x2):
        with pytest.raises(ValueError):
            a[0] = 0.0


NO_SCIPY = """
import importlib, pkgutil, sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is not installed")
        return None


sys.meta_path.insert(0, NoScipy())
import ghz3d

for info in pkgutil.iter_modules(ghz3d.__path__):
    importlib.import_module(f"ghz3d.{info.name}")
from ghz3d import spectral

spectral.p4_numeric(spectral.SpectralModel.reference_defaults(), 0.5e-12)
truth = spectral.DipModel(baseline=7.0, visibility=0.834, width=800e-6, center=35e-6)
spectral.fit_dip(spectral.dip_curve(truth, [k * 1e-4 for k in range(-25, 26)]))
"""


def test_package_runs_without_scipy():
    # every module imports, and the P4 quadrature and the dip fit run, while
    # any import of scipy fails
    env = dict(os.environ, PYTHONPATH=str(Path(ghz3d.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", NO_SCIPY], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_cli_import_leaves_scipy_unloaded():
    # only fit_dip needs scipy, and no subcommand calls it
    env = dict(os.environ, PYTHONPATH=str(Path(ghz3d.__file__).parents[1]))
    code = "import sys, ghz3d.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# --- dip model and fitting ----------------------------------------------------------


def test_dip_curve_examples():
    dip = sp.DipModel(baseline=100.0, visibility=0.834, width=800e-6, center=0.0)
    rows = dict(sp.dip_curve(dip, [0.0, 1.0]))
    assert rows[0.0] == pytest.approx(100.0 * (1 - 0.834), rel=1e-12)
    assert rows[1.0] == pytest.approx(100.0, rel=1e-9)


def test_fit_round_trip_reference_parameters():
    truth = sp.DipModel(baseline=7.0, visibility=0.834, width=800e-6, center=35e-6)
    xs = np.linspace(-2.5e-3, 2.5e-3, 61)
    fitted = sp.fit_dip(sp.dip_curve(truth, xs))
    assert fitted.baseline == pytest.approx(truth.baseline, rel=1e-6)
    assert fitted.visibility == pytest.approx(truth.visibility, rel=1e-6)
    assert fitted.width == pytest.approx(truth.width, rel=1e-6)
    assert fitted.center == pytest.approx(truth.center, abs=truth.width * 1e-6)


def test_fit_flat_data_gives_zero_visibility():
    xs = np.linspace(-1e-3, 1e-3, 21)
    fitted = sp.fit_dip([(float(x), 50.0) for x in xs])
    assert fitted.visibility == pytest.approx(0.0, abs=1e-3)


def test_fit_poisson_noise_recovers_visibility():
    truth = sp.DipModel(baseline=100.0, visibility=0.834, width=800e-6, center=0.0)
    xs = np.linspace(-2.5e-3, 2.5e-3, 41)
    rng = np.random.default_rng(20180404)
    clean = np.array([r for _, r in sp.dip_curve(truth, xs)])
    noisy = rng.poisson(clean).astype(float)
    fitted = sp.fit_dip(list(zip(xs, noisy)))
    assert abs(fitted.visibility - truth.visibility) < 0.05


def test_fit_needs_enough_samples():
    with pytest.raises(ValueError):
        sp.fit_dip([(0.0, 1.0)] * 4)


DIP_XS = np.linspace(-1e-3, 1e-3, 21)


@pytest.mark.parametrize(
    "samples,message",
    [
        ([(float(x), 50.0) for x in DIP_XS[:-1]] + [(math.nan, 50.0)], "must be finite"),
        ([(float(x), 50.0) for x in DIP_XS[:-1]] + [(1e-3, math.inf)], "must be finite"),
        ([(0.0, float(r)) for r in range(10)], "span=0.0"),
        ([(float(x), 50.0) for x in DIP_XS[:-1]] + [(1e-3, -1.0)], "min rate=-1.0"),
    ],
    ids=["nan-position", "inf-rate", "zero-span", "negative-rate"],
)
def test_fit_rejects_samples_outside_its_domain(samples, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        sp.fit_dip(samples)


# Results of the earlier fit (scipy.optimize.curve_fit, trust-region
# reflective, default tolerances) on Poisson-noised dips over 41 positions in
# [-2.5e-3, 2.5e-3]: (truth, numpy seed, fitted baseline, visibility, width,
# center).  Both fits stop at the same least-squares minimum.
SCIPY_FITS = [
    ((100.0, 0.834, 800e-6, 0.0), 20180404,
     (104.78669248302172, 0.8515469529916486, 0.0008482642668583767, 1.209721707596504e-05)),
    ((100.0, 0.834, 800e-6, 0.0), 17,
     (100.75868164807424, 0.8302597928635903, 0.0008051799940996565, 1.233375353429598e-05)),
    ((400.0, 0.7, 500e-6, 600e-6), 5,
     (403.0689203668201, 0.7027181511883597, 0.0005175981220367844, 0.000595309313123793)),
    ((2000.0, 0.9, 480e-6, -900e-6), 4244,
     (2007.235872911302, 0.900014678571074, 0.0004803884594789791, -0.0009043425043715286)),
]


@pytest.mark.parametrize("truth,seed,expected", SCIPY_FITS)
def test_fit_matches_pinned_least_squares_minimum(truth, seed, expected):
    xs = np.linspace(-2.5e-3, 2.5e-3, 41)
    clean = sp.DipModel(*truth).rate(xs)
    noisy = np.random.default_rng(seed).poisson(clean).astype(float)
    fitted = sp.fit_dip(list(zip(xs, noisy)))
    baseline, vis, width, center = expected
    assert fitted.baseline == pytest.approx(baseline, rel=1e-5)
    assert fitted.visibility == pytest.approx(vis, rel=1e-5)
    assert fitted.width == pytest.approx(width, rel=1e-5)
    # a center near 0 is pinned on the scale of the width
    assert fitted.center == pytest.approx(center, rel=1e-5, abs=1e-5 * width)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    baseline=st.floats(1e-2, 1e5),
    vis=st.floats(0.1, 1.0),
    width_frac=st.floats(1 / 20, 1 / 3),
    center_frac=st.floats(-1 / 4, 1 / 4),
    span=st.floats(1e-6, 1e2),
    n=st.integers(21, 81),
)
def test_fit_round_trips_noiseless_dips(baseline, vis, width_frac, center_frac, span, n):
    truth = sp.DipModel(baseline=baseline, visibility=vis, width=width_frac * span, center=center_frac * span)
    fitted = sp.fit_dip(sp.dip_curve(truth, np.linspace(-span / 2, span / 2, n)))
    assert fitted.baseline == pytest.approx(truth.baseline, rel=1e-6)
    assert fitted.visibility == pytest.approx(truth.visibility, rel=1e-6)
    assert fitted.width == pytest.approx(truth.width, rel=1e-6)
    assert fitted.center == pytest.approx(truth.center, abs=truth.width * 1e-6)


def test_dip_baseline_may_be_zero_but_not_negative():
    with pytest.raises(ValueError, match="baseline must not be negative: -1.0"):
        sp.DipModel(baseline=-1.0, visibility=0.5, width=1.0, center=0.0)
    flat = sp.DipModel(baseline=0.0, visibility=0.5, width=1.0, center=0.0)
    assert [rate for _, rate in sp.dip_curve(flat, [-1.0, 0.0, 1.0])] == [0.0, 0.0, 0.0]


def test_invalid_model_parameters_rejected():
    with pytest.raises(ValueError):
        sp.DipModel(baseline=1.0, visibility=1.5, width=1.0, center=0.0)
    with pytest.raises(ValueError):
        sp.SpectralModel(sigma_f=-1.0, sigma_p=1.0, crystal_length=1.0, delta_inv_gv=1.0, lambda_c=1.0)
    with pytest.raises(ValueError):
        sp.sigma_gvm(-1e-3, 1.6e-9)
