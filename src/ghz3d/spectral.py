"""Joint-spectral-amplitude model for the temporal distinguishability of
photon pairs born in separate crystals, and the four-photon dip it predicts.

All spectral widths are 1/e half-widths in ordinary frequency (Hz), i.e. the
sigma of exp(-(w/sigma)^2).  The sinc phase-matching profile is replaced by
a Gaussian of equal FWHM, giving the factorization-scale width

    sigma_gvm = 2 / (sqrt(5) * L * (1/v_pump - 1/v_downconverted)),

and the closed-form interference visibility

    V = sigma_gvm * sqrt(2 sigma_f^2 + sigma_gvm^2) / (sigma_f^2 + sigma_gvm^2).

The numeric route integrates the four-frequency coincidence probability

    P4(dT) = C * Int |phi(w1,w2) phi(w1',w2')
                      - phi(w1',w2) phi(w1,w2') e^{i (w1'-w1) dT}|^2

by Gauss-Hermite quadrature over the same Gaussian JSA.  The pump and
group-velocity-mismatch widths enter through the combined anti-diagonal
width 1/sigma_s^2 = 1/sigma_p^2 + 1/sigma_gvm^2; the closed form above is
the sigma_p -> infinity limit of the same integral.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from ._checks import Frozen, require_finite
from ._kernels import p4_sums

C_LIGHT = 299_792_458.0  # m/s

DEFAULT_QUAD_ORDER = 24


class QuadratureNotConverged(RuntimeError):
    """Doubling the quadrature order moved the result by more than the tolerance."""


class FitDiverged(RuntimeError):
    """Least-squares dip fit failed to converge."""


def sigma_gvm(crystal_length: float, delta_inv_gv: float) -> float:
    """Group-velocity-mismatch width (Hz) of a crystal of given length (m).

    ``delta_inv_gv`` is the inverse-group-velocity difference between the
    pump and the down-converted photons, in s/m.
    """
    if crystal_length <= 0 or delta_inv_gv <= 0:
        raise ValueError("crystal length and group-velocity mismatch must be positive")
    return 2.0 / (math.sqrt(5.0) * crystal_length * delta_inv_gv)


def bandwidth_to_wavelength(delta_nu: float, lambda_c: float) -> float:
    """Convert a frequency bandwidth (Hz) to wavelength units (m) at lambda_c."""
    return lambda_c**2 * delta_nu / C_LIGHT


def wavelength_to_bandwidth(delta_lambda: float, lambda_c: float) -> float:
    """Convert a wavelength bandwidth (m) at lambda_c to frequency units (Hz)."""
    return C_LIGHT * delta_lambda / lambda_c**2


def visibility(sigma_f: float, sigma_gvm_: float) -> float:
    """Closed-form four-photon interference visibility for Gaussian filters.

    Widths whose squares or their sums leave the float range are a ValueError
    naming both; the widths are not rescaled, which would move V's last bit."""
    if sigma_f <= 0 or sigma_gvm_ <= 0:
        raise ValueError("spectral widths must be positive")
    try:
        sf2 = sigma_f**2
        sg2 = sigma_gvm_**2
        v = sigma_gvm_ * math.sqrt(2 * sf2 + sg2) / (sf2 + sg2)
    except ArithmeticError:  # a square past the float range, or two squares underflowing to 0
        v = math.nan
    if not math.isfinite(v):
        raise ValueError(f"spectral widths leave the float range: sigma_f={sigma_f}, sigma_gvm={sigma_gvm_}")
    return v


class SpectralModel(Frozen):
    """Gaussian joint-spectral-amplitude parameters of one pair source."""

    __slots__ = _fields = ("sigma_f", "sigma_p", "crystal_length", "delta_inv_gv", "lambda_c")

    def __init__(
        self,
        sigma_f: float,         # spectral filter width, Hz
        sigma_p: float,         # pump spectral width, Hz
        crystal_length: float,  # m
        delta_inv_gv: float,    # 1/v_pump - 1/v_downconv, s/m
        lambda_c: float,        # downconverted center wavelength, m
    ) -> None:
        fields = dict(zip(self._fields, (sigma_f, sigma_p, crystal_length, delta_inv_gv, lambda_c)))
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        require_finite("spectral model", **fields)
        for name, value in fields.items():
            if value <= 0:
                raise ValueError(f"{name} must be positive: {name}={value}")
        # the widths the model squares and divides by, each with the inputs it derives from
        gvm = ("crystal_length", "delta_inv_gv")
        for width, inputs in (("sigma_f", ("sigma_f",)), ("sigma_gvm", gvm), ("sigma_s", ("sigma_p", *gvm))):
            try:
                in_range = 0.0 < getattr(self, width) ** 2 < math.inf
            except ArithmeticError:  # an overflow, or a division by an underflowed product
                in_range = False
            if not in_range:
                named = ", ".join(f"{name}={getattr(self, name)}" for name in inputs)
                raise ValueError(f"{width} or its square leaves the float range: {named}")

    @classmethod
    def reference_defaults(cls) -> "SpectralModel":
        """Headline configuration: 1 mm ppKTP, 1.2 nm filters at 808 nm, 2 nm pump at 404 nm."""
        return cls(
            sigma_f=wavelength_to_bandwidth(1.2e-9, 808e-9),
            sigma_p=wavelength_to_bandwidth(2e-9, 404e-9),
            crystal_length=1e-3,
            delta_inv_gv=1.6e-9,
            lambda_c=808e-9,
        )

    @property
    def sigma_gvm(self) -> float:
        return sigma_gvm(self.crystal_length, self.delta_inv_gv)

    @property
    def sigma_s(self) -> float:
        """Combined anti-diagonal JSA width: pump and phase matching."""
        return 1.0 / math.sqrt(1.0 / self.sigma_p**2 + 1.0 / self.sigma_gvm**2)

    def jsa(self, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
        """Gaussian joint spectral amplitude at detuning frequencies (Hz)."""
        return np.exp(-((w1**2 + w2**2) / self.sigma_f**2) - ((w1 + w2) ** 2) / self.sigma_s**2)

    def predicted_visibility(self) -> float:
        """Closed form evaluated with the pump width folded in."""
        return visibility(self.sigma_f, self.sigma_s)


@functools.cache
def _hermite(order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only Gauss-Hermite nodes x, weights w and exp(x^2) of one order."""
    from numpy.polynomial.hermite import hermgauss  # here, so a dip curve does not load numpy.polynomial

    x, w = hermgauss(order)
    arrays = (x, w, np.exp(x**2))
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=4)
def _nodes(model: SpectralModel, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only Gauss-Hermite frequencies, effective weights and the JSA
    sampled on them.  Only the phase of a P4 quadrature depends on the delay,
    so a delay scan samples these once per order; the last four are kept."""
    x, w, exp_x2 = _hermite(order)
    # scale so the product-state diagonal decay matches the GH weight
    lam = 1.0 / math.sqrt(2.0 / model.sigma_f**2 + 2.0 / model.sigma_s**2)
    omega = lam * x
    arrays = (omega, lam * w * exp_x2, model.jsa(omega[:, None], omega[None, :]))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _sums(model: SpectralModel, delta_t: float, order: int) -> tuple[float, float]:
    """(I2, cross) of the P4 quadrature at pair delay dT (s)."""
    omega, weights, phi = _nodes(model, order)
    return p4_sums(weights, phi, np.exp(-1j * omega * delta_t))


def _p4_quadrature(model: SpectralModel, delta_t: float, order: int) -> float:
    i2, cross = _sums(model, delta_t, order)
    return 2.0 * (i2**2) - 2.0 * cross


def p4_numeric(
    model: SpectralModel,
    delta_t: float,
    order: int = DEFAULT_QUAD_ORDER,
) -> float:
    """Unnormalized four-fold coincidence probability at pair delay dT (s).

    Deterministic for a fixed quadrature order.  The order is doubled once
    and QuadratureNotConverged raised if the relative change exceeds 1e-6.
    """
    value = _p4_quadrature(model, delta_t, order)
    refined = _p4_quadrature(model, delta_t, 2 * order)
    scale = max(abs(refined), abs(value), 1e-300)
    if abs(refined - value) > 1e-6 * scale:
        raise QuadratureNotConverged(f"order {order} -> {2 * order} changed P4 by more than rtol=1e-06")
    return value


def p4_limit(model: SpectralModel, order: int = DEFAULT_QUAD_ORDER) -> float:
    """Large-delay limit of P4, 2 I2^2: the oscillatory cross term averages out."""
    i2, _ = _sums(model, 0.0, order)
    return 2.0 * i2**2


def visibility_numeric(model: SpectralModel, order: int = DEFAULT_QUAD_ORDER) -> float:
    """(P4(inf) - P4(0)) / P4(inf) = cross(0) / I2^2 from the quadrature route."""
    i2, cross = _sums(model, 0.0, order)
    return cross / i2**2


class DipModel(Frozen):
    """Phenomenological Gaussian dip in the four-fold rate vs delay position.

    ``width`` is the 1/e half-width of the fitted Gaussian in delay-stage
    position units (m).  The 1/e convention is this library's choice and is
    documented rather than universal.  ``baseline`` may be 0 (``fit_dip``
    clips it to >= 0), but not negative, which would give negative rates.
    """

    __slots__ = _fields = ("baseline", "visibility", "width", "center")

    def __init__(self, baseline: float, visibility: float, width: float, center: float) -> None:
        require_finite("dip model", baseline=baseline, visibility=visibility, width=width, center=center)
        if baseline < 0:
            raise ValueError(f"baseline must not be negative: {baseline}")
        if not 0.0 <= visibility <= 1.0:
            raise ValueError("visibility must lie in [0, 1]")
        if width <= 0:
            raise ValueError(f"width must be positive: width={width}")
        object.__setattr__(self, "baseline", baseline)  # counts/s far from the dip
        object.__setattr__(self, "visibility", visibility)
        object.__setattr__(self, "width", width)  # m
        object.__setattr__(self, "center", center)  # m

    def rate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.baseline * (1.0 - self.visibility * np.exp(-(((x - self.center) / self.width) ** 2)))


def dip_curve(dip: DipModel, positions: Sequence[float]) -> tuple[tuple[float, float], ...]:
    """(position, rate) samples of the dip model."""
    xs = np.asarray(positions, dtype=float)
    rates = dip.rate(xs)
    return tuple((float(x), float(r)) for x, r in zip(xs, rates))


#: Levenberg-Marquardt constants of fit_dip, in the scaled units it fits in
_FIT_MAX_STEPS = 300
_FIT_XTOL = 1e-10
_FIT_GTOL = 1e-6
_FIT_MAX_DAMPING = 1e10


def fit_dip(samples: Sequence[tuple[float, float]]) -> DipModel:
    """Least-squares fit of the four dip parameters to (position, rate) data.

    Levenberg-Marquardt with the analytic Jacobian, run on positions scaled
    to (x - min) / span and rates scaled to y / max(y).  The start is
    baseline max(y), visibility 1 - min(y)/max(y) (at least 1e-3), width
    span/6 and center at the lowest sample.

    Bounds: every trial point is clipped to baseline >= 0, visibility in
    [0, 1], width >= 1e-15 and center in [min - span, max + span], and a
    parameter that sits on a bound the descent direction points across is
    held there for that step.  A trial point is accepted when it does not
    raise the squared residual; otherwise the damping grows tenfold.

    Convergence: the fit ends when the residual is orthogonal to each
    Jacobian column of a parameter not held at a bound to within a cosine
    of 1e-6, or when an accepted step moves no scaled parameter by more
    than 1e-10.  FitDiverged is raised when the damping passes 1e10 without
    an accepted point, or after 300 accepted steps; data without a
    resolvable dip, such as a flat few-count scan whose best fit is a spike
    through one sample, can end either way.  Round-trips noiseless
    dip_curve data to 1e-6 relative accuracy.
    """
    if len(samples) < 5:
        raise ValueError("need at least 5 samples spanning the dip")
    xs = np.asarray([s[0] for s in samples], dtype=float)
    ys = np.asarray([s[1] for s in samples], dtype=float)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("dip samples must be finite")
    span = float(np.ptp(xs))
    if not 0.0 < span < math.inf:
        raise ValueError(f"dip sample positions must span a positive, finite range: span={span}")
    if (ys < 0).any():
        raise ValueError(f"dip rates must be non-negative: min rate={ys.min()}")

    x_min = float(xs.min())
    y_max = float(ys.max())
    y_scale = y_max or 1.0
    x = (xs - x_min) / span
    y = ys / y_scale
    vis0 = 1.0 - ys.min() / y_max if y_max > 0 else 0.0
    p = np.array([y_max / y_scale, max(vis0, 1e-3), max(1.0 / 6.0, 1e-12 / span), x[np.argmin(ys)]])
    lo = np.array([0.0, 0.0, 1e-15 / span, -1.0])
    hi = np.array([np.inf, 1.0, np.inf, 2.0])

    def residual(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """y - f(x; p), the Jacobian of f and the squared residual."""
        b, v, w, c = p
        u = (x - c) / w
        e = np.exp(-u * u)
        r = y - b * (1.0 - v * e)
        jac = np.stack([1.0 - v * e, -b * e, -2.0 * b * v * e * u * u / w, -2.0 * b * v * e * u / w], axis=1)
        return r, jac, float(r @ r)

    r, jac, cost = residual(p)
    damping = 1e-3
    for _ in range(_FIT_MAX_STEPS):
        descent = jac.T @ r
        normal = jac.T @ jac
        held = ((p <= lo) & (descent < 0)) | ((p >= hi) & (descent > 0))
        free = np.flatnonzero(~held)
        # the residual is orthogonal to every free column of jac to within GTOL
        if np.all(np.abs(descent[free]) <= _FIT_GTOL * np.sqrt(np.diag(normal)[free] * cost)):
            break
        normal = normal[np.ix_(free, free)]
        # the floor keeps the damped system regular where a column of jac vanishes
        diag = np.diag(np.maximum(np.diag(normal), 1e-30))
        while True:
            step = np.zeros(4)
            step[free] = np.linalg.solve(normal + damping * diag, descent[free])
            trial = np.clip(p + step, lo, hi)
            r_t, jac_t, cost_t = residual(trial)
            if cost_t <= cost:
                break
            damping *= 10.0
            if damping > _FIT_MAX_DAMPING:
                raise FitDiverged(f"no step lowers the squared residual {cost * y_scale**2:.6g}")
        moved = float(np.max(np.abs(trial - p)))
        p, r, jac, cost = trial, r_t, jac_t, cost_t
        damping = max(damping / 10.0, 1e-12)
        if moved <= _FIT_XTOL:
            break
    else:
        raise FitDiverged(f"no convergence in {_FIT_MAX_STEPS} steps")
    return DipModel(
        baseline=float(p[0] * y_scale),
        visibility=float(p[1]),
        width=float(p[2] * span),
        center=float(p[3] * span + x_min),
    )
