"""Validation shared by the dataclass input boundaries, and the noise
parameters that both ``tomography`` and the numpy-free ``mermin`` command
read."""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Sequence


def _finite(value: complex) -> bool:
    try:
        return cmath.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def require_finite(what: str, **fields: complex) -> None:
    """Raise ValueError naming each real or complex field that is NaN, infinite
    or an int too large for a float."""
    bad = [f"{name}={value}" for name, value in fields.items() if not _finite(value)]
    if bad:
        raise ValueError(f"{what} must be finite: {', '.join(bad)}")


def _check_weights(what: str, weights: Sequence[complex]) -> None:
    """Raise ValueError unless ``weights`` are three finite GHZ term weights
    whose sum of squared moduli is a normal float, so that they normalize."""
    require_finite(what, **{f"weights[{i}]": w for i, w in enumerate(weights)})
    if len(weights) != 3:
        raise ValueError(f"need three weights, got {len(weights)}")
    squares = sum(z.real * z.real + z.imag * z.imag for z in map(complex, weights))
    if not sys.float_info.min <= squares < math.inf:
        raise ValueError(f"weights cannot be normalized: sum of squares {squares}")


@dataclass(frozen=True)
class NoiseParams:
    """Quality parameters of the produced state, as
    :func:`ghz3d.tomography.noise_model` uses them.

    ``p``: white-noise mixing weight of the GHZ projector; ``c``: scale factor
    of its off-diagonal part; ``weights``: GHZ term amplitudes.  These are not
    the measured GHZ-term population and normalised coherence (``table1()``
    gives 0.8916 and 0.802-0.806), but a state built from that reading has
    the same Mermin expectation, since the Mermin operator has no diagonal.
    """

    p: float
    c: float
    weights: tuple[float, float, float]

    def __post_init__(self) -> None:
        require_finite("noise parameters", p=self.p, c=self.c)
        _check_weights("noise parameters", self.weights)
        outside = [f"{name}={value}" for name, value in (("p", self.p), ("c", self.c)) if not 0.0 <= value <= 1.0]
        if outside:
            raise ValueError(f"p and c must lie in [0, 1]: {', '.join(outside)}")

    @classmethod
    def table1(cls) -> "NoiseParams":
        """Estimated experimental values: p, c and the GHZ term weights."""
        return cls(p=0.878, c=0.817, weights=(0.685, 0.588, 0.491))
