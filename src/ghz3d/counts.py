"""Coincidence-rate arithmetic: four-fold prediction from pair rates,
accidental estimation from singles, subtraction, and higher-order bounds.

Unit conventions, fixed here because the source equations leave them open:
singles ``S_i`` and pair counts ``CC_ij`` are counts per integration window
``tau_int``; ``accidental_pair`` returns a rate in coincidences per second
(multiply by ``tau_int`` for counts per window); ``accidental_fourfold`` is
the literal six-term sum of its inputs, so the caller chooses the units of
both maps consistently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ._checks import require_finite

DETECTORS = ("A", "B", "C", "D")
PAIR_KEYS = ("AB", "AC", "AD", "BC", "BD", "CD")

#: the three ways two pair events can fire all four detectors
PAIRINGS = (("AB", "CD"), ("AC", "BD"), ("AD", "BC"))


class MissingPair(KeyError):
    """A required detector pair is absent from an input map."""


@dataclass(frozen=True)
class RateModel:
    """Measured rates of one run: laser, efficiency, singles and pairs."""

    rep_rate: float                      # Hz
    tau_int: float                       # s
    eta: float                           # overall detection efficiency
    pair_rate: float = 0.0               # detected pairs/s in the reference mode
    singles: Mapping[str, float] = field(default_factory=dict)   # counts per tau_int
    pairs: Mapping[str, float] = field(default_factory=dict)     # counts per tau_int

    def __post_init__(self) -> None:
        scalars = {name: getattr(self, name) for name in ("rep_rate", "tau_int", "eta", "pair_rate")}
        counts = {f"{name}[{k}]": v for name in ("singles", "pairs") for k, v in getattr(self, name).items()}
        require_finite("rate model", **scalars, **counts)
        not_positive = [f"{name}={scalars[name]}" for name in ("rep_rate", "tau_int") if scalars[name] <= 0]
        if not_positive:
            raise ValueError(f"rep_rate and tau_int must be positive: {', '.join(not_positive)}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1]: eta={self.eta}")
        if self.pair_rate < 0:
            raise ValueError(f"pair_rate must be non-negative: pair_rate={self.pair_rate}")
        negative = [f"{name}={value}" for name, value in counts.items() if value < 0]
        if negative:
            raise ValueError(f"counts must be non-negative: {', '.join(negative)}")
        object.__setattr__(self, "singles", dict(self.singles))
        object.__setattr__(self, "pairs", dict(self.pairs))


def fourfold_probability(
    p_ab: float, p_cd: float, p_ac: float, p_bd: float, p_ad: float, p_bc: float
) -> float:
    """Probability of a four-fold event from the three pairings of pair events."""
    for p in (p_ab, p_cd, p_ac, p_bd, p_ad, p_bc):
        if not 0.0 <= p <= 1.0:
            raise ValueError("pair probabilities must lie in [0, 1]")
    return p_ab * p_cd + p_ac * p_bd + p_ad * p_bc


def accidental_pair(s_i: float, s_j: float, tau_int: float, rep_rate: float) -> float:
    """Accidental coincidence rate (per second) from uncorrelated singles.

    acc_ij = S_i S_j / (tau_int^2 R) with S in counts per window; multiply
    by tau_int for the expected accidental counts per window.
    """
    if s_i < 0 or s_j < 0:
        raise ValueError("singles must be non-negative")
    if tau_int <= 0 or rep_rate <= 0:
        raise ValueError("tau_int and rep_rate must be positive")
    return s_i * s_j / (tau_int**2 * rep_rate)


def accidental_fourfold(acc: Mapping[str, float], cc: Mapping[str, float]) -> float:
    """Six-term accidental four-fold sum: acc_ab CC_cd + acc_cd CC_ab + ...

    Both maps must carry all six detector pairs; units are the caller's
    (the result is a product of the two input units).
    """
    for key in PAIR_KEYS:
        if key not in acc or key not in cc:
            raise MissingPair(key)
    total = 0.0
    for a, b in PAIRINGS:
        total += acc[a] * cc[b] + acc[b] * cc[a]
    return total


def subtract(observed: float, accidental: float) -> float:
    """Accidental-corrected count, floored at zero (rates are non-negative;
    the floor biases small signals upward, documented trade-off)."""
    if observed < 0 or accidental < 0:
        raise ValueError("counts must be non-negative")
    return max(observed - accidental, 0.0)


def mean_photon_number(pair_rate: float, eta: float, rep_rate: float) -> float:
    """Mean photon pairs per pulse from the detected pair rate.

    Detected pairs/s = R eta^2 mu, hence mu = pair_rate / (eta^2 R).
    """
    if pair_rate < 0:
        raise ValueError("pair_rate must be non-negative")
    if not 0.0 < eta <= 1.0 or rep_rate <= 0:
        raise ValueError("eta in (0,1] and positive rep_rate required")
    return pair_rate / (eta**2 * rep_rate)


def higher_order_ratio(mu: float, eta: float) -> float:
    """Six-photon to four-photon detected-event ratio: 3 mu eta^2.

    Three emission patterns allow a six-photon event to mimic a four-fold,
    giving 3 mu^3 eta^6 / (mu^2 eta^4).
    """
    if mu < 0:
        raise ValueError("mu must be non-negative")
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    return 3.0 * mu * eta**2
