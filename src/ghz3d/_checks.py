"""Validation shared by the dataclass input boundaries."""

from __future__ import annotations

import cmath


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
