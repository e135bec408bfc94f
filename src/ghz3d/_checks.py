"""Validation shared by the dataclass input boundaries."""

from __future__ import annotations

import cmath


def require_finite(what: str, **fields: complex) -> None:
    """Raise ValueError naming each real or complex field that is NaN or infinite."""
    bad = [f"{name}={value}" for name, value in fields.items() if not cmath.isfinite(value)]
    if bad:
        raise ValueError(f"{what} must be finite: {', '.join(bad)}")
