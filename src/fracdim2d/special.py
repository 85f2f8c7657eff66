"""The normalising constant of the fractional operators, in log space: 1/Gamma(order)
on every axis, whatever its weight, in the coordinate u of ``fracint._power_map``.
``math.lgamma`` makes a large order underflow it toward zero instead of overflowing Gamma."""

from __future__ import annotations

import math

__all__ = ["log_normaliser"]


def log_normaliser(order: float) -> float:
    """log(1 / Gamma(order)) for order > 0."""
    return -math.lgamma(order)
