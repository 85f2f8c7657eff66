"""The normalising constant of the fractional operators, in log space.

Each axis of every operator in the package carries the constant
(w+1)^(-order) / Gamma(order), where w is the axis's power weight (0 for
the Riemann-Liouville and Hadamard kernels).  Its logarithm comes from
``math.log1p`` and ``math.lgamma``, so a large order underflows the
constant toward zero instead of overflowing Gamma.
"""

from __future__ import annotations

import math

__all__ = ["log_normaliser"]


def log_normaliser(order: float, weight: float = 0.0) -> float:
    """log((weight+1)^(-order) / Gamma(order)) for order > 0, weight > -1."""
    return -order * math.log1p(weight) - math.lgamma(order)
