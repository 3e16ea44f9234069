"""Quadrature helpers for integrals against jump-size tail functions.

Tail integrands here typically live on several decades of scale and behave
like powers of y times slowly varying factors, so every routine integrates in
the log variable s = ln(y). Panels are split at caller-supplied breakpoints
(kinks or atoms of the tail) and at decade boundaries near the endpoints so
the adaptive Gauss-Kronrod rule never straddles a non-smooth point.
"""

from __future__ import annotations

import math

from scipy.integrate import quad

__all__ = [
    "integrate_tail",
    "integrate_tail_to_zero",
    "integrate_tail_to_inf",
]

_EPSREL = 1e-11
_PANEL_RTOL = 1e-10     # a panel this small relative to the sum ends it
_HUGE = 1e200


def _panels(a: float, b: float, breakpoints) -> list[tuple[float, float]]:
    """Split (a, b) at any interior breakpoints, returned as panel pairs."""
    pts = [a]
    for p in sorted(set(breakpoints)):
        if a < p < b:
            pts.append(p)
    pts.append(b)
    return [(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]


def integrate_tail(f, a: float, b: float, breakpoints=()) -> float:
    """Integral of f over (a, b), 0 < a < b < inf, in log coordinates."""
    if not (0.0 < a < b < math.inf):
        raise ValueError(f"bad integration range ({a}, {b})")
    total = 0.0
    for lo, hi in _panels(a, b, breakpoints):
        val, _ = quad(
            lambda s: f(math.exp(s)) * math.exp(s),
            math.log(lo),
            math.log(hi),
            epsabs=1e-14,
            epsrel=_EPSREL,
            limit=200,
        )
        total += val
    return total


def integrate_tail_to_zero(f, b: float, breakpoints=()) -> float:
    """Integral of f over (0, b) assuming convergence at 0.

    Decade panels b*10^-k are accumulated downward until one falls below the
    relative tolerance.
    """
    if not (0.0 < b < math.inf):
        raise ValueError(f"bad upper limit {b}")
    total = 0.0
    hi = b
    for _ in range(80):
        lo = hi / 10.0
        piece = integrate_tail(f, lo, hi, breakpoints)
        total += piece
        if abs(piece) <= _PANEL_RTOL * max(abs(total), 1e-300):
            return total
        hi = lo
    return total


def integrate_tail_to_inf(f, a: float, breakpoints=()):
    """Integral of f over (a, inf); returns +inf when panels stop decaying.

    Doubling panels [a, 2a], [2a, 4a], ... are summed until one falls below
    the relative tolerance. Three consecutive non-decreasing panels, or any
    overflow, report divergence.
    """
    if not (0.0 < a < math.inf):
        raise ValueError(f"bad lower limit {a}")
    total = 0.0
    lo = a
    prev = math.inf
    growing = 0
    for _ in range(200):
        hi = lo * 2.0
        piece = integrate_tail(f, lo, hi, breakpoints)
        total += piece
        if abs(total) > _HUGE or not math.isfinite(total):
            return math.inf
        if abs(piece) <= _PANEL_RTOL * max(abs(total), 1e-300):
            return total
        if abs(piece) >= prev:
            growing += 1
            if growing >= 3:
                return math.inf
        else:
            growing = 0
        prev = abs(piece)
        lo = hi
    return math.inf
