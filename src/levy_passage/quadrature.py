"""Quadrature and root finding for integrals against jump-size tails.

Tail integrands here typically live on several decades of scale and behave
like powers of y times slowly varying factors, so every routine integrates in
the log variable s = ln(y). An interval is split at caller-supplied
breakpoints (kinks or atoms of the tail) and at the quarter-decade grid
points s = k ln(10)/4, and each panel is integrated by a 24-point
Gauss-Legendre rule. Error control compares a panel with the sum over its two
halves and bisects the panels that disagree; each round evaluates the
integrand once, on the array of all its nodes. Many intervals integrate
together, each under its own tolerance.
Roots are bracketed and found by Brent's method.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "float_or_array",
    "tail_values",
    "integrate_tail",
    "integrate_tails",
    "integrate_tail_to_zero",
    "integrate_tail_to_inf",
    "brent_root",
]

_EPSREL = 1e-11
_EPSABS = 1e-14
_PANEL_RTOL = 1e-10     # a panel this small relative to the sum ends it
_HUGE = 1e200
_WIDTH = math.log(10.0) / 4.0     # a quarter decade in s = ln y
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(24)
_ROUNDS = 50            # bisections before a panel is accepted as it is
_FLOOR = 1e-3           # an error this small relative to tol always passes
_CHUNK = 4096           # panels per integrand call, which bounds memory
_BATCH = 4              # decade or doubling panels integrated per call
_SNAP = 1e-9            # an edge this close (in s) to an end splits nothing


def float_or_array(v):
    """v as a Python float when it holds one value, else the array: a tail
    evaluated at a float gives a float, whose arithmetic stays fast in the
    scalar loops downstream."""
    return float(v) if np.ndim(v) == 0 else v


def tail_values(f, x) -> np.ndarray:
    """f at every point of the array x, as a float array of x's shape.

    A callable that takes arrays is called once; one written for floats
    only (it raises TypeError or ValueError on an array) is called per
    point, and a constant return value is broadcast.
    """
    x = np.asarray(x, dtype=float)
    try:
        v = f(x)
    except (TypeError, ValueError):
        v = [float(f(float(t))) for t in x.ravel()]
        return np.array(v, dtype=float).reshape(x.shape)
    if type(v) is np.ndarray and v.shape == x.shape and v.dtype == float:
        return v
    return np.broadcast_to(np.asarray(v, dtype=float), x.shape)


def _panels(a, b, breakpoints):
    """Panels in s = ln y covering each interval (a_i, b_i), split at the
    quarter-decade grid points k * _WIDTH and at the breakpoints inside it.

    Returns the panels' ends (lo, hi) and the interval each belongs to.
    """
    sa, sb = np.log(a), np.log(b)
    edges = {k * _WIDTH for k in range(math.floor(sa.min() / _WIDTH) + 1,
                                        math.ceil(sb.max() / _WIDTH))}
    edges.update(math.log(p) for p in breakpoints if p > 0.0)
    edges = np.array(sorted(edges) + [math.inf])
    first = np.searchsorted(edges, sa + _SNAP, "right")
    count = np.maximum(np.searchsorted(edges, sb - _SNAP) - first, 0) + 1
    owner = np.repeat(np.arange(len(sa)), count)
    j = np.arange(len(owner)) - np.repeat(np.cumsum(count) - count, count)
    k = first[owner] + j
    lo = np.where(j == 0, sa[owner], edges[k - 1])
    hi = np.where(j == count[owner] - 1, sb[owner], edges[k])
    return lo, hi, owner


def _rule(f, lo, hi) -> np.ndarray:
    """Gauss-Legendre value of int f(e^s) e^s ds on each panel (lo, hi)."""
    out = np.empty(len(lo))
    for i in range(0, len(lo), _CHUNK):
        half = 0.5 * (hi[i:i + _CHUNK] - lo[i:i + _CHUNK])
        y = np.exp((lo[i:i + _CHUNK] + half)[:, None] + half[:, None] * _NODES)
        out[i:i + _CHUNK] = half * (tail_values(f, y) * y * _WEIGHTS).sum(1)
    return out


def _integrate(f, a, b, breakpoints) -> np.ndarray:
    with np.errstate(invalid="ignore", over="ignore"):
        return _refine(f, *_panels(a, b, breakpoints), len(a))


def _refine(f, lo, hi, owner, n: int) -> np.ndarray:
    """Error-controlled sums over the panels (lo, hi) of n intervals; panel
    i belongs to interval owner[i].

    A panel passes when its two halves agree with it to within its share
    (by width) of its interval's tolerance max(epsabs, epsrel |integral|),
    or to within a thousandth of that tolerance. A failing panel is
    bisected; the halves' sum is what a passing panel adds.
    """
    total = np.zeros(n)
    share = (hi - lo) / np.bincount(owner, weights=hi - lo,
                                    minlength=n)[owner]
    mid = 0.5 * (lo + hi)
    m = len(lo)
    q = _rule(f, np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi]))
    coarse, halves = q[:m], q[m:]
    for r in range(_ROUNDS):
        fine = halves[:m] + halves[m:]
        est = total + np.bincount(owner, weights=fine, minlength=n)
        tol = np.maximum(_EPSABS, _EPSREL * np.abs(est))[owner] \
            * np.maximum(share, _FLOOR)
        # a nan error (inf - inf) passes: more panels will not mend it
        bisect = np.abs(coarse - fine) > tol
        if r + 1 == _ROUNDS or m > 200 * n or not bisect.any():
            return est
        done = ~bisect
        total += np.bincount(owner[done], weights=fine[done], minlength=n)
        owner = np.tile(owner[bisect], 2)
        share = np.tile(0.5 * share[bisect], 2)
        coarse = halves.reshape(2, m)[:, bisect].ravel()
        lo, mid, hi = lo[bisect], mid[bisect], hi[bisect]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        mid = 0.5 * (lo + hi)
        m = len(lo)
        halves = _rule(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]))


def integrate_tails(f, a, b, breakpoints=()) -> np.ndarray:
    """Integrals of f over every (a_i, b_i), 0 < a_i < b_i < inf, in log
    coordinates and with one call of f per round for all of them."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    if not np.all((0.0 < a) & (a < b) & (b < math.inf)):
        raise ValueError("bad integration range")
    if a.size == 0:
        return np.zeros(a.shape)
    return _integrate(f, a.ravel(), b.ravel(), breakpoints).reshape(a.shape)


def integrate_tail(f, a: float, b: float, breakpoints=()) -> float:
    """Integral of f over (a, b), 0 < a < b < inf, in log coordinates."""
    if not (0.0 < a < b < math.inf):
        raise ValueError(f"bad integration range ({a}, {b})")
    return float(_integrate(f, [a], [b], breakpoints)[0])


def _pieces(f, edges, breakpoints):
    """Integrals of f between consecutive edges, _BATCH intervals a call."""
    edges = np.array(edges)
    for i in range(0, len(edges) - 1, _BATCH):
        j = min(i + _BATCH, len(edges) - 1)
        a, b = edges[i:j], edges[i + 1:j + 1]
        yield from integrate_tails(f, np.minimum(a, b), np.maximum(a, b),
                                   breakpoints).tolist()


def integrate_tail_to_zero(f, b: float, breakpoints=()) -> float:
    """Integral of f over (0, b) assuming convergence at 0.

    Decade panels b*10^-k are accumulated downward until one falls below the
    relative tolerance.
    """
    if not (0.0 < b < math.inf):
        raise ValueError(f"bad upper limit {b}")
    edges = [b]
    for _ in range(80):
        edges.append(edges[-1] / 10.0)
    total = 0.0
    for piece in _pieces(f, edges, breakpoints):
        total += piece
        if abs(piece) <= _PANEL_RTOL * max(abs(total), 1e-300):
            return total
    return total


def integrate_tail_to_inf(f, a: float, breakpoints=()):
    """Integral of f over (a, inf); returns +inf when panels stop decaying.

    Doubling panels [a, 2a], [2a, 4a], ... are summed until one falls below
    the relative tolerance. Three consecutive non-decreasing panels, or any
    overflow, report divergence.
    """
    if not (0.0 < a < math.inf):
        raise ValueError(f"bad lower limit {a}")
    edges = [a]
    for _ in range(200):
        edges.append(edges[-1] * 2.0)
    total = 0.0
    prev = math.inf
    growing = 0
    for piece in _pieces(f, edges, breakpoints):
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
    return math.inf


def brent_root(f, a: float, b: float, xtol: float = 2e-12,
               rtol: float = 4.0 * np.finfo(float).eps,
               maxiter: int = 100) -> float:
    """Root of f between a and b, where f changes sign, by Brent's method.

    Secant or inverse quadratic steps are taken while they shrink the
    bracket fast enough, bisection steps otherwise, until the bracket is
    narrower than xtol + rtol |root| (Brent 1973, chapter 4).
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError(f"no sign change of f between {a!r} and {b!r}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if math.copysign(1.0, fpre) != math.copysign(1.0, fcur) \
                and fpre != 0.0 and fcur != 0.0:
            xblk, fblk = xpre, fpre      # xblk: the far end of the bracket
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        interpolate = abs(spre) > delta and abs(fcur) < abs(fpre)
        if interpolate:
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            interpolate = 2.0 * abs(stry) < min(abs(spre),
                                                3.0 * abs(sbis) - delta)
        spre, scur = (scur, stry) if interpolate else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise ValueError(f"root finder did not converge in {maxiter} steps")
