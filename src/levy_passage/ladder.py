"""Bivariate ladder exponents, renewal functions, and the transform identity.

kappa(a, b) is the Laplace exponent of the bivariate ladder process (inverse
local time at the maximum, ladder height). It is defined only up to the
local-time normalization, so cross-backend comparisons are restricted to
normalization-invariant functionals: ratios of kappa values, the killing
rate, and products like EL1_inv * V_H(u).

Normalizations used here:

* spectrally negative closed form: kappa(a, b) = Phi(a) + b, with Phi the
  right inverse of the cumulant. This fixes kappa(a, 0) = Phi(a).
* drift-minus-unit-Poisson closed form: local time is occupation time at
  the maximum, giving kappa(a, b) = a + d*b + (1 - E exp(-a tau_1)) for
  slope d, where tau_1 is the passage time over 1. The transform of tau_1
  is estimated once by Monte Carlo and cached behind a lock.
* empirical backend: record-indexed ladder epochs from simulated paths.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .cramer import solve_lundberg
from .models import Family, LevyModel, ModelError, cumulant, process_mean
from .quadrature import brent_root
from .rng import stream, substream
from .simulate import SimConfig, extract_ladder, prepare, simulate_passage

__all__ = [
    "Backend",
    "LadderExponent",
    "RenewalFunction",
    "kappa_spectrally_negative",
    "sn_exponent",
    "kappa_drift_minus_poisson",
    "dmp_exponent",
    "empirical_exponent",
    "exponent_for",
    "verify_lt_identity",
    "lt_lattice",
    "renewal_estimate",
    "tau1_transform_cache",
]


class Backend(Enum):
    SPECTRALLY_NEGATIVE = "SpectrallyNegativeClosedForm"
    DRIFT_MINUS_POISSON = "DriftMinusPoissonClosedForm"
    EMPIRICAL = "EmpiricalMC"


@dataclass
class LadderExponent:
    """kappa evaluator with its drift coefficients and killing rate.

    q = kappa(0, 0) is zero exactly when the maximum is unbounded. d_L_inv
    and d_H are the drifts of the two ladder subordinators in this
    backend's normalization.
    """

    backend: Backend
    q: float
    d_L_inv: float
    d_H: float
    eval: Callable[[float, float], float]

    def __call__(self, a: float, b: float) -> float:
        return self.eval(a, b)


# ---------------------------------------------------------------------------
# spectrally negative closed form


def _require_spectrally_negative(model: LevyModel) -> None:
    if model.measure.has_positive_jumps():
        raise ModelError("closed-form Phi needs a model without positive jumps")
    if model.sigma2 == 0.0 and model.is_bv() and model.drift_bv() <= 0.0:
        raise ModelError("the negative of a subordinator never passes upward")


def _phi(model: LevyModel, a: float, phi0: float) -> float:
    """Right inverse of the cumulant at a >= 0, from the largest zero up."""
    if a < 0.0:
        raise ValueError("transform argument must be nonnegative")
    psi = lambda v: cumulant(model, v) - a
    if a == 0.0:
        return phi0
    lo = phi0
    hi = max(2.0 * phi0, 1e-3)
    for _ in range(300):
        if cumulant(model, hi) >= a:
            break
        lo = hi
        hi *= 2.0
    else:
        raise ModelError(
            f"could not bracket the inverse cumulant at a={a:g}; "
            f"last probe nu={hi:g}")
    return brent_root(psi, lo, hi, rtol=1e-13, xtol=1e-300)


def kappa_spectrally_negative(model: LevyModel, a: float, b: float) -> float:
    """kappa(a, b) = Phi(a) + b for spectrally negative models."""
    return sn_exponent(model)(a, b)


def sn_exponent(model: LevyModel) -> LadderExponent:
    """Closed-form ladder exponent under the Phi normalization."""
    _require_spectrally_negative(model)
    # the largest zero of the cumulant, 0 unless the mean is negative
    phi0 = solve_lundberg(model) if process_mean(model) < 0.0 else 0.0
    if model.sigma2 == 0.0 and model.is_bv():
        d_l_inv = 1.0 / model.drift_bv()   # Phi(a) ~ a/drift for large a
    else:
        d_l_inv = 0.0

    def _eval(a: float, b: float, _m=model, _p0=phi0) -> float:
        if b < 0.0:
            raise ValueError("transform argument must be nonnegative")
        return _phi(_m, a, _p0) + b

    return LadderExponent(backend=Backend.SPECTRALLY_NEGATIVE, q=phi0,
                          d_L_inv=d_l_inv, d_H=1.0, eval=_eval)


# ---------------------------------------------------------------------------
# drift-minus-unit-Poisson closed form


class _Tau1Cache:
    """Monte Carlo samples of the passage time over 1 for slope a > 1.

    The construction is round-based: the climb to level 1 takes 1/a; every
    unit jump landing during an accounted stretch adds 1/a more climb, and
    the rounds stop when a stretch sees no jumps. Initialization happens at
    most once behind a lock; afterwards reads are lock-free.
    """

    def __init__(self, a_param: float):
        if not a_param > 1.0:
            raise ModelError("the unit-Poisson family needs slope > 1")
        self.a_param = a_param
        self._samples: Optional[np.ndarray] = None
        self._lock = threading.Lock()
        self._memo: dict = {}

    @property
    def samples(self) -> np.ndarray:
        if self._samples is None:
            with self._lock:
                if self._samples is None:
                    self._samples = self._draw()
        return self._samples

    def _draw(self) -> np.ndarray:
        rng = substream(_TAU1_SEED, 427001)
        a = self.a_param
        ext = np.full(_TAU1_N, 1.0 / a)
        tau = ext.copy()
        idx = np.arange(_TAU1_N)
        while idx.size:
            k = rng.poisson(ext[idx])
            add = k / a
            tau[idx] += add
            ext[idx] = add
            idx = idx[k > 0]
        return tau

    def laplace(self, a: float) -> float:
        """E exp(-a tau_1)."""
        key = float(a)
        got = self._memo.get(key)
        if got is None:
            got = float(np.mean(np.exp(-a * self.samples)))
            self._memo[key] = got
        return got

    @property
    def mean_tau1(self) -> float:
        return float(np.mean(self.samples))


_TAU1_N = 1_000_000        # samples of tau_1 per slope
_TAU1_SEED = 20231
_TAU1_CACHES: dict = {}
_TAU1_LOCK = threading.Lock()


def tau1_transform_cache(a_param: float) -> _Tau1Cache:
    key = float(a_param)
    with _TAU1_LOCK:
        cache = _TAU1_CACHES.get(key)
        if cache is None:
            cache = _Tau1Cache(key)
            _TAU1_CACHES[key] = cache
    return cache


def kappa_drift_minus_poisson(a_param: float, a: float, b: float) -> float:
    """kappa(a, b) = a + slope*b + (1 - E exp(-a tau_1)), occupation norm."""
    if a < 0.0 or b < 0.0:
        raise ValueError("transform arguments must be nonnegative")
    cache = tau1_transform_cache(a_param)
    return a + a_param * b + (1.0 - cache.laplace(a))


def dmp_exponent(a_param: float) -> LadderExponent:
    return LadderExponent(backend=Backend.DRIFT_MINUS_POISSON, q=0.0,
                          d_L_inv=1.0, d_H=a_param,
                          eval=partial(kappa_drift_minus_poisson, a_param))


# ---------------------------------------------------------------------------
# empirical backend


def empirical_exponent(model: LevyModel, cfg: Optional[SimConfig] = None,
                       n_paths: int = 200,
                       seed: Optional[int] = None) -> LadderExponent:
    """Record-indexed ladder exponent from simulated paths.

    One epoch per strict new-maximum record; defective mass comes from
    paths whose maximum stopped growing before the horizon. Only
    normalization-invariant functionals of the result are meaningful.
    """
    prepared = prepare(model, cfg)
    seed = prepared.cfg.seed if seed is None else seed
    dts = []
    dhs = []
    killed = 0
    for r in range(n_paths):
        sample = extract_ladder(prepared, rng=stream(seed, 0, r))
        for dt, dh in sample.epochs:
            dts.append(dt)
            dhs.append(dh)
        if sample.killed:
            killed += 1
    dts_a = np.asarray(dts)
    dhs_a = np.asarray(dhs)
    denom = len(dts_a) + killed
    if denom == 0:
        raise ModelError("no ladder epochs observed before the horizon")
    q = -math.log(len(dts_a) / denom) if killed else 0.0

    def _eval(a: float, b: float) -> float:
        if a < 0.0 or b < 0.0:
            raise ValueError("transform arguments must be nonnegative")
        m = float(np.sum(np.exp(-a * dts_a - b * dhs_a))) / denom
        return -math.log(m)

    return LadderExponent(backend=Backend.EMPIRICAL, q=q, d_L_inv=0.0,
                          d_H=0.0, eval=_eval)


def exponent_for(model: LevyModel, allow_empirical: bool = False,
                 cfg: Optional[SimConfig] = None) -> LadderExponent:
    """Pick the natural closed-form backend, or the empirical fallback."""
    if model.family == Family.DRIFT_MINUS_POISSON:
        return dmp_exponent(float(model.params["a"]))
    if not model.measure.has_positive_jumps():
        try:
            return sn_exponent(model)
        except ModelError:
            pass
    if allow_empirical:
        return empirical_exponent(model, cfg)
    raise ModelError(
        "no closed-form ladder exponent for this model; enable the "
        "empirical backend explicitly if its normalization caveats are "
        "acceptable")


# ---------------------------------------------------------------------------
# transform identity


def verify_lt_identity(model: LevyModel, kappa: LadderExponent, mu: float,
                       rho: float = 0.0, lam: float = 0.0, nu: float = 0.0,
                       theta: float = 0.0, n: int = 10_000,
                       seed: Optional[int] = None,
                       cfg: Optional[SimConfig] = None) -> dict:
    """Monte Carlo check of the passage-functional transform identity.

    The left side integrates the passage functional over an Exp(mu) level
    drawn per replication, removing level-grid discretization entirely:

        LHS = (1/mu) E[ exp(-rho ov - lam us - nu G - theta (tau - G))
                        1{ruined} ],  U ~ Exp(mu)
        RHS = (kappa(theta, mu+lam) - kappa(theta, rho))
              / ((mu + lam - rho) kappa(nu, mu))

    Returns {lhs, se, rhs, z, params}.
    """
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    if min(rho, lam, nu, theta) < 0.0:
        raise ValueError("transform parameters must be nonnegative")
    if mu + lam == rho:
        raise ValueError("the identity needs mu + lam != rho")
    prepared = prepare(model, cfg)
    seed = prepared.cfg.seed if seed is None else seed
    vals = np.zeros(n)
    inv_mu = 1.0 / mu
    for r in range(n):
        rng = stream(seed, 0, r)
        u = rng.exponential(inv_mu)
        if u <= 0.0:
            u = np.nextafter(0.0, 1.0)
        rec = simulate_passage(prepared, u, rng)
        if rec.ruined:
            ex = (-rho * rec.overshoot - lam * rec.undershoot
                  - nu * rec.g_last_max - theta * (rec.tau - rec.g_last_max))
            vals[r] = math.exp(ex) * inv_mu
    lhs = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(n))
    rhs = (kappa(theta, mu + lam) - kappa(theta, rho)) \
        / ((mu + lam - rho) * kappa(nu, mu))
    if se > 0.0:
        z = (lhs - rhs) / se
    else:
        # a zero-variance estimator is exact; the closed-form side still
        # carries roundoff from cancelling kappa differences, so compare
        # up to float precision rather than bitwise
        scale = max(1.0, abs(lhs), abs(float(rhs)))
        z = 0.0 if abs(lhs - float(rhs)) <= 1e-12 * scale else math.inf
    return {
        "lhs": lhs, "se": se, "rhs": float(rhs), "z": float(z),
        "params": {"mu": mu, "rho": rho, "lam": lam, "nu": nu,
                   "theta": theta, "n": n, "seed": seed},
    }


def lt_lattice() -> list:
    """The (mu, rho, lam, nu, theta) test lattice.

    Every point respects mu + lam != rho; rho and lam exercise only the
    kappa algebra on creeping models (their overshoot and undershoot
    vanish), while nu and theta probe the simulated time functionals.
    """
    combos = [
        (0.0, 0.0, 0.0, 0.0),
        (2.0, 0.0, 0.0, 0.5),
        (0.0, 1.0, 0.5, 0.0),
        (3.0, 0.0, 1.0, 1.0),
        (0.0, 0.5, 0.0, 2.0),
        (0.5, 0.5, 1.0, 0.5),
    ]
    return [(mu, rho, lam, nu, theta)
            for mu in (0.5, 1.0)
            for (rho, lam, nu, theta) in combos]


# ---------------------------------------------------------------------------
# renewal function estimation


@dataclass
class RenewalFunction:
    """Empirical renewal function of the ladder height process.

    For creeping bounded-variation models local time is occupation time at
    the maximum and is measured exactly as climbed height over the drift;
    otherwise epochs are counted per record index. In either case the
    product EL1_inv * eval(u) estimates the expected passage time, which is
    normalization-invariant.
    """

    grid: np.ndarray
    values: np.ndarray
    value_se: np.ndarray
    EH1: float
    EL1_inv: float
    EL1_inv_se: float
    normalization: str
    n_paths: int
    eval: Callable[[float], float] = field(init=False)

    def __post_init__(self):
        g = self.grid
        v = self.values

        def _eval(u: float) -> float:
            if u <= g[0]:
                return float(v[0] * u / g[0]) if g[0] > 0 else float(v[0])
            return float(np.interp(u, g, v))

        self.eval = _eval

    def exit_time(self, u: float) -> float:
        return self.EL1_inv * self.eval(u)


def renewal_estimate(model: LevyModel, cfg: Optional[SimConfig],
                     u_grid: Sequence[float], n_paths: int = 400,
                     seed: Optional[int] = None) -> RenewalFunction:
    """Renewal-count estimate of V_H over a level grid.

    Needs a model drifting to +inf so the ladder is proper. The horizon
    must let paths climb beyond the largest grid level; short horizons
    truncate V_H from below and raise an error when detected.
    """
    if model.hooks.drifts_to is not None and model.hooks.drifts_to != 1:
        raise ModelError(
            "the ladder is defective unless the model drifts to +inf")
    u_grid = np.asarray(u_grid, dtype=float)
    if len(u_grid) == 0 or np.any(u_grid <= 0.0) or \
            np.any(np.diff(u_grid) <= 0.0):
        raise ValueError("u_grid must be nonempty, positive, increasing")
    prepared = prepare(model, cfg)
    seed = prepared.cfg.seed if seed is None else seed
    creep = (model.sigma2 == 0.0 and model.is_bv()
             and model.drift_bv() > 0.0
             and not model.measure.has_positive_jumps())
    d = model.drift_bv() if creep else math.nan

    per_path = np.empty((n_paths, len(u_grid)))
    tot_t = np.empty(n_paths)
    tot_l = np.empty(n_paths)
    tot_h = np.empty(n_paths)
    short = 0
    for r in range(n_paths):
        sample = extract_ladder(prepared, rng=stream(seed, 0, r))
        if not sample.epochs:
            raise ModelError("no ladder epochs observed before the horizon")
        arr = np.asarray(sample.epochs)
        dts, dhs = arr[:, 0], arr[:, 1]
        cum = np.cumsum(dhs)
        if cum[-1] <= u_grid[-1]:
            short += 1
        if creep:
            # local time below u: full climbs below plus the partial climb
            below = np.minimum(cum[:, None], u_grid[None, :])
            prev = np.concatenate(([0.0], cum[:-1]))
            seg = np.clip(below - prev[:, None], 0.0, None)
            per_path[r] = seg.sum(axis=0) / d
            tot_l[r] = cum[-1] / d
        else:
            # epochs starting at or below u, including the crossing epoch
            starts = np.concatenate(([0.0], cum[:-1]))
            per_path[r] = (starts[:, None] <= u_grid[None, :]).sum(axis=0)
            tot_l[r] = len(dts)
        tot_t[r] = dts.sum()
        tot_h[r] = cum[-1]
    if short > 0.01 * n_paths:
        raise ModelError(
            f"{short}/{n_paths} ladder walks ended below the top grid "
            "level; the horizon is too short for this grid")
    values = per_path.mean(axis=0)
    value_se = per_path.std(axis=0, ddof=1) / math.sqrt(n_paths)
    # ratio estimators with delta-method standard errors
    el1 = tot_t.sum() / tot_l.sum()
    resid = tot_t - el1 * tot_l
    el1_se = math.sqrt(np.sum(resid ** 2) / (n_paths - 1) / n_paths) \
        / np.mean(tot_l)
    eh1 = float(tot_h.sum() / tot_l.sum())
    return RenewalFunction(
        grid=u_grid, values=values, value_se=value_se, EH1=eh1,
        EL1_inv=float(el1), EL1_inv_se=float(el1_se),
        normalization="occupation" if creep else "record-index",
        n_paths=n_paths)
