"""Bivariate ladder exponents, renewal functions, and the transform identity.

kappa(a, b) is the Laplace exponent of the bivariate ladder process (inverse
local time at the maximum, ladder height). It is defined only up to the
local-time normalization, so cross-backend comparisons are restricted to
normalization-invariant functionals: ratios of kappa values, the killing
rate, and products like EL1_inv * V_H(u).

Normalizations used here, both exact:

* spectrally negative closed form: kappa(a, b) = Phi(a) + b, with Phi the
  right inverse of the cumulant. This fixes kappa(a, 0) = Phi(a).
* drift-minus-unit-Poisson closed form: local time is occupation time at
  the maximum, giving kappa(a, b) = a + d*b + (1 - E exp(-a tau_1)) for
  slope d, where tau_1 is the passage time over 1. With no upward jumps
  E exp(-a tau_1) = exp(-Phi(a)), so kappa(a, b) = d*(Phi(a) + b).

exponent_for refuses every other model with upward jumps. The renewal
function V_H is estimated from event-exact ladder records only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .cramer import solve_lundberg
from .models import (Family, LevyModel, ModelError, cumulant,
                     drift_minus_poisson, process_mean)
from .quadrature import brent_root
from .simulate import (SimConfig, _check_levels, _ladder_batch, _passages,
                       _rows, choose_engine, prepare)

__all__ = [
    "Backend",
    "LadderExponent",
    "RenewalFunction",
    "kappa_spectrally_negative",
    "sn_exponent",
    "kappa_drift_minus_poisson",
    "dmp_exponent",
    "exponent_for",
    "verify_lt_identity",
    "lt_lattice",
    "renewal_estimate",
]


class Backend(Enum):
    SPECTRALLY_NEGATIVE = "SpectrallyNegativeClosedForm"
    DRIFT_MINUS_POISSON = "DriftMinusPoissonClosedForm"


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
# drift-minus-unit-Poisson closed form and backend selection


def kappa_drift_minus_poisson(a_param: float, a: float, b: float) -> float:
    """kappa(a, b) = a + slope*b + (1 - E exp(-a tau_1)), occupation norm."""
    return dmp_exponent(a_param)(a, b)


def dmp_exponent(a_param: float) -> LadderExponent:
    """Closed-form ladder exponent under the occupation normalization.

    Without upward jumps E exp(-a tau_1) = exp(-Phi(a)), and the cumulant
    equation slope*Phi(a) + exp(-Phi(a)) - 1 = a turns the occupation form
    into kappa(a, b) = slope*(Phi(a) + b).
    """
    sn = sn_exponent(drift_minus_poisson(a_param))
    return LadderExponent(backend=Backend.DRIFT_MINUS_POISSON, q=0.0,
                          d_L_inv=1.0, d_H=a_param,
                          eval=lambda a, b: a_param * sn(a, b))


def exponent_for(model: LevyModel,
                 cfg: Optional[SimConfig] = None) -> LadderExponent:
    """Pick the closed-form backend of the model's family."""
    # cfg is unused; passbench/tracing.py still passes its SimConfig
    if model.family == Family.DRIFT_MINUS_POISSON:
        return dmp_exponent(float(model.params["a"]))
    if not model.measure.has_positive_jumps():
        try:
            return sn_exponent(model)
        except ModelError:
            pass
    raise ModelError(
        "no closed-form ladder exponent for this model: kappa is exact "
        "only for drift-minus-poisson and models without upward jumps")


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
    inv_mu = 1.0 / mu

    # each row draws its level first, then walks its path
    seed, rows = _rows(prepared, n, seed, 0)
    levels = np.empty(n)
    tau, ruined, _, over, under, g = _passages(prepared, rows, n, levels,
                                               (inv_mu, levels))
    # the exponent takes only exact float arithmetic; exp is libm's
    ex = -rho * over - lam * under - nu * g - theta * (tau - g)
    vals = np.where(ruined > 0.0,
                    np.fromiter(map(math.exp, ex), float, n) * inv_mu, 0.0)
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

    Estimated on event-exact models only, in one of two normalizations.
    "occupation", for models that creep up and have no upward jumps: local
    time is occupation time at the maximum, measured exactly as climbed
    height over the drift. "record-index", for models with drift <= 0,
    whose records happen only at jumps: local time counts records. In
    either case the product EL1_inv * eval(u) estimates the expected
    passage time, which is normalization-invariant.
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

    Needs an event-exact model drifting to +inf so the ladder is proper.
    A model that both creeps and jumps upward is refused: a record epoch
    mixes climbed height and jumps, and counting the whole crossing epoch
    overestimates E tau_u. The horizon must let paths climb beyond the
    largest grid level; short horizons truncate V_H from below and raise
    an error when detected.
    """
    if model.hooks.drifts_to is not None and model.hooks.drifts_to != 1:
        raise ModelError(
            "the ladder is defective unless the model drifts to +inf")
    if choose_engine(model) != "event-exact":
        raise ModelError(
            "the renewal estimate needs an event-exact model (no Gaussian "
            "part, finite jump activity); a Gaussian part sets new maxima "
            "continuously")
    creep = model.drift_bv() > 0.0
    if creep and model.measure.has_positive_jumps():
        raise ModelError(
            "the renewal estimate needs a model that either creeps up or "
            "jumps up, not both: its record epochs mix the two")
    u_grid = _check_levels(u_grid, increasing=True)
    prepared = prepare(model, cfg)
    d = model.drift_bv() if creep else math.nan

    def one(dts, dhs):
        """One walk, from the times between its records and their height
        increments, as (local time below each level, total time, total
        local time, total height)."""
        if not len(dts):
            raise ModelError("no ladder epochs observed before the horizon")
        cum = np.cumsum(dhs)
        if creep:
            # local time below u: full climbs below plus the partial climb
            below = np.minimum(cum[:, None], u_grid[None, :])
            prev = np.concatenate(([0.0], cum[:-1]))
            seg = np.clip(below - prev[:, None], 0.0, None)
            return seg.sum(axis=0) / d, dts.sum(), cum[-1] / d, cum[-1]
        # records happen only at jumps: epochs starting at or below u, the
        # crossing epoch included, number the records up to tau_u
        starts = np.concatenate(([0.0], cum[:-1]))
        return ((starts[:, None] <= u_grid[None, :]).sum(axis=0), dts.sum(),
                len(dts), cum[-1])

    walks = [one(*w) for w in _ladder_batch(prepared, n_paths, seed, 0)]
    per_path, tot_t, tot_l, tot_h = (
        np.array(c, dtype=float) for c in zip(*walks))
    short = int(np.sum(tot_h <= u_grid[-1]))
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
