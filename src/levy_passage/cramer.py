"""Ruin estimation under the Cramér condition via exponential tilting.

For a model with negative mean whose cumulant has a positive root nu0, the
tilted process (measure change by exp(nu0 X_t)) drifts upward, so passage
over u is certain and fast under the tilt. Every ruin functional is then
an importance-sampled average with weight exp(-nu0 X_tau):

    E[Z 1{ruin}] = E_tilted[Z exp(-nu0 X_tau)]

which gives ruin probabilities with relative error that does not blow up
in u, the scaled constant exp(nu0 u) P(ruin), and conditional-given-ruin
means of tau/u, G/u and X_tau/u through normalized weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .experiments import _within_band
from .measures import JumpMeasure
from .models import (Family, LevyModel, ModelError, cumulant,
                     cumulant_derivative, process_mean, brownian_drift,
                     compound_poisson_drift, cramer_lundberg)
from .quadrature import (brent_root, float_or_array, integrate_tail_to_zero,
                         integrate_tails, tail_values)
from .simulate import SimConfig, _check_levels, fixed_time_sample, \
    passage_sample, prepare

__all__ = [
    "TiltedModel",
    "RuinEstimate",
    "ConditionalReport",
    "solve_lundberg",
    "esscher_tilt",
    "ruin_is",
    "ruin_grid",
    "conditional_stability_experiment",
    "tilt_identity_check",
]


def solve_lundberg(model: LevyModel) -> float:
    """Positive root of the cumulant, by bracketed root-finding.

    The bracket expands geometrically from 1e-6. When the expansion hits
    the integrability boundary (cumulant infinite) the finite part is
    refined; a root is accepted only strictly inside the finite region.
    """
    mean = process_mean(model)
    if not mean < 0.0:
        raise ModelError(
            "a positive cumulant root needs a drift to -inf (negative mean)")
    lo = 1e-6
    v = cumulant(model, lo)
    while not v < 0.0:
        lo /= 4.0
        if lo < 1e-250:
            raise ModelError("cumulant not negative near 0; no root to find")
        v = cumulant(model, lo)
    hi = lo
    for _ in range(600):
        hi *= 2.0
        v = cumulant(model, hi)
        if math.isinf(v):
            hi = _refine_before_boundary(model, lo, hi)
            break
        if v > 0.0:
            break
        lo = hi
    else:
        raise ModelError("cumulant never becomes positive; no Cramer root")
    root = brent_root(lambda x: cumulant(model, x), lo, hi, rtol=1e-13,
                      xtol=1e-300)
    probe = root * (1.0 + 1e-9)
    if math.isinf(cumulant(model, probe)):
        raise ModelError(
            "cumulant root lies on the integrability boundary; the tilt "
            "is not defined in a neighborhood of the root")
    return root


def _refine_before_boundary(model: LevyModel, lo: float, hi: float) -> float:
    """Shrink toward the boundary until the cumulant is finite positive."""
    for _ in range(300):
        mid = math.sqrt(lo * hi)
        v = cumulant(model, mid)
        if math.isinf(v):
            hi = mid
        elif v > 0.0:
            return mid
        else:
            lo = mid
        if hi / lo < 1.0 + 1e-12:
            break
    raise ModelError(
        "cumulant jumps from negative to infinite with no positive finite "
        "values; no Cramer root exists")


@dataclass
class TiltedModel:
    """Exponentially tilted model with its Lundberg exponent.

    tilted has triplet (gamma + sigma2 nu0 + small-jump correction,
    sigma2, exp(nu0 x) dPi). mu_star is the tilted mean, the cumulant
    derivative at nu0; +inf is a valid flagged state in which the scaled
    ruin constant degenerates to zero.
    """

    nu0: float
    base: LevyModel
    tilted: LevyModel
    mu_star: float

    @property
    def mu_star_finite(self) -> bool:
        return math.isfinite(self.mu_star)


def esscher_tilt(model: LevyModel, nu0: float) -> TiltedModel:
    """Tilt the model by exp(nu0 x); stays in-family where possible."""
    if not nu0 > 0.0:
        raise ValueError("the tilt exponent must be positive")
    if math.isinf(cumulant(model, nu0)):
        raise ModelError("the tilted measure is not integrable at this "
                         "exponent")
    fam = model.family
    if fam == Family.BROWNIAN_DRIFT:
        tilted = brownian_drift(model.params["drift"] + model.sigma2 * nu0,
                                model.sigma2)
    elif fam == Family.CRAMER_LUNDBERG:
        lam = model.params["lam"]
        alpha = model.params["alpha"]
        prem = model.params["premium"]
        if nu0 >= alpha:
            raise ModelError("tilt exponent at or beyond the claim tail rate")
        tilted = cramer_lundberg(lam * alpha / (alpha - nu0), alpha - nu0,
                                 prem)
    elif model.sigma2 == 0.0 and model.measure.law is not None:
        law, mass = model.measure.law.tilt(nu0)
        tilted = compound_poisson_drift(model.measure.total_rate * mass, law,
                                        model.drift_bv())
    else:
        tilted = _tilt_general(model, nu0)
    mu_star = cumulant_derivative(model, nu0)
    if math.isfinite(mu_star) and not mu_star > 0.0:
        raise ModelError("tilted mean not positive; the root is not a "
                         "crossing of the cumulant from below")
    return TiltedModel(nu0=nu0, base=model, tilted=tilted, mu_star=mu_star)


def _tilt_general(model: LevyModel, nu0: float) -> LevyModel:
    """Tilt via integrated tails for models without a closed family form."""
    pos = model.measure.pos_tail
    neg = model.measure.neg_tail
    bp = model.measure.breakpoints
    pos_sup = model.measure.pos_support
    neg_sup = model.measure.neg_support

    def tilted(tail, sup, rate, top):
        """x -> e^{rate x} T(x) + rate int_x^top e^{rate y} T(y) dy, the
        tilted tail by parts, at a float or at every point of an array;
        the integrals at all points come from one cumulative pass."""
        def w(y):
            t = tail_values(tail, y)
            # the base tail underflows before exp(nu0 y) overflows for any
            # tilt the integrability check accepted: zero tail, zero mass
            return np.where(t > 0.0, np.exp(rate * y) * t, 0.0)

        def star(x):
            x = np.asarray(x, dtype=float)
            t = tail_values(tail, x)
            live = (t > 0.0) & (x < sup)
            xl = x[live]
            hi = np.full(xl.shape, sup) if math.isfinite(sup) else top(xl)
            # w is integrated once between consecutive points of and tops;
            # c holds the integrals from each edge to the last one
            edges = np.unique(np.concatenate([xl, hi]))
            c = np.zeros(edges.shape)
            c[:-1] = np.cumsum(integrate_tails(
                w, edges[:-1], edges[1:], breakpoints=bp)[::-1])[::-1]
            inner = c[np.searchsorted(edges, xl)] \
                - c[np.searchsorted(edges, hi)]
            out = np.zeros(x.shape)
            out[live] = np.exp(rate * xl) * t[live] + rate * inner
            return float_or_array(out)
        return star

    pos_star = tilted(pos, pos_sup, nu0,
                      lambda x: np.maximum(10.0 * x, 50.0 / nu0))
    neg_star = tilted(neg, neg_sup, -nu0, lambda x: x + 80.0 / nu0)

    # small-jump drift correction integral of x (e^{nu0 x} - 1) dPi
    def corr_side(tail_fn, sign):
        # integrate x(e^{sign nu0 x}-1) dPi over (0,1] via parts on the tail
        def g(y):
            return (np.exp(sign * nu0 * y) * (1.0 + sign * nu0 * y) - 1.0) \
                * tail_fn(y)
        edge = -(math.exp(sign * nu0) - 1.0) * tail_fn(1.0)
        # d/dy [y(e^{s nu y}-1)] = e^{s nu y}(1 + s nu y) - 1; the integrand
        # is O(y^2) tail(y) near 0, which every jump measure integrates
        return sign * (edge + integrate_tail_to_zero(g, 1.0, breakpoints=bp))

    corr = 0.0
    if pos_sup > 0.0:
        corr += corr_side(pos, +1)
    if neg_sup > 0.0:
        corr += corr_side(neg, -1)
    gamma_star = model.gamma + model.sigma2 * nu0 + corr
    measure = JumpMeasure(
        pos_tail=pos_star, neg_tail=neg_star, breakpoints=bp,
        pos_support=pos_sup, neg_support=neg_sup,
        total_rate=(pos_star(0.0) + neg_star(0.0)
                    if model.measure.is_finite_activity else math.inf),
        law=None, is_lattice=model.measure.is_lattice,
        description=f"tilt({nu0:g}) of {model.measure.description}")
    return LevyModel(gamma_star, model.sigma2, measure, Family.CUSTOM,
                     {"nu0": nu0, "base": model.params}, model.hooks.__class__())


@dataclass
class RuinEstimate:
    """Importance-sampled ruin summary at one level.

    psi_hat estimates the ruin probability; cramer_scaled = exp(nu0 u)
    psi_hat; C_hat is the mean of exp(-nu0 overshoot) under the tilt. The
    conditional ratios are weighted means given ruin.
    """

    u: float
    n: int
    nu0: float
    mu_star: float
    psi_hat: float
    se: float
    cramer_scaled: float
    C_hat: float
    C_se: float
    cond_tau_ratio: float
    cond_tau_se: float
    cond_g_ratio: float
    cond_g_se: float
    cond_x_ratio: float
    cond_x_se: float
    note: str = ""


def _weighted_ratio(w: np.ndarray, v: np.ndarray) -> tuple:
    """Self-normalized mean sum(w v)/sum(w) with a linearized s.e."""
    n = len(w)
    wbar = float(np.mean(w))
    r = float(np.sum(w * v) / np.sum(w))
    resid = w * (v - r)
    se = math.sqrt(float(np.mean(resid ** 2)) / n) / wbar
    return r, se


def ruin_is(model: LevyModel, cfg: Optional[SimConfig], u: float, n: int,
            seed: Optional[int] = None,
            tilt: Optional[TiltedModel] = None) -> RuinEstimate:
    """One-level ruin estimate by tilted simulation.

    Lattice jump models still give valid ruin probabilities, but their
    overshoot law never settles, so the conditional ratios and the scaled
    constant are withheld for them.
    """
    return ruin_grid(model, cfg, [u], n, seed, tilt)[0]


def ruin_grid(model: LevyModel, cfg: Optional[SimConfig], u_grid, n: int,
              seed: Optional[int] = None,
              tilt: Optional[TiltedModel] = None) -> list:
    """ruin_is at every level of u_grid, with one tilt and one prepared
    tilted model.

    Level i runs on the streams of seed + i, so level 1 under seed s
    shares its streams with level 0 under seed s + 1.
    """
    cfg = cfg or SimConfig()
    seed = cfg.seed if seed is None else seed
    if tilt is None:
        tilt = esscher_tilt(model, solve_lundberg(model))
    tilted = prepare(tilt.tilted, cfg)
    return [_estimate(model, tilt, passage_sample(tilted, float(u), n,
                                                  seed=seed + i))
            for i, u in enumerate(u_grid)]


def _estimate(model: LevyModel, tilt: TiltedModel, batch) -> RuinEstimate:
    """Ruin summary from a batch of passages under the tilt."""
    u = batch.u
    n = batch.n
    nu0 = tilt.nu0
    note = ""
    if not tilt.mu_star_finite:
        note = "tilted mean infinite: scaled ruin constant degenerates to 0"
    if batch.n_ruined != n:
        raise ModelError(
            f"{n - batch.n_ruined} tilted paths censored; the tilted model "
            "must drift to +inf, so raise the horizon")
    x_at = batch.x_at_tau
    psi_vals = np.exp(-nu0 * x_at)
    psi_hat = float(np.mean(psi_vals))
    psi_se = float(np.std(psi_vals, ddof=1) / math.sqrt(n))
    scaled = math.exp(nu0 * u) * psi_hat
    w = np.exp(-nu0 * batch.overshoot)
    c_hat = float(np.mean(w))
    c_se = float(np.std(w, ddof=1) / math.sqrt(n))
    if model.measure.is_lattice:
        nanv = math.nan
        return RuinEstimate(
            u=u, n=n, nu0=nu0, mu_star=tilt.mu_star, psi_hat=psi_hat,
            se=psi_se, cramer_scaled=scaled, C_hat=nanv, C_se=nanv,
            cond_tau_ratio=nanv, cond_tau_se=nanv, cond_g_ratio=nanv,
            cond_g_se=nanv, cond_x_ratio=nanv, cond_x_se=nanv,
            note=(note + "; " if note else "")
            + "lattice jumps: overshoot-law functionals withheld")
    tau_r = batch.tau / u
    g_r = batch.g_last_max / u
    x_r = x_at / u
    ct, ct_se = _weighted_ratio(w, tau_r)
    cg, cg_se = _weighted_ratio(w, g_r)
    cx, cx_se = _weighted_ratio(w, x_r)
    return RuinEstimate(
        u=u, n=n, nu0=nu0, mu_star=tilt.mu_star, psi_hat=psi_hat, se=psi_se,
        cramer_scaled=scaled, C_hat=c_hat, C_se=c_se,
        cond_tau_ratio=ct, cond_tau_se=ct_se,
        cond_g_ratio=cg, cond_g_se=cg_se,
        cond_x_ratio=cx, cond_x_se=cx_se, note=note)


@dataclass
class ConditionalReport:
    """Conditional-given-ruin ratio convergence across levels."""

    nu0: float
    mu_star: float
    estimates: list
    verdicts: list        # dicts with tau/g/x verdict strings per level
    verdict: str


def _cond_verdict(est: float, se: float, target: float) -> str:
    if not math.isfinite(target) or not math.isfinite(est):
        return "inconclusive"
    return "pass" if _within_band(est, se, target) else "fail"


def conditional_stability_experiment(model: LevyModel,
                                     cfg: Optional[SimConfig], u_grid, n: int,
                                     seed: Optional[int] = None
                                     ) -> ConditionalReport:
    """Tilted-measure estimates of the conditional ratios across levels.

    Targets: tau/u and G/u both tend to the reciprocal tilted mean; X/u
    tends to 1. Lattice jump models are refused since the conditional
    overshoot limits need a spread-out jump law.
    """
    if model.measure.is_lattice:
        raise ModelError(
            "conditional ratio limits need a non-lattice jump law")
    u_grid = _check_levels(u_grid)
    tilt = esscher_tilt(model, solve_lundberg(model))
    if not tilt.mu_star_finite:
        raise ModelError(
            "tilted mean infinite: conditional ratio limits do not apply")
    target = 1.0 / tilt.mu_star
    ests = ruin_grid(model, cfg, u_grid, n, seed=seed, tilt=tilt)
    verdicts = [{
        "u": est.u,
        "tau": _cond_verdict(est.cond_tau_ratio, est.cond_tau_se, target),
        "g": _cond_verdict(est.cond_g_ratio, est.cond_g_se, target),
        "x": _cond_verdict(est.cond_x_ratio, est.cond_x_se, 1.0),
    } for est in ests]
    last = verdicts[-1]
    overall = "pass" if all(last[k] == "pass" for k in ("tau", "g", "x")) \
        else ("fail" if any(last[k] == "fail" for k in ("tau", "g", "x"))
              else "inconclusive")
    return ConditionalReport(nu0=tilt.nu0, mu_star=tilt.mu_star,
                             estimates=ests, verdicts=verdicts,
                             verdict=overall)


# ---------------------------------------------------------------------------
# measure-change identity on fixed-time marginals


_TEST_FUNCTIONS = (
    ("indicator", lambda x: (x > 0.0).astype(float)),
    ("identity-clipped", lambda x: np.clip(x, 0.0, 3.0)),
    ("exponential-clipped", lambda x: np.minimum(np.exp(x), 10.0)),
)


def tilt_identity_check(model: LevyModel, t: float, n: int = 100_000,
                        seed: int = 0,
                        tilt: Optional[TiltedModel] = None) -> list:
    """Two-estimator check of the fixed-time measure-change identity.

    Compares E f(X_t) sampled directly with E*[f(X*_t) exp(-nu0 X*_t)]
    sampled under the tilt. Both sides draw X_t from the path generator,
    the direct side on level 1 of seed's streams and the tilted side on
    level 2, so the check runs on every model with a Cramer root, the
    general tilt of tail-expression models included. The weight is bounded
    on the tilted side because X*_t has a right tail there, so both
    estimators have finite variance for bounded f.
    """
    if tilt is None:
        tilt = esscher_tilt(model, solve_lundberg(model))
    x_dir = fixed_time_sample(model, t, n, seed, 1)[0]
    x_til = fixed_time_sample(tilt.tilted, t, n, seed, 2)[0]
    wt = np.exp(-tilt.nu0 * x_til)
    out = []
    for name, f in _TEST_FUNCTIONS:
        a = f(x_dir)
        b = f(x_til) * wt
        da = float(np.mean(a))
        db = float(np.mean(b))
        sa = float(np.std(a, ddof=1) / math.sqrt(n))
        sb = float(np.std(b, ddof=1) / math.sqrt(n))
        comb = math.hypot(sa, sb)
        out.append({"f": name, "t": t, "direct": da, "direct_se": sa,
                    "tilted": db, "tilted_se": sb,
                    "z": (da - db) / comb if comb > 0 else 0.0})
    return out
