"""Levy process models and the calculus on their jump tails.

A model is the triplet (gamma, sigma2, jump measure) in the standard
representation with jumps of modulus <= 1 compensated. Built-in families
carry closed-form hooks (means, cumulants, ladder constants, exact increment
samplers) that the generic quadrature paths are tested against.

Central quantities, all evaluated from the one-sided tails:

* truncated_mean A(x): gamma + T+(1) - T-(1) + int_1^x (T+ - T-)(y) dy,
  the natural drift of the process at spatial scale x. Its limits at 0 and
  infinity decide relative stability of the passage time.
* truncated_quadratic_variation V(x): sigma2 + int_{|y|<=x} y^2 Pi(dy),
  computed by parts as sigma2 + 2 int_0^x y Tbar(y) dy - x^2 Tbar(x).
* cumulant(nu): log E e^{nu X_1} with +inf sentinel outside the
  integrability region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .measures import (
    AtomJump,
    ExponentialJump,
    JumpLaw,
    JumpMeasure,
    compound_measure,
    tail_table_inverse,
)
from .quadrature import (brent_root, float_or_array, integrate_tail,
                         integrate_tail_to_inf, integrate_tail_to_zero,
                         tail_values)
from .tail_expr import parse_tail_expr

__all__ = [
    "Family",
    "Regime",
    "LevyModel",
    "ModelHooks",
    "StabilityVerdict",
    "ModelError",
    "brownian_drift",
    "compound_poisson_drift",
    "drift_minus_poisson",
    "spectrally_negative",
    "cramer_lundberg",
    "make_counterexample1",
    "make_counterexample2",
    "custom_model",
    "truncated_mean",
    "truncated_quadratic_variation",
    "cumulant",
    "cumulant_derivative",
    "process_mean",
    "small_jump_variance",
    "signed_mean_between",
    "classify_stability",
    "default_grid",
    "validate_model",
]


class ModelError(ValueError):
    """Invalid model construction or an operation outside its domain."""


class Family(str, Enum):
    BROWNIAN_DRIFT = "brownian-drift"
    COMPOUND_POISSON_DRIFT = "compound-poisson-drift"
    DRIFT_MINUS_POISSON = "drift-minus-poisson"
    SPECTRALLY_NEGATIVE = "spectrally-negative"
    CRAMER_LUNDBERG = "cramer-lundberg"
    COUNTEREXAMPLE_1 = "counterexample1"
    COUNTEREXAMPLE_2 = "counterexample2"
    CUSTOM = "custom"


class Regime(str, Enum):
    """Limit regime for passage-time stability statements."""

    PROB_LARGE = "prob-large"
    PROB_SMALL = "prob-small"
    AS_LARGE = "as-large"
    AS_SMALL = "as-small"
    MEAN_LARGE = "mean-large"
    MEAN_SMALL = "mean-small"

    @property
    def small_time(self) -> bool:
        return self in (Regime.PROB_SMALL, Regime.AS_SMALL, Regime.MEAN_SMALL)


@dataclass
class ModelHooks:
    """Closed-form shortcuts a family can provide; all optional."""

    mean: Optional[float] = None              # E X_1, may be +-inf
    is_bv: Optional[bool] = None              # bounded variation paths
    drift_bv: Optional[float] = None          # pathwise drift d when BV
    cumulant: Optional[Callable[[float], float]] = None
    cumulant_prime: Optional[Callable[[float], float]] = None
    ladder_height_drift: Optional[float] = None    # d_H, occupation norm
    ladder_time_drift: Optional[float] = None      # drift of inverse local time
    ladder_time_mean: Optional[float] = None       # E L^{-1}_1, occupation norm
    mean_tau1: Optional[float] = None              # E of passage time over 1
    drifts_to: Optional[int] = None                # +1 / -1 / 0 (oscillates)
    regular_upward: Optional[bool] = None          # leaves 0 upward immediately


@dataclass
class LevyModel:
    """Triplet (gamma, sigma2, measure) plus family metadata."""

    gamma: float
    sigma2: float
    measure: JumpMeasure
    family: Family
    params: dict = field(default_factory=dict)
    hooks: ModelHooks = field(default_factory=ModelHooks)

    def __post_init__(self):
        if self.sigma2 < 0:
            raise ModelError("sigma2 must be nonnegative")

    # -- convenience accessors backed by hooks with generic fallbacks ------

    def is_bv(self) -> Optional[bool]:
        if self.hooks.is_bv is not None:
            return self.hooks.is_bv
        return _bv_heuristic(self.measure)

    def drift_bv(self) -> Optional[float]:
        if self.hooks.drift_bv is not None:
            return self.hooks.drift_bv
        if not self.is_bv():
            return None
        # d = gamma - int_{|y|<=1} y Pi(dy)
        return self.gamma - signed_mean_between(self, 0.0, 1.0)


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of a stability classification.

    c is the stability constant when holds == "yes"; for "no" it records the
    detected limit clamped to [0, +inf] (with +inf marking |A| divergence);
    for "inconclusive" it is nan. evidence rows are (x, A(x), x * Pibar(x)).
    """

    regime: Regime
    c: float
    holds: str
    evidence: tuple
    detail: str


# ---------------------------------------------------------------------------
# tail calculus


def _signed_tail_diff(model: LevyModel):
    pos, neg = model.measure.pos_tail, model.measure.neg_tail
    return lambda y: pos(y) - neg(y)


def truncated_mean(model: LevyModel, x: float, form: str = "cutoff") -> float:
    """Natural drift A(x) at spatial scale x > 0.

    Two algebraically equal forms are implemented: "cutoff" integrates the
    signed tail difference from the unit cutoff, and "dual" keeps the mass
    between the cutoff and x explicit. Their agreement is a regression check
    on the tail algebra.
    """
    if x <= 0:
        raise ModelError("scale x must be positive")
    m = model.measure
    bp = m.breakpoints
    base = model.gamma + m.pos_tail(1.0) - m.neg_tail(1.0)
    if form == "cutoff":
        diff = _signed_tail_diff(model)
        if x == 1.0:
            return base
        if x > 1.0:
            return base + integrate_tail(diff, 1.0, x, bp)
        return base - integrate_tail(diff, x, 1.0, bp)
    if form == "dual":
        edge = x * (m.pos_tail(x) - m.neg_tail(x))
        inner = _signed_first_moment(model, x, 1.0) if x < 1.0 else (
            _signed_first_moment(model, 1.0, x) if x > 1.0 else 0.0)
        sign = 1.0 if x > 1.0 else -1.0
        return model.gamma + edge + sign * inner
    raise ModelError(f"unknown form {form!r}")


def _signed_first_moment(model: LevyModel, a: float, b: float) -> float:
    """int_{a < |y| <= b} y Pi(dy) for 0 < a < b, by parts per side."""
    m = model.measure
    bp = m.breakpoints
    out = 0.0
    for sgn, tail in ((1.0, m.pos_tail), (-1.0, m.neg_tail)):
        piece = a * tail(a) - b * tail(b) + integrate_tail(tail, a, b, bp)
        out += sgn * piece
    return out


def signed_mean_between(model: LevyModel, a: float, b: float) -> float:
    """int_{a < |y| <= b} y Pi(dy); a == 0 is handled as an improper limit."""
    if a > 0.0:
        return _signed_first_moment(model, a, b)
    m = model.measure
    bp = m.breakpoints
    out = 0.0
    for sgn, tail in ((1.0, m.pos_tail), (-1.0, m.neg_tail)):
        val = integrate_tail_to_zero(tail, b, bp) - b * tail(b)
        out += sgn * val
    return out


def truncated_quadratic_variation(model: LevyModel, x: float) -> float:
    """V(x) = sigma2 + int_{|y| <= x} y^2 Pi(dy)."""
    if x <= 0:
        raise ModelError("scale x must be positive")
    return model.sigma2 + small_jump_variance(model, x)


def small_jump_variance(model: LevyModel, eps: float) -> float:
    """int_{|y| <= eps} y^2 Pi(dy) = 2 int_0^eps y (Tbar(y) - Tbar(eps)) dy.

    The integrand counts only the mass below eps, so no two large terms
    cancel, as they would in 2 int_0^eps y Tbar(y) dy - eps^2 Tbar(eps).
    """
    m = model.measure
    tbar = lambda y: m.pos_tail(y) + m.neg_tail(y)
    if m.pos_support == 0.0 and m.neg_support == 0.0:
        return 0.0
    edge = tbar(eps)
    return 2.0 * integrate_tail_to_zero(lambda y: y * (tbar(y) - edge), eps,
                                        m.breakpoints)


def cumulant(model: LevyModel, nu: float) -> float:
    """log E e^{nu X_1}; +inf when the exponential moment diverges."""
    if nu == 0.0:
        return 0.0
    if model.hooks.cumulant is not None:
        return model.hooks.cumulant(nu)
    return _cumulant_quadrature(model, nu)


def _cumulant_quadrature(model: LevyModel, nu: float) -> float:
    m = model.measure
    bp = m.breakpoints
    out = nu * model.gamma + 0.5 * model.sigma2 * nu * nu
    out += nu * (m.pos_tail(1.0) - m.neg_tail(1.0))

    def small(y):
        return (np.expm1(nu * y) * m.pos_tail(y)
                - np.expm1(-nu * y) * m.neg_tail(y))

    hi_small = min(1.0, max(m.pos_support, m.neg_support))
    if hi_small > 0.0:
        out += nu * integrate_tail_to_zero(small, hi_small, bp)

    for sign, tail, sup in ((1.0, m.pos_tail, m.pos_support),
                            (-1.0, m.neg_tail, m.neg_support)):
        if sup <= 1.0:
            continue

        def g(y, t=tail, rate=sign * nu):
            # a tail that underflowed to 0 adds 0 even where e^{rate y}
            # overflows; an overflow against a positive tail reads as inf
            v = tail_values(t, y)
            return np.where(v == 0.0, 0.0, np.exp(rate * y) * v)
        if math.isfinite(sup):
            piece = integrate_tail(g, 1.0, sup, bp)
        else:
            piece = integrate_tail_to_inf(g, 1.0, bp)
            if math.isinf(piece):
                return math.inf
        out += sign * nu * piece
    return out


def cumulant_derivative(model: LevyModel, nu: float) -> float:
    """d/dnu log E e^{nu X_1}, via hook or a guarded central difference."""
    if model.hooks.cumulant_prime is not None:
        return model.hooks.cumulant_prime(nu)
    h = 1e-6
    lo, hi = cumulant(model, nu - h), cumulant(model, nu + h)
    if math.isinf(hi) or math.isinf(lo):
        # one-sided fallback near the integrability edge
        mid = cumulant(model, nu)
        if math.isinf(mid):
            return math.inf
        if math.isinf(hi):
            return (mid - lo) / h
        return (hi - mid) / h
    return (hi - lo) / (2.0 * h)


def process_mean(model: LevyModel) -> float:
    """E X_1; +-inf when one big-jump side diverges, nan when both do."""
    if model.hooks.mean is not None:
        return model.hooks.mean
    m = model.measure
    sides = []
    for tail, sup in ((m.pos_tail, m.pos_support), (m.neg_tail, m.neg_support)):
        if sup <= 1.0:
            sides.append(0.0)
            continue
        if math.isfinite(sup):
            integral = integrate_tail(tail, 1.0, sup, m.breakpoints)
        else:
            integral = integrate_tail_to_inf(tail, 1.0, m.breakpoints)
        sides.append(tail(1.0) + integral if math.isfinite(integral) else math.inf)
    pos, neg = sides
    if math.isinf(pos) and math.isinf(neg):
        return math.nan
    return model.gamma + pos - neg


def _bv_heuristic(measure: JumpMeasure) -> Optional[bool]:
    """Decade ratio test on int_0 Tbar(y) dy; None when ambiguous."""
    tbar = lambda y: measure.pos_tail(y) + measure.neg_tail(y)
    top = min(1.0, max(measure.pos_support, measure.neg_support, 1e-12))
    if measure.pos_support == 0.0 and measure.neg_support == 0.0:
        return True
    pieces = []
    hi = top
    for _ in range(14):
        lo = hi / 10.0
        pieces.append(integrate_tail(tbar, lo, hi, measure.breakpoints))
        hi = lo
    tail_pieces = [p for p in pieces[4:] if p > 0.0]
    if not tail_pieces:
        return True
    ratios = [b / a for a, b in zip(tail_pieces, tail_pieces[1:]) if a > 0]
    if not ratios:
        return True
    worst = max(ratios[-3:]) if len(ratios) >= 3 else max(ratios)
    if worst < 0.8:
        return True
    if worst > 0.95:
        return False
    return None


# ---------------------------------------------------------------------------
# model validation


def validate_model(model: LevyModel, check_integrability: bool = True) -> None:
    """Reject measures that are not Levy measures and processes that cannot
    pass positive levels (negatives of subordinators, nonpositive pure drift).
    """
    m = model.measure
    if check_integrability and (m.pos_support > 0 or m.neg_support > 0):
        _check_levy_integrability(m)
    if model.sigma2 == 0.0 and not m.has_positive_jumps():
        bv = model.is_bv()
        if bv is False:
            return  # infinite-variation spectrally negative can still creep up
        d = model.drift_bv()
        if d is not None and d <= 0.0:
            raise ModelError(
                "process never exceeds positive levels "
                "(no Gaussian part, no positive jumps, drift <= 0)")


def _check_levy_integrability(measure: JumpMeasure, tol: float = 1e-6) -> None:
    """Numerical check of int (1 ^ y^2) Pi(dy) < inf via decade pieces."""
    tbar = lambda y: measure.pos_tail(y) + measure.neg_tail(y)
    top = min(1.0, max(measure.pos_support, measure.neg_support))
    if top <= 0.0:
        return
    if not math.isfinite(tbar(top)):
        raise ModelError("tail must be finite on (0, inf)")
    pieces = []
    hi = top
    for _ in range(16):
        lo = hi / 10.0
        pieces.append(integrate_tail(lambda y: y * tbar(y), lo, hi,
                                     measure.breakpoints))
        hi = lo
    total = sum(pieces)
    if total == 0.0:
        return
    last = pieces[-3:]
    ratios = [b / a for a, b in zip(last, last[1:]) if a > 0]
    if ratios and max(ratios) >= 0.99:
        raise ModelError(
            "int (1 ^ y^2) Pi(dy) does not appear to converge; "
            "tails too heavy near zero")
    remainder = last[-1] / max(1.0 - max(ratios, default=0.0), 1e-3)
    if remainder > tol * max(total, 1.0):
        raise ModelError("small-jump second moment did not converge numerically")


# ---------------------------------------------------------------------------
# built-in families


_EMPTY_MEASURE = JumpMeasure(
    pos_tail=lambda x: 0.0,
    neg_tail=lambda x: 0.0,
    breakpoints=(),
    pos_support=0.0,
    neg_support=0.0,
    total_rate=0.0,
    law=None,
    is_lattice=False,
    description="no jumps",
)


def brownian_drift(drift: float, sigma2: float) -> LevyModel:
    """Brownian motion with drift; sigma2 = 0 gives a pure drift line."""
    hooks = ModelHooks(
        mean=drift,
        is_bv=(sigma2 == 0.0),
        drift_bv=drift if sigma2 == 0.0 else None,
        cumulant=lambda nu: drift * nu + 0.5 * sigma2 * nu * nu,
        cumulant_prime=lambda nu: drift + sigma2 * nu,
        drifts_to=(1 if drift > 0 else (-1 if drift < 0 else 0)),
        regular_upward=(sigma2 > 0.0 or drift > 0.0),
    )
    model = LevyModel(drift, sigma2, _EMPTY_MEASURE, Family.BROWNIAN_DRIFT,
                      {"drift": drift, "sigma2": sigma2}, hooks)
    validate_model(model, check_integrability=False)
    return model


def compound_poisson_drift(rate: float, law: JumpLaw, drift: float,
                           family: Family = Family.COMPOUND_POISSON_DRIFT,
                           params: Optional[dict] = None) -> LevyModel:
    """Finite-activity jumps at `rate` plus a deterministic drift line."""
    if rate < 0:
        raise ModelError("rate must be nonnegative")
    measure = compound_measure(rate, law)
    gamma = drift + (rate * law.mean_small(1.0) if rate else 0.0)
    mean = drift + (rate * law.mean() if rate else 0.0)

    def psi(nu, _rate=rate, _drift=drift, _law=law):
        m = _law.mgf(nu) if _rate else 1.0
        if math.isinf(m):
            return math.inf
        return _drift * nu + _rate * (m - 1.0)

    def psi_prime(nu, _rate=rate, _drift=drift, _law=law):
        m = _law.mgf_prime(nu) if _rate else 0.0
        if math.isinf(m):
            return math.inf
        return _drift + _rate * m

    hooks = ModelHooks(
        mean=mean,
        is_bv=True,
        drift_bv=drift,
        cumulant=psi,
        cumulant_prime=psi_prime,
        drifts_to=(1 if mean > 0 else (-1 if mean < 0 else 0)),
        regular_upward=(drift > 0.0),
    )
    if drift > 0.0:
        # at its maximum the path climbs at the drift rate, so in the
        # occupation normalization the ladder height drift equals the slope
        hooks.ladder_height_drift = drift
        hooks.ladder_time_drift = 1.0
    model = LevyModel(gamma, 0.0, measure, family,
                      params if params is not None else
                      {"rate": rate, "drift": drift, "law": repr(law)},
                      hooks)
    validate_model(model, check_integrability=False)
    return model


def drift_minus_poisson(a: float) -> LevyModel:
    """Unit drift-up-minus-unit-Poisson model X_t = a t - N_t, a > 1."""
    if not a > 1.0:
        raise ModelError("need a > 1 so the process drifts upward")
    model = compound_poisson_drift(1.0, AtomJump(-1.0), a,
                                   family=Family.DRIFT_MINUS_POISSON,
                                   params={"a": a})
    mean_tau1 = 1.0 / (a - 1.0)   # Wald plus continuous upward crossing
    model.hooks.mean_tau1 = mean_tau1
    model.hooks.ladder_time_mean = 1.0 + mean_tau1
    return model


def spectrally_negative(drift: float, rate: float, alpha: float) -> LevyModel:
    """Upward drift with downward Exp(alpha) jumps; no positive jumps."""
    if drift <= 0:
        raise ModelError("need positive drift for upward passage")
    return compound_poisson_drift(rate, ExponentialJump(alpha, sign=-1), drift,
                                  family=Family.SPECTRALLY_NEGATIVE,
                                  params={"drift": drift, "rate": rate,
                                          "alpha": alpha})


def cramer_lundberg(lam: float, alpha: float, premium: float) -> LevyModel:
    """Claim surplus process: Exp(alpha) claims at rate lam minus premium inflow.

    X_t = sum_{i<=N_t} C_i - premium * t, so passage above u is ruin of the
    reserve process u + premium*t - claims.
    """
    if min(lam, alpha, premium) <= 0:
        raise ModelError("lam, alpha, premium must all be positive")
    model = compound_poisson_drift(lam, ExponentialJump(alpha, sign=1),
                                   -premium, family=Family.CRAMER_LUNDBERG,
                                   params={"lam": lam, "alpha": alpha,
                                           "premium": premium})
    return model


# -- counterexample family 1: finite drifting limit, vanishing maximum -----

_CE1_XC = 0.02
_CE1_XMAX = 0.5
_CE1_EINV = math.exp(-1.0)
_LN2 = math.log(2.0)
_CE1_G0 = _LN2 / (_CE1_XC * math.log(_CE1_XC) ** 2)
_CE1_AREA = 1.0 + _LN2 / math.log(_CE1_XC)
_CE1_G1 = 2.0 * _CE1_AREA / (_CE1_XMAX - _CE1_XC) - _CE1_G0


def _ce1_pos_tail(x):
    near = np.minimum(x, _CE1_EINV)
    near = 1.0 / (near * np.abs(np.log(near)))
    return float_or_array(np.where(x >= _CE1_XMAX, 0.0,
                                   np.where(x <= _CE1_EINV, near, math.e)))


def _ce1_diff(x):
    # nonincreasing difference neg_tail - pos_tail with exact small-x form
    near = np.minimum(x, _CE1_XC)
    near = _LN2 / (near * np.log(near) ** 2)
    w = (x - _CE1_XC) / (_CE1_XMAX - _CE1_XC)
    return float_or_array(np.where(
        x >= _CE1_XMAX, 0.0,
        np.where(x <= _CE1_XC, near, _CE1_G0 + (_CE1_G1 - _CE1_G0) * w)))


def _ce1_neg_tail(x):
    return _ce1_pos_tail(x) + _ce1_diff(x)     # both vanish from _CE1_XMAX


def make_counterexample1() -> LevyModel:
    """Unbounded-variation model whose drifting ratio X_t/t converges to -1
    at small times while the running-maximum ratio collapses to 0, so the
    passage time ratio tau_u/u diverges; no small-time stability constant
    exists. Both jump tails behave like 1/(x |ln x|) near 0."""
    measure = JumpMeasure(
        pos_tail=_ce1_pos_tail,
        neg_tail=_ce1_neg_tail,
        breakpoints=(_CE1_XC, _CE1_EINV, _CE1_XMAX),
        pos_support=_CE1_XMAX,
        neg_support=_CE1_XMAX,
        total_rate=math.inf,
        description="slowly varying tails with log-scale asymmetry",
    )
    hooks = ModelHooks(
        mean=-2.0,
        is_bv=False,
        drifts_to=-1,
        regular_upward=True,
    )
    return LevyModel(-2.0, 0.0, measure, Family.COUNTEREXAMPLE_1, {}, hooks)


# -- counterexample family 2: negative relative stability, exploding maximum


def _ce2_zero_pos_tail(x, beta: float):
    s = -np.log(np.minimum(x, _CE1_EINV))
    with np.errstate(over="ignore"):
        v = 2.0 * beta * s ** (beta - 1.0) * np.exp(s ** beta) / x
    return float_or_array(np.where(x >= _CE1_EINV, 0.0, v))


class _HeavyStep(JumpLaw):
    """Step law with tail (ln x)^{beta-1} e^{(ln x)^beta} / x beyond x = e,
    negative with probability 2/3. Mean modulus is infinite."""

    def __init__(self, beta: float):
        self.beta = beta
        self._hi = self._solve_level(1e-13)
        self._quantile = tail_table_inverse(self._htail, math.e, self._hi,
                                            points=8192)

    def _htail(self, x):
        s = np.log(np.maximum(x, math.e))
        return float_or_array(np.where(
            x <= math.e, 1.0,
            s ** (self.beta - 1.0) * np.exp(s ** self.beta) / x))

    def _solve_level(self, v: float) -> float:
        f = lambda s: (self.beta - 1.0) * math.log(s) + s**self.beta - s - math.log(v)
        return math.exp(brent_root(f, 1.0, 500.0, xtol=1e-10))

    def tail_pos(self, x):
        return self._htail(x) / 3.0

    def tail_neg(self, x):
        return 2.0 * self._htail(x) / 3.0

    def sample(self, rng, n):
        mag = self._quantile(rng.random(n))
        sign = np.where(rng.random(n) < 2.0 / 3.0, -1.0, 1.0)
        return sign * mag

    def mean(self):
        return math.nan  # E|Y| = inf with undefined sign balance

    def second_moment(self):
        return math.inf

    def mean_small(self, c):
        # E[Y 1{|Y|<=c}] via the closed antiderivative of the tail
        if c <= math.e:
            return 0.0
        s = math.log(c)
        ltil = math.exp(s**self.beta)
        integral = math.e / 3.0 + (ltil - math.e) / (3.0 * self.beta)
        return -integral + c * self._htail(c) / 3.0

    def mgf(self, nu):
        return math.inf if nu != 0.0 else 1.0

    def mgf_prime(self, nu):
        return math.inf

    def tilt(self, nu0):
        raise ModelError("heavy-tailed step law has no exponential moments")

    def support(self):
        return (-math.inf, math.inf)


def make_counterexample2(beta: float, limit_point: str = "zero") -> LevyModel:
    """Model with truncated mean diverging to -inf but dominated by its own
    compensator: the drifting ratio explodes downward while the running
    maximum ratio explodes upward, so tau_u/u collapses to 0.

    limit_point "zero" gives the small-time infinite-activity construction;
    "infinity" gives the large-time compound Poisson analogue with a heavy
    two-sided step law (negative side dominant).
    """
    if not 0.5 < beta < 1.0:
        raise ModelError("beta must lie in (1/2, 1)")
    if limit_point == "zero":
        pos = lambda x: _ce2_zero_pos_tail(x, beta)
        neg = lambda x: 0.5 * _ce2_zero_pos_tail(x, beta)
        measure = JumpMeasure(
            pos_tail=pos,
            neg_tail=neg,
            breakpoints=(math.exp(-1.0),),
            pos_support=math.exp(-1.0),
            neg_support=math.exp(-1.0),
            total_rate=math.inf,
            description="slowly varying heavy small-jump tails",
        )
        hooks = ModelHooks(mean=0.0, is_bv=False,
                           drifts_to=0, regular_upward=True)
        return LevyModel(0.0, 0.0, measure, Family.COUNTEREXAMPLE_2,
                         {"beta": beta, "limit_point": "zero"}, hooks)
    if limit_point == "infinity":
        law = _HeavyStep(beta)
        measure = compound_measure(1.0, law,
                                   "heavy two-sided steps, negative dominant")
        hooks = ModelHooks(
            mean=math.nan,
            is_bv=True,
            drift_bv=0.0,
            drifts_to=None,
            regular_upward=False,
        )
        return LevyModel(0.0, 0.0, measure, Family.COUNTEREXAMPLE_2,
                         {"beta": beta, "limit_point": "infinity"}, hooks)
    raise ModelError("limit_point must be 'zero' or 'infinity'")


def custom_model(gamma: float, sigma2: float,
                 pos_tail="0", neg_tail="0",
                 pos_support: float = math.inf,
                 neg_support: float = math.inf,
                 breakpoints=()) -> LevyModel:
    """Model from tail expressions in x (see tail_expr grammar)."""
    pos = parse_tail_expr(pos_tail) if isinstance(pos_tail, str) else pos_tail
    neg = parse_tail_expr(neg_tail) if isinstance(neg_tail, str) else neg_tail

    def clamp(tail, sup):
        def f(x):
            v = np.where(x >= sup, 0.0, tail(x))
            bad = np.flatnonzero(~(np.isfinite(v) & (v >= 0.0)))
            if bad.size:
                i = bad[0]
                raise ModelError(f"tail evaluated to {v.flat[i]} at "
                                 f"x={np.asarray(x).flat[i]}")
            return float_or_array(v)
        return f

    def probe_zero(tail, sup):
        # a side given as the zero expression should not count as jump mass
        if sup == 0.0:
            return 0.0
        probes = [p for p in (1e-9, 1e-3, 1.0, 1e3) if p < sup]
        if all(float(tail(p)) == 0.0 for p in probes):
            return 0.0
        return sup

    pos_support = probe_zero(pos, pos_support)
    neg_support = probe_zero(neg, neg_support)
    measure = JumpMeasure(
        pos_tail=clamp(pos, pos_support),
        neg_tail=clamp(neg, neg_support),
        breakpoints=tuple(breakpoints),
        pos_support=pos_support,
        neg_support=neg_support,
        total_rate=math.inf,
        description="custom tails",
    )
    model = LevyModel(gamma, sigma2, measure, Family.CUSTOM, {
        "pos_tail": getattr(pos, "source", "<callable>"),
        "neg_tail": getattr(neg, "source", "<callable>"),
    })
    validate_model(model)
    return model


# ---------------------------------------------------------------------------
# stability classification


def default_grid(regime: Regime, decades: float = 8.0, points: int = 17):
    """Grid of scales running toward the regime's limit point."""
    if regime.small_time:
        return np.logspace(0.0, -decades, points)
    return np.logspace(0.0, decades, points)


_CLASSIFY_RTOL = 0.05     # relative tolerance of the grid-limit scans


def _scan_limit(values):
    """Classify the tail of a sequence ordered toward its limit point.

    Returns ("stable", limit), ("diverging", sign) or ("unknown", None).
    """
    v = [float(x) for x in values]
    v1, v2, v3 = v[-3], v[-2], v[-1]
    scale = 1.0 + abs(v3)
    tol = _CLASSIFY_RTOL * scale
    spread = max(v1, v2, v3) - min(v1, v2, v3)
    d1, d2 = v2 - v1, v3 - v2
    monotone = (d1 * d2 >= 0.0) or (abs(d1) <= tol and abs(d2) <= tol)
    if spread <= tol and monotone:
        return "stable", v3
    tail = v[-5:] if len(v) >= 5 else v
    mags = [abs(t) for t in tail]
    increasing = all(b >= a for a, b in zip(mags, mags[1:]))
    if increasing and mags[-1] > 2.0 * mags[0] + 1.0:
        return "diverging", (1 if v3 > 0 else -1)
    return "unknown", None


def _grid_evidence(model: LevyModel, grid):
    rows = []
    for x in grid:
        x = float(x)
        a = truncated_mean(model, x)
        z = x * model.measure.total_tail(x)
        rows.append((x, a, z))
    return tuple(rows)


def classify_stability(model: LevyModel, regime: Regime,
                       grid=None) -> StabilityVerdict:
    """Decide whether tau_u / u converges in the given regime.

    Convergence-in-probability regimes scan the truncated mean A(x) and the
    mass ratio x Pibar(x) on a grid running toward the limit point: the
    verdict is yes with constant c when both the vanishing-mass condition
    and A(x) -> c > 0 are detected, a definite no when the detected limit is
    nonpositive or |A| diverges, and inconclusive otherwise. Almost-sure and
    mean regimes use moment and ladder facts instead (finite mean, bounded
    variation drift, ladder drift over expected inverse local time).
    """
    if grid is None:
        grid = default_grid(regime)
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 8:
        raise ModelError("grid needs at least 8 points")
    span = abs(math.log10(grid[-1] / grid[0]))
    if span < 4.0:
        raise ModelError("grid must span at least 4 decades")
    expected = -1.0 if regime.small_time else 1.0
    if math.copysign(1.0, grid[-1] - grid[0]) != expected:
        raise ModelError("grid must run toward the regime's limit point")

    if regime in (Regime.PROB_LARGE, Regime.PROB_SMALL):
        return _classify_prob(model, regime, grid)
    if regime in (Regime.AS_LARGE, Regime.AS_SMALL):
        return _classify_as(model, regime, grid)
    return _classify_mean(model, regime, grid)


def _classify_prob(model, regime, grid):
    if regime is Regime.PROB_SMALL and model.sigma2 > 0.0:
        return StabilityVerdict(
            regime, math.inf, "no", (),
            "Gaussian component dominates small times; the maximum ratio "
            "explodes and tau_u/u -> 0")
    evidence = _grid_evidence(model, grid)
    a_state, a_val = _scan_limit([r[1] for r in evidence])
    z_vals = [r[2] for r in evidence]
    if a_state == "stable":
        z_tol = _CLASSIFY_RTOL * (1.0 + abs(a_val))
        z_last = z_vals[-3:]
        z_vanishes = (max(z_last) <= z_tol
                      and z_last[2] <= z_last[0] + 0.5 * z_tol)
        if a_val > _CLASSIFY_RTOL:
            if z_vanishes:
                return StabilityVerdict(
                    regime, a_val, "yes", evidence,
                    f"A(x) -> {a_val:.6g} with x*Pibar(x) vanishing")
            z_state, z_val = _scan_limit(z_vals)
            if z_state == "stable" and z_val > z_tol:
                return StabilityVerdict(
                    regime, math.nan, "no", evidence,
                    f"residual jump mass x*Pibar(x) -> {z_val:.3g} does not vanish")
            return StabilityVerdict(
                regime, math.nan, "inconclusive", evidence,
                "A(x) stabilized but x*Pibar(x) not resolved on this grid")
        c = max(a_val, 0.0)
        return StabilityVerdict(
            regime, c, "no", evidence,
            f"A(x) -> {a_val:.6g} <= 0: no positive stability constant "
            "(the passage ratio diverges)")
    if a_state == "diverging":
        return StabilityVerdict(
            regime, math.inf, "no", evidence,
            "A(x) diverges (|A| -> inf): no finite stability constant")
    return StabilityVerdict(regime, math.nan, "inconclusive", evidence,
                            "A(x) did not stabilize on this grid")


def _classify_as(model, regime, grid):
    evidence = _grid_evidence(model, grid)
    if regime is Regime.AS_LARGE:
        mean = process_mean(model)
        if not math.isfinite(mean):
            return StabilityVerdict(regime, math.nan, "no", evidence,
                                    "E|X_1| is infinite")
        if mean > 0.0:
            return StabilityVerdict(regime, mean, "yes", evidence,
                                    f"E X_1 = {mean:.6g} > 0")
        return StabilityVerdict(regime, max(mean, 0.0), "no", evidence,
                                f"E X_1 = {mean:.6g} <= 0")
    # small times: needs bounded variation with positive drift
    if model.sigma2 > 0.0:
        return StabilityVerdict(regime, math.inf, "no", evidence,
                                "Gaussian part: paths have unbounded variation")
    bv = model.is_bv()
    if bv is False:
        return StabilityVerdict(regime, math.nan, "no", evidence,
                                "paths have unbounded variation")
    if bv is None:
        return StabilityVerdict(regime, math.nan, "inconclusive", evidence,
                                "bounded variation undecided numerically")
    d = model.drift_bv()
    if d is None:
        return StabilityVerdict(regime, math.nan, "inconclusive", evidence,
                                "drift not available")
    if d > 0.0:
        return StabilityVerdict(regime, d, "yes", evidence,
                                f"bounded variation with drift {d:.6g} > 0")
    return StabilityVerdict(regime, max(d, 0.0), "no", evidence,
                            f"bounded variation drift {d:.6g} <= 0")


def _classify_mean(model, regime, grid):
    evidence = _grid_evidence(model, grid)
    if regime is Regime.MEAN_LARGE:
        mean = process_mean(model)
        if not math.isfinite(mean):
            return StabilityVerdict(regime, math.nan, "no", evidence,
                                    "E|X_1| is infinite")
        if mean > 0.0:
            return StabilityVerdict(regime, mean, "yes", evidence,
                                    f"E tau_u/u -> 1/E X_1, E X_1 = {mean:.6g}")
        return StabilityVerdict(regime, max(mean, 0.0), "no", evidence,
                                "mean passage time is infinite "
                                f"(E X_1 = {mean:.6g} <= 0)")
    h = model.hooks
    if h.ladder_height_drift is not None and h.ladder_time_mean is not None:
        if h.ladder_height_drift > 0.0 and math.isfinite(h.ladder_time_mean):
            c = h.ladder_height_drift / h.ladder_time_mean
            return StabilityVerdict(
                regime, c, "yes", evidence,
                f"ladder drift {h.ladder_height_drift:.6g} over expected "
                f"inverse local time {h.ladder_time_mean:.6g}")
    if not model.measure.has_positive_jumps():
        mean = process_mean(model)
        if mean > 0.0:
            return StabilityVerdict(
                regime, mean, "yes", evidence,
                "spectrally negative, creeping passage: constant equals E X_1")
        return StabilityVerdict(regime, max(mean, 0.0), "no", evidence,
                                "spectrally negative with E X_1 <= 0: "
                                "passage has infinite mean")
    return StabilityVerdict(regime, math.nan, "inconclusive", evidence,
                            "no ladder constants available for this family")
