"""Jump measures: tails, unit jump laws, and size samplers.

Two representations cooperate here. Finite-activity families carry a
`JumpLaw` (the normalized law of one jump) plus a total rate, which gives
exact event samplers and closed-form transforms. Infinite-activity measures
are described purely by their one-sided tail functions, and sampling of the
jumps with modulus above a cutoff goes through a tabulated generalized
inverse of the tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .quadrature import float_or_array, tail_values

__all__ = [
    "JumpLaw",
    "ExponentialJump",
    "UniformJump",
    "AtomJump",
    "JumpMeasure",
    "SizeSampler",
    "compound_measure",
    "tail_table_inverse",
]


# ---------------------------------------------------------------------------
# unit jump laws for compound (finite activity) families


class JumpLaw:
    """Distribution of a single signed jump. Subclasses fill in the API."""

    is_lattice = False

    def tail_pos(self, x: float) -> float:
        """P(J > x) for x > 0."""
        raise NotImplementedError

    def tail_neg(self, x: float) -> float:
        """P(J < -x) for x > 0."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def second_moment(self) -> float:
        raise NotImplementedError

    def mean_small(self, c: float) -> float:
        """E[J 1{|J| <= c}]."""
        raise NotImplementedError

    def mgf(self, nu: float) -> float:
        """E e^{nu J}, +inf when divergent."""
        raise NotImplementedError

    def mgf_prime(self, nu: float) -> float:
        """E[J e^{nu J}], +inf when divergent."""
        raise NotImplementedError

    def tilt(self, nu0: float):
        """Return (tilted law, E e^{nu0 J}). Density picks up e^{nu0 x}."""
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        raise NotImplementedError


@dataclass(frozen=True)
class ExponentialJump(JumpLaw):
    """J = sign * E with E ~ Exp(alpha) (mean 1/alpha)."""

    alpha: float
    sign: int = 1

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +-1")

    def tail_pos(self, x):
        return float_or_array(np.exp(-self.alpha * x)) if self.sign > 0 \
            else 0.0

    def tail_neg(self, x):
        return float_or_array(np.exp(-self.alpha * x)) if self.sign < 0 \
            else 0.0

    def sample(self, rng, n):
        return self.sign * rng.exponential(scale=1.0 / self.alpha, size=n)

    def mean(self):
        return self.sign / self.alpha

    def second_moment(self):
        return 2.0 / self.alpha**2

    def mean_small(self, c):
        # E[E 1{E<=c}] = (1 - e^{-a c}(1 + a c)) / a
        a = self.alpha
        return self.sign * (1.0 - math.exp(-a * c) * (1.0 + a * c)) / a

    def mgf(self, nu):
        s = self.sign * nu
        if s >= self.alpha:
            return math.inf
        return self.alpha / (self.alpha - s)

    def mgf_prime(self, nu):
        s = self.sign * nu
        if s >= self.alpha:
            return math.inf
        return self.sign * self.alpha / (self.alpha - s) ** 2

    def tilt(self, nu0):
        s = self.sign * nu0
        if s >= self.alpha:
            raise ValueError("tilt outside the integrability region")
        return ExponentialJump(self.alpha - s, self.sign), self.alpha / (self.alpha - s)

    def support(self):
        return (0.0, math.inf) if self.sign > 0 else (-math.inf, 0.0)


@dataclass(frozen=True)
class UniformJump(JumpLaw):
    """Density proportional to e^{theta x} on (lo, hi); theta=0 is uniform."""

    lo: float
    hi: float
    theta: float = 0.0

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")

    def _z(self):
        return float(self._cdf_piece(self.lo, self.hi))

    def _cdf_piece(self, a, b):
        # integral of e^{theta x} over (a, b), unnormalized; expm1 keeps
        # the digits that e^{theta b} - e^{theta a} loses at small theta
        t = self.theta
        if t == 0.0:
            return b - a
        return np.exp(t * a) * np.expm1(t * (b - a)) / t

    def tail_pos(self, x):
        # the clip makes the piece empty at and beyond hi
        return float_or_array(self._cdf_piece(
            np.clip(x, self.lo, self.hi), self.hi) / self._z())

    def tail_neg(self, x):
        return float_or_array(self._cdf_piece(
            self.lo, np.clip(-x, self.lo, self.hi)) / self._z())

    def sample(self, rng, n):
        u = rng.random(n)
        t = self.theta
        if t == 0.0:
            return self.lo + (self.hi - self.lo) * u
        elo = math.exp(t * self.lo)
        ehi = math.exp(t * self.hi)
        return np.log(elo + u * (ehi - elo)) / t

    def mean(self):
        return _power_exp_integral(1, self.theta, self.lo, self.hi) / self._z()

    def second_moment(self):
        return _power_exp_integral(2, self.theta, self.lo, self.hi) / self._z()

    def mean_small(self, c):
        a = max(self.lo, -c)
        b = min(self.hi, c)
        if a >= b:
            return 0.0
        return _power_exp_integral(1, self.theta, a, b) / self._z()

    def mgf(self, nu):
        shifted = UniformJump(self.lo, self.hi, self.theta + nu)
        return shifted._z() / self._z()

    def mgf_prime(self, nu):
        return _power_exp_integral(1, self.theta + nu, self.lo,
                                   self.hi) / self._z()

    def tilt(self, nu0):
        return UniformJump(self.lo, self.hi, self.theta + nu0), self.mgf(nu0)

    def support(self):
        return (self.lo, self.hi)


def _unit_power_exp(j: int, z: float) -> float:
    """int_0^1 v^j e^{z v} dv: its series sum z^n / (n! (n + j + 1)) near
    0, else the recurrence F_j = (e^z - j F_{j-1}) / z from expm1(z) / z."""
    if abs(z) < 2.0:
        return sum(z ** n / (math.factorial(n) * (n + j + 1))
                   for n in range(30))
    f = math.expm1(z) / z
    for i in range(1, j + 1):
        f = (math.exp(z) - i * f) / z
    return f


def _power_exp_integral(k: int, t: float, a: float, b: float) -> float:
    """int_a^b x^k e^{t x} dx, summed from nonnegative terms on each side
    of 0: with h = b - a >= 0 and a >= 0 it is
    h e^{t a} sum_j C(k, j) a^{k-j} h^j F_j(t h)."""
    if a < 0.0 < b:
        return (_power_exp_integral(k, t, a, 0.0)
                + _power_exp_integral(k, t, 0.0, b))
    if b <= 0.0:
        return (-1) ** k * _power_exp_integral(k, -t, -b, -a)
    h = b - a
    return h * math.exp(t * a) * sum(
        math.comb(k, j) * a ** (k - j) * h ** j * _unit_power_exp(j, t * h)
        for j in range(k + 1))


@dataclass(frozen=True)
class AtomJump(JumpLaw):
    """Deterministic jump of a fixed nonzero size."""

    size: float
    is_lattice: bool = field(default=True, init=False)

    def __post_init__(self):
        if self.size == 0.0:
            raise ValueError("atom size must be nonzero")

    def tail_pos(self, x):
        return 1.0 * ((0.0 < x) & (x < self.size))

    def tail_neg(self, x):
        return 1.0 * ((0.0 < x) & (x < -self.size))

    def sample(self, rng, n):
        return np.full(n, self.size)

    def mean(self):
        return self.size

    def second_moment(self):
        return self.size**2

    def mean_small(self, c):
        return self.size if abs(self.size) <= c else 0.0

    def mgf(self, nu):
        return math.exp(nu * self.size)

    def mgf_prime(self, nu):
        return self.size * math.exp(nu * self.size)

    def tilt(self, nu0):
        return self, math.exp(nu0 * self.size)

    def support(self):
        return (min(self.size, 0.0), max(self.size, 0.0))


# ---------------------------------------------------------------------------
# measures


class SizeSampler:
    """Sampler for jump sizes of modulus above a cutoff.

    Attributes:
        rate: arrival intensity of the sampled jumps.
    """

    def __init__(self, rate: float, draw: Callable[[np.random.Generator, int], np.ndarray]):
        self.rate = float(rate)
        self._draw = draw

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self._draw(rng, n)


@dataclass
class JumpMeasure:
    """Levy measure described through its one-sided tails.

    pos_tail(x) is the mass of jumps exceeding x, neg_tail(x) the mass of
    jumps below -x, both for x > 0, both nonincreasing and right continuous.
    A tail takes a float or an array of floats and returns its values
    there, or one float where it is constant: the quadrature and the
    inverse-tail tables evaluate it once on an array of nodes.
    `law` is set for finite-activity compound measures and enables exact
    sampling and closed-form transforms; infinite-activity measures sample
    through a tabulated inverse of the tails.
    """

    pos_tail: Callable[[float], float]
    neg_tail: Callable[[float], float]
    breakpoints: tuple = ()
    pos_support: float = math.inf
    neg_support: float = math.inf
    total_rate: float = math.inf
    law: Optional[JumpLaw] = None
    is_lattice: bool = False
    description: str = ""

    @property
    def is_finite_activity(self) -> bool:
        return math.isfinite(self.total_rate)

    def total_tail(self, x: float) -> float:
        """Mass of jumps with modulus above x."""
        return self.pos_tail(x) + self.neg_tail(x)

    def has_positive_jumps(self) -> bool:
        return self.pos_support > 0.0

    def has_negative_jumps(self) -> bool:
        return self.neg_support > 0.0

    def sampler(self, eps: float) -> SizeSampler:
        """Sampler for jumps of modulus > eps (eps may be 0 if finite rate)."""
        if self.law is not None:
            if eps > 0.0:
                raise ValueError(
                    "finite-activity measures are sampled exactly; use eps=0")
            return SizeSampler(self.total_rate,
                               lambda rng, n: self.law.sample(rng, n))
        if eps <= 0.0:
            raise ValueError("infinite-activity measure needs a positive cutoff")
        return _inverse_tail_sampler(self, eps)


def compound_measure(rate: float, law: JumpLaw, description: str = "") -> JumpMeasure:
    """Finite-activity measure: intensity `rate`, jump sizes from `law`."""
    if rate < 0:
        raise ValueError("rate must be nonnegative")
    lo, hi = law.support() if rate > 0 else (0.0, 0.0)
    breakpoints = tuple(
        abs(b) for b in (lo, hi) if b not in (0.0, math.inf, -math.inf))
    return JumpMeasure(
        pos_tail=lambda x: rate * law.tail_pos(x) if rate else 0.0,
        neg_tail=lambda x: rate * law.tail_neg(x) if rate else 0.0,
        breakpoints=breakpoints,
        pos_support=max(hi, 0.0),
        neg_support=max(-lo, 0.0),
        total_rate=rate,
        law=law,
        is_lattice=law.is_lattice,
        description=description,
    )


# ---------------------------------------------------------------------------
# tabulated generalized inverse of a nonincreasing tail


def tail_table_inverse(tail, lo: float, hi: float, breakpoints=(), points=4096):
    """Build v -> inf{x : tail(x) < v} as an interpolation table.

    Works for tails with flat stretches and downward jumps (atoms): table
    abscissae are log spaced on (lo, hi] with breakpoints inserted twice so
    atom positions are hit exactly by the interpolation.
    """
    if not (0.0 < lo < hi < math.inf):
        raise ValueError("need 0 < lo < hi < inf")
    xs = np.exp(np.linspace(math.log(lo), math.log(hi), points))
    extra = []
    for b in breakpoints:
        if lo < b <= hi:
            extra.extend([b * (1 - 1e-12), b])
    if extra:
        xs = np.unique(np.concatenate([xs, np.asarray(extra)]))
    ts = tail_values(tail, xs)
    # enforce numerical monotonicity (tiny evaluation wiggle only)
    ts = np.minimum.accumulate(ts)
    # np.interp wants nondecreasing xp, so reverse (tail decreases in x).
    # Duplicated values are kept on purpose: runs of equal tail values are
    # mass gaps and become jumps of the inverse, while steep drops across a
    # doubled breakpoint are atoms and become flat stretches. np.interp on
    # the full node list realizes exactly that generalized inverse.
    vp = np.ascontiguousarray(ts[::-1])
    xp = np.ascontiguousarray(xs[::-1])

    def quantile(v):
        v = np.asarray(v, dtype=float)
        return np.interp(v, vp, xp)

    return quantile


def _inverse_tail_sampler(measure: JumpMeasure, eps: float) -> SizeSampler:
    rates = []
    quantiles = []
    signs = []
    for sign, tail, sup in (
        (1.0, measure.pos_tail, measure.pos_support),
        (-1.0, measure.neg_tail, measure.neg_support),
    ):
        if sup <= eps:
            continue
        m = tail(eps)
        if m <= 0.0:
            continue
        hi = sup if math.isfinite(sup) else max(1.0, eps) * 1e12
        quantiles.append(
            tail_table_inverse(tail, eps, hi, measure.breakpoints))
        rates.append(m)
        signs.append(sign)
    total = sum(rates)
    if total <= 0.0:
        raise ValueError(f"no jump mass above eps={eps}")
    probs = np.array(rates) / total
    signs = np.array(signs)

    def draw(rng, n):
        out = np.empty(n)
        which = rng.random(n)
        v = rng.random(n)
        cut = probs[0] if len(probs) > 1 else 1.1
        first = which < cut
        idx0 = np.flatnonzero(first)
        idx1 = np.flatnonzero(~first)
        if idx0.size:
            out[idx0] = signs[0] * quantiles[0](v[idx0] * rates[0])
        if idx1.size:
            out[idx1] = signs[1] * quantiles[1](v[idx1] * rates[1])
        return out

    return SizeSampler(total, draw)
