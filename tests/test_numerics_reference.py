"""Numerics against scipy references computed at test time.

Every tail integral, cumulant, small-jump variance, root and jump-law moment
the package computes by quadrature or root finding is compared here with an
independent scipy computation: `quad` on the density or tail form of the
same integral with tighter tolerances, and `brentq` on an equation whose
left side is itself a `quad` reference. scipy is only the tests' reference;
the package does not import it.
"""

import math

import numpy as np
import pytest

quad = pytest.importorskip("scipy.integrate").quad
brentq = pytest.importorskip("scipy.optimize").brentq

from levy_passage.cramer import esscher_tilt, solve_lundberg  # noqa: E402
from levy_passage.ladder import _phi  # noqa: E402
from levy_passage.measures import UniformJump  # noqa: E402
from levy_passage.models import (cumulant, custom_model,  # noqa: E402
                                 make_counterexample1, make_counterexample2,
                                 small_jump_variance, truncated_mean)
from levy_passage.quadrature import integrate_tail  # noqa: E402

RTOL = 1e-10
EXP2 = "pow(2.718281828459045, -2*x)"
E2 = 2.718281828459045 ** -2
# jump-diffusion with symmetric Exp(2) jumps of unit mass on each side
SKELETON = custom_model(1.0, 1.0, EXP2, EXP2)
# cramer-lundberg (1, 2, 1) written as tails: Lundberg root exactly 1
TILT = custom_model(-1.0 + (1.0 - 3.0 * E2) / 2.0, 0.0, EXP2, "0")
# spectrally negative with a Gaussian part: Phi through the quadrature
SN_CUSTOM = custom_model(1.0, 0.5, "0", EXP2)

_QUAD = dict(epsabs=0.0, epsrel=1e-13, limit=500)
# quad warns of roundoff where a reference integrand nearly cancels to zero,
# which the root finders probe on their way to the root
pytestmark = pytest.mark.filterwarnings(
    "ignore::scipy.integrate.IntegrationWarning")


def _close(value, ref, scale=None):
    """|value - ref| <= RTOL * scale, the scale being |ref| by default."""
    scale = abs(ref) if scale is None else scale
    assert math.isfinite(value)
    assert abs(value - ref) <= RTOL * scale, (value, ref,
                                              abs(value - ref) / scale)


def _scalar(tail):
    return lambda x: float(tail(float(x)))


def _ref_tail_integral(tail, a, b, breakpoints):
    """quad in log coordinates, split at the breakpoints inside (a, b)."""
    f = _scalar(tail)
    pts = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]
    return sum(quad(lambda s: f(math.exp(s)) * math.exp(s), math.log(lo),
                    math.log(hi), **_QUAD)[0]
               for lo, hi in zip(pts, pts[1:]))


# ---------------------------------------------------------------------------
# tail integrals over fixed ranges

_TAIL_MODELS = {
    "ce1": make_counterexample1(),
    "ce2-zero": make_counterexample2(0.75, "zero"),
    "ce2-inf": make_counterexample2(0.75, "infinity"),
    "exp2": SKELETON,
}
_RANGES = ((1e-6, 1e-3), (1e-3, 1.0), (1e-9, 0.5))
_TAIL_CASES = [(name, side, rng) for name in _TAIL_MODELS
               for side in ("pos", "neg") for rng in _RANGES
               if not (name == "exp2" and side == "neg")]


@pytest.mark.parametrize("name,side,rng", _TAIL_CASES,
                         ids=[f"{n}-{s}-{r[0]:g}-{r[1]:g}"
                              for n, s, r in _TAIL_CASES])
def test_tail_integrals_match_quad(name, side, rng):
    m = _TAIL_MODELS[name].measure
    tail = m.pos_tail if side == "pos" else m.neg_tail
    a, b = rng
    _close(integrate_tail(tail, a, b, m.breakpoints),
           _ref_tail_integral(tail, a, b, m.breakpoints))


# ---------------------------------------------------------------------------
# cumulants: the Levy-Khintchine integral on the Exp(2) density


def _ref_exp2_side(nu):
    """int_0^inf (e^{nu y} - 1 - nu y 1{y <= 1}) 2 e^{-2y} dy."""
    near = quad(lambda y: (math.expm1(nu * y) - nu * y) * 2.0
                * math.exp(-2.0 * y), 0.0, 1.0, **_QUAD)[0]
    # (e^{nu y} - 1) 2 e^{-2y}, written so that neither factor overflows
    far = quad(lambda y: 2.0 * (math.exp((nu - 2.0) * y)
                                - math.exp(-2.0 * y)), 1.0, math.inf,
               **_QUAD)[0]
    return near + far


def _ref_cumulant(model, nu, pos, neg):
    """Cumulant of model with unit-mass Exp(2) jumps on the flagged sides."""
    out = nu * model.gamma + 0.5 * model.sigma2 * nu * nu
    if pos:
        out += _ref_exp2_side(nu)
    if neg:
        out += _ref_exp2_side(-nu)
    return out


# nu = 1.95 still reads +inf: e^{1.95 y} overflows where the Exp(2) tail is
# subnormal, and past y = 372.6 the tail is 0, which would cut about 1e-8
# of the integral off, far beyond RTOL
_CUMULANT_CASES = ([("skeleton", nu)
                    for nu in (-1.5, -0.5, 0.3, 1.0, 1.8, 1.9)]
                   + [("tilt", nu) for nu in (-1.0, 0.5, 1.5, 1.8, 1.9)])


@pytest.mark.parametrize("name,nu", _CUMULANT_CASES,
                         ids=[f"{n}-{nu:g}" for n, nu in _CUMULANT_CASES])
def test_cumulant_matches_quad(name, nu):
    model, neg = (SKELETON, True) if name == "skeleton" else (TILT, False)
    _close(cumulant(model, nu), _ref_cumulant(model, nu, True, neg))


@pytest.mark.parametrize("nu", [2.0, 2.5])
@pytest.mark.parametrize("model", [SKELETON, TILT], ids=["skeleton", "tilt"])
def test_cumulant_diverges_past_the_exp2_edge(model, nu):
    assert cumulant(model, nu) == math.inf


def test_lundberg_root_matches_brentq():
    ref = brentq(lambda v: _ref_cumulant(TILT, v, True, False), 0.5, 1.5,
                 xtol=1e-15, rtol=1e-15)
    assert ref == pytest.approx(1.0, rel=1e-12)
    _close(solve_lundberg(TILT), ref)


@pytest.mark.parametrize("a", [0.5, 2.0])
def test_phi_matches_brentq(a):
    ref = brentq(lambda v: _ref_cumulant(SN_CUSTOM, v, False, True) - a,
                 1e-9, 10.0, xtol=1e-15, rtol=1e-15)
    _close(_phi(SN_CUSTOM, a, 0.0), ref)


# ---------------------------------------------------------------------------
# small-jump variances, the tilted tail, the kinked truncated mean

# the reference integrates y^2 against the jump density itself, which no
# cancellation touches, and the value must match it to RTOL of itself


def test_small_jump_variance_matches_quad():
    eps = 1e-3
    ref = 2.0 * quad(lambda y: y * y * 2.0 * math.exp(-2.0 * y), 0.0, eps,
                     **_QUAD)[0]
    _close(small_jump_variance(SKELETON, eps), ref)


def _ref_tilted_tail(x, nu0=1.0):
    """int_{y > x} e^{nu0 y} Pi(dy) on the Exp(2) density."""
    return quad(lambda y: 2.0 * math.exp((nu0 - 2.0) * y), x, math.inf,
                **_QUAD)[0]


def test_tilted_small_jump_variance_matches_nested_quad():
    tilted = esscher_tilt(TILT, 1.0).tilted
    eps = 1e-3
    inner = quad(lambda y: y * _ref_tilted_tail(y), 0.0, eps, **_QUAD)[0]
    edge = eps * eps * _ref_tilted_tail(eps)
    _close(small_jump_variance(tilted, eps), 2.0 * inner - edge, scale=edge)


_NODES = np.geomspace(1e-3, 30.0, 20)


@pytest.mark.parametrize("x", _NODES, ids=[f"{x:.4g}" for x in _NODES])
def test_tilted_tail_matches_quad(x):
    tilted = esscher_tilt(TILT, 1.0).tilted
    _close(float(tilted.measure.pos_tail(float(x))), _ref_tilted_tail(x))


def test_kinked_truncated_mean_matches_quad():
    # the tails of the infinity variant kink at x = e, a point the measure
    # does not list as a breakpoint
    m = make_counterexample2(0.75, "infinity")
    pos, neg = _scalar(m.measure.pos_tail), _scalar(m.measure.neg_tail)
    inner = quad(lambda y: pos(y) - neg(y), 1.0, 10.0, points=[math.e],
                 **_QUAD)[0]
    ref = m.gamma + pos(1.0) - neg(1.0) + inner
    _close(truncated_mean(m, 10.0), ref)


# ---------------------------------------------------------------------------
# roots and moments of the jump laws


def test_heavy_step_level_matches_brentq():
    law = make_counterexample2(0.75, "infinity").measure.law
    f = lambda s: (law.beta - 1.0) * math.log(s) + s ** law.beta - s \
        - math.log(1e-13)
    ref = math.exp(brentq(f, 1.0, 500.0, xtol=1e-14, rtol=1e-15))
    _close(law._hi, ref)


_THETAS = (-2.0, 1e-9, 3.0)


def _ref_uniform(law, k, lo, hi, shift=0.0):
    t = law.theta + shift
    val = quad(lambda x: x ** k * math.exp(t * x), lo, hi, **_QUAD)[0]
    z = quad(lambda x: math.exp(law.theta * x), law.lo, law.hi, **_QUAD)[0]
    return val / z


@pytest.mark.parametrize("theta", _THETAS)
def test_uniform_law_moments_match_quad(theta):
    law = UniformJump(-0.5, 2.0, theta)
    _close(law.mean(), _ref_uniform(law, 1, -0.5, 2.0))
    _close(law.second_moment(), _ref_uniform(law, 2, -0.5, 2.0))
    _close(law.mean_small(1.0), _ref_uniform(law, 1, -0.5, 1.0))
    _close(law.mgf_prime(0.7), _ref_uniform(law, 1, -0.5, 2.0, shift=0.7))
    _close(law.mgf(0.7), _ref_uniform(law, 0, -0.5, 2.0, shift=0.7))
    _close(law.tail_pos(1.0), _ref_uniform(law, 0, 1.0, 2.0))
    _close(law.tail_neg(0.25), _ref_uniform(law, 0, -0.5, -0.25))
