"""Quadrature and root-finder tests against closed forms."""

import math

import numpy as np
import pytest

from levy_passage.quadrature import (brent_root, integrate_tail,
                                     integrate_tail_to_inf,
                                     integrate_tail_to_zero, integrate_tails,
                                     tail_values)


def test_power_law_on_interval():
    # int_1^10 x^-2 dx = 1 - 1/10
    val = integrate_tail(lambda x: x ** -2, 1.0, 10.0)
    assert val == pytest.approx(0.9, rel=1e-10)


def test_exponential_to_infinity():
    val = integrate_tail_to_inf(lambda x: math.exp(-x), 1.0)
    assert val == pytest.approx(math.exp(-1.0), rel=1e-9)


def test_integrable_singularity_to_zero():
    # int_0^1 x^-1/2 dx = 2
    val = integrate_tail_to_zero(lambda x: x ** -0.5, 1.0)
    assert val == pytest.approx(2.0, rel=1e-8)


def test_divergent_tail_returns_inf_sentinel():
    assert integrate_tail_to_inf(lambda x: 1.0 / x, 1.0) == math.inf
    assert integrate_tail_to_inf(lambda x: 1.0, 1.0) == math.inf


def test_breakpoints_split_discontinuity():
    # step function: 2 on (0.5, 2], 0 beyond; exact area on (0.1, 3) is 3.0
    f = lambda x: 2.0 if 0.5 < x <= 2.0 else 0.0
    val = integrate_tail(f, 0.1, 3.0, breakpoints=(0.5, 2.0))
    assert val == pytest.approx(3.0, rel=1e-9)


def test_bad_ranges_raise():
    with pytest.raises(ValueError):
        integrate_tail(lambda x: x, -1.0, 1.0)
    with pytest.raises(ValueError):
        integrate_tail(lambda x: x, 2.0, 1.0)
    with pytest.raises(ValueError):
        integrate_tail_to_zero(lambda x: x, 0.0)
    with pytest.raises(ValueError):
        integrate_tail_to_inf(lambda x: x, 0.0)


def test_log_spaced_panels_handle_wide_ranges():
    # int_1e-6^1e6 x^-1 dx = ln(1e12)
    val = integrate_tail(lambda x: 1.0 / x, 1e-6, 1e6)
    assert val == pytest.approx(12.0 * math.log(10.0), rel=1e-9)


def test_array_integrand_is_called_once_per_round():
    calls = []

    def f(x):
        calls.append(np.shape(x))
        return np.exp(-x)

    val = integrate_tail(f, 1.0, 10.0)
    assert val == pytest.approx(math.exp(-1.0) - math.exp(-10.0), rel=1e-12)
    assert 1 <= len(calls) <= 12
    assert all(len(shape) == 2 for shape in calls)


def test_batched_intervals_match_single_calls():
    # each interval of a batch, overlapping or not, is refined under its
    # own tolerance, as in a call of its own
    f = lambda x: np.where(x < 2.0, 1.0 / x, np.exp(-x))
    a = np.array([0.1, 0.5, 1.0, 3.0, 3.0])
    b = np.array([1.0, 4.0, 2.5, 50.0, 60.0])
    batch = integrate_tails(f, a, b, breakpoints=(2.0,))
    single = [integrate_tail(f, lo, hi, (2.0,)) for lo, hi in zip(a, b)]
    assert batch == pytest.approx(single, rel=1e-11, abs=0.0)
    assert integrate_tails(f, [], []).shape == (0,)


def test_error_control_resolves_unlisted_kinks_and_jumps():
    # |x - e| kinks at e; the step drops at 2; neither is a breakpoint
    kink = integrate_tail(lambda x: np.abs(x - math.e), 1.0, 10.0)
    exact = ((math.e - 1.0) ** 2 + (10.0 - math.e) ** 2) / 2.0
    assert kink == pytest.approx(exact, rel=1e-10)
    step = integrate_tail(lambda x: np.where(x < 2.0, 1.0, 0.0), 1.0, 3.0)
    assert step == pytest.approx(1.0, rel=1e-10)


def test_scalar_only_integrands_are_evaluated_point_by_point():
    f = lambda x: math.exp(-x) if x < 5.0 else 0.0
    val = integrate_tail(f, 1.0, 8.0, breakpoints=(5.0,))
    assert val == pytest.approx(math.exp(-1.0) - math.exp(-5.0), rel=1e-12)
    assert tail_values(lambda x: 2.0, np.ones((2, 3))).tolist() == \
        [[2.0] * 3] * 2


def test_brent_root_finds_bracketed_roots():
    assert brent_root(lambda x: x ** 3 - 2.0, 0.0, 2.0) == pytest.approx(
        2.0 ** (1.0 / 3.0), rel=1e-14)
    r = brent_root(lambda x: math.cos(x) - x, 0.0, 1.0, xtol=1e-300,
                   rtol=1e-13)
    assert abs(math.cos(r) - r) < 1e-14
    assert brent_root(lambda x: x - 1.0, 1.0, 3.0) == 1.0
    with pytest.raises(ValueError, match="no sign change"):
        brent_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_brent_root_returns_scipy_brentq_roots_bitwise():
    brentq = pytest.importorskip("scipy.optimize").brentq
    cases = [(lambda x: x ** 3 - 2.0, 0.0, 2.0, {}),
             (lambda x: math.exp(2.0 * x) - 1.0 - 3.0 * x, 0.1, 2.0,
              {"rtol": 1e-13, "xtol": 1e-300}),
             (lambda x: math.tanh(4.0 * (x - 0.3)), -5.0, 5.0, {}),
             (lambda x: math.atan(x - 1.7), -1.0, 4.0, {"xtol": 1e-10}),
             (lambda x: math.sin(3.0 * x) + 0.4, -0.5, 0.9, {})]
    for f, a, b, kw in cases:
        assert brent_root(f, a, b, **kw) == brentq(f, a, b, **kw)
