"""Jump law and jump measure tests against closed forms."""

import math

import numpy as np
import pytest

from levy_passage.measures import (AtomJump, ExponentialJump, JumpMeasure,
                                   UniformJump, compound_measure,
                                   tail_table_inverse)
from levy_passage.rng import stream


# ---------------------------------------------------------------------------
# exponential law


def test_exponential_tails_and_moments():
    law = ExponentialJump(2.0)
    assert law.tail_pos(0.5) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert law.tail_neg(0.5) == 0.0
    assert law.mean() == 0.5
    assert law.second_moment() == 0.5
    down = ExponentialJump(2.0, sign=-1)
    assert down.tail_neg(0.5) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert down.tail_pos(0.5) == 0.0
    assert down.mean() == -0.5


def test_exponential_mean_small_matches_quadrature():
    law = ExponentialJump(1.5)
    c = 0.8
    from scipy.integrate import quad
    val, _ = quad(lambda x: x * 1.5 * math.exp(-1.5 * x), 0.0, c)
    assert law.mean_small(c) == pytest.approx(val, rel=1e-10)


def test_exponential_mgf_and_tilt():
    law = ExponentialJump(2.0)
    assert law.mgf(1.0) == pytest.approx(2.0, rel=1e-15)
    assert law.mgf(2.0) == math.inf
    tilted, norm = law.tilt(1.0)
    assert tilted.alpha == pytest.approx(1.0)
    assert norm == pytest.approx(2.0)
    with pytest.raises(ValueError):
        law.tilt(2.5)


def test_exponential_sampling_moments():
    law = ExponentialJump(2.0)
    x = law.sample(stream(42), 200_000)
    assert np.mean(x) == pytest.approx(0.5, abs=4 * 0.5 / math.sqrt(200_000))


# ---------------------------------------------------------------------------
# uniform (exponentially weighted) law


def test_uniform_tails():
    law = UniformJump(-1.0, 3.0)
    assert law.tail_pos(1.0) == pytest.approx(0.5)
    assert law.tail_neg(0.5) == pytest.approx(0.125)
    assert law.tail_pos(3.0) == 0.0
    assert law.tail_neg(1.0) == 0.0
    assert law.mean() == pytest.approx(1.0)


def test_uniform_weighted_normalizes():
    law = UniformJump(0.0, 1.0, theta=2.0)
    # density e^{2x} / Z on (0,1); tail at 0 is total mass 1
    assert law.tail_pos(1e-12) == pytest.approx(1.0, rel=1e-9)
    assert law.mgf(0.0) == pytest.approx(1.0, rel=1e-14)
    tilted, norm = law.tilt(1.0)
    assert tilted.theta == pytest.approx(3.0)
    assert norm == pytest.approx(law.mgf(1.0), rel=1e-14)


def test_uniform_sampling_matches_mean():
    law = UniformJump(0.0, 1.0, theta=2.0)
    x = law.sample(stream(7), 100_000)
    assert np.all((x >= 0.0) & (x <= 1.0))
    assert np.mean(x) == pytest.approx(law.mean(), abs=0.005)


# ---------------------------------------------------------------------------
# atom law


def test_atom_is_lattice_with_step_tail():
    law = AtomJump(-1.0)
    assert law.is_lattice
    assert law.tail_neg(0.5) == 1.0
    assert law.tail_neg(1.0) == 0.0
    assert law.tail_pos(0.5) == 0.0
    assert law.mean() == -1.0
    assert law.mgf(2.0) == pytest.approx(math.exp(-2.0))
    with pytest.raises(ValueError):
        AtomJump(0.0)


# ---------------------------------------------------------------------------
# compound measures


def test_compound_measure_scales_tails_by_rate():
    m = compound_measure(3.0, ExponentialJump(1.0))
    assert m.is_finite_activity
    assert m.total_rate == 3.0
    assert m.pos_tail(1.0) == pytest.approx(3.0 * math.exp(-1.0))
    assert m.neg_tail(1.0) == 0.0
    assert m.has_positive_jumps()
    assert not m.has_negative_jumps()
    assert m.total_tail(0.5) == pytest.approx(3.0 * math.exp(-0.5))


def test_compound_measure_lattice_flag_follows_law():
    assert compound_measure(1.0, AtomJump(-1.0)).is_lattice
    assert not compound_measure(1.0, ExponentialJump(1.0)).is_lattice


def test_finite_activity_sampler_requires_zero_cutoff():
    m = compound_measure(2.0, ExponentialJump(1.0))
    s = m.sampler(0.0)
    assert s.rate == 2.0
    with pytest.raises(ValueError):
        m.sampler(0.1)


# ---------------------------------------------------------------------------
# tabulated inverse tails (infinite-activity sampling path)


def test_tail_table_inverse_power_law():
    # tail(x) = x^-1 on (lo, hi]; inverse is v -> 1/v
    q = tail_table_inverse(lambda x: 1.0 / x, 1e-3, 1e3)
    for v in (0.01, 0.1, 1.0, 10.0):
        assert float(q(v)) == pytest.approx(1.0 / v, rel=1e-4)


def test_tail_table_inverse_atom_becomes_flat_stretch():
    # unit mass at x=2 on top of x^-1: tail has a drop of 1 at 2
    def tail(x):
        return 1.0 / x + (1.0 if x < 2.0 else 0.0)

    q = tail_table_inverse(tail, 1e-2, 1e2, breakpoints=(2.0,))
    # values inside the drop (0.5, 1.5) all map to the atom position
    assert float(q(0.7)) == pytest.approx(2.0, rel=1e-6)
    assert float(q(1.2)) == pytest.approx(2.0, rel=1e-6)


def test_infinite_activity_sampler_draws_above_cutoff():
    # two-sided 0.5 * x^-1 tails, cut at eps
    m = JumpMeasure(
        pos_tail=lambda x: 0.5 / x,
        neg_tail=lambda x: 0.5 / x,
        total_rate=math.inf,
    )
    eps = 0.01
    s = m.sampler(eps)
    assert s.rate == pytest.approx(m.total_tail(eps), rel=1e-12)
    x = s.draw(stream(3), 50_000)
    assert np.all(np.abs(x) >= eps * (1.0 - 1e-9))
    # symmetric measure: signs roughly balanced
    assert abs(np.mean(x > 0) - 0.5) < 0.02


@pytest.mark.parametrize("two_sided", [True, False], ids=["two", "one"])
def test_inverse_tail_rows_inverted_together_match_their_draws(two_sided):
    # draw(rng, n) reads 2n uniforms, n that choose each jump's side and n
    # for its quantile; rows that each draw random(2n) and are inverted in
    # one call, in sorted order, get every row's jumps as np.interp gives
    # them point by point (70 rows of 64 jumps give np.interp more points
    # than table nodes, where it precomputes slopes)
    eps, hi = 0.01, 1e12
    m = JumpMeasure(pos_tail=lambda x: 0.5 / x,
                    neg_tail=lambda x: 0.3 / x if two_sided else 0.0,
                    neg_support=math.inf if two_sided else 0.0,
                    total_rate=math.inf)
    draw = m.sampler(eps).draw
    n, rows = 64, 70
    rng = stream(5)
    assert np.array_equal(np.concatenate((rng.random(n), rng.random(n))),
                          stream(5).random(2 * n))
    uv = np.stack([stream(5, 0, r).random(2 * n) for r in range(rows)])
    r_pos, r_neg = m.pos_tail(eps), m.neg_tail(eps)
    pos = tail_table_inverse(m.pos_tail, eps, hi)
    want = np.stack([pos(row[n:] * r_pos) for row in uv])
    if two_sided:
        neg = tail_table_inverse(m.neg_tail, eps, hi)
        cut = r_pos / (r_pos + r_neg)
        want = np.where(uv[:, :n] < cut, want,
                        np.stack([-neg(row[n:] * r_neg) for row in uv]))
    assert np.array_equal(draw.from_uniforms(uv), want)
    assert np.array_equal(draw(stream(5, 0, 3), n), want[3])
    assert (np.any(want < 0.0) == two_sided) and np.all(np.abs(want) >= eps)
