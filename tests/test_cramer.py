"""Lundberg root, exponential tilting, importance-sampled ruin.

Root oracles come from hand-solved cumulant polynomials or from an
independent scalar root-find on the explicit equation, frozen below. The
claim-surplus family with unit premium, unit claim rate and claim tail 2
is the standing example: its ruin probability is (1/2) e^{-u} exactly, so
every estimator in this file can be z-scored against a closed form.
"""

import json
import math

import numpy as np
import pytest

from levy_passage.cramer import (conditional_stability_experiment,
                                 esscher_tilt, ruin_is, solve_lundberg,
                                 tilt_identity_check)
from levy_passage.measures import AtomJump
from levy_passage.models import (ModelError, brownian_drift,
                                 compound_poisson_drift, cramer_lundberg,
                                 cumulant, cumulant_derivative, custom_model,
                                 process_mean)
from levy_passage.output import result_payload, write_json
from levy_passage.simulate import SimConfig, passage_sample

CL = cramer_lundberg(1.0, 2.0, 1.0)


def lattice_model():
    # drift -1 plus unit up-jumps at rate 1/2: mean -1/2, lattice overshoot
    return compound_poisson_drift(0.5, AtomJump(1.0), -1.0)


# ---------------------------------------------------------------------------
# the Lundberg root


def test_root_claim_surplus_is_one():
    # psi(nu) = nu (nu - 1) / (2 - nu): positive root exactly 1
    assert solve_lundberg(CL) == pytest.approx(1.0, abs=1e-10)


def test_root_gaussian_drift():
    # psi(nu) = -nu + nu^2: root exactly 1
    assert solve_lundberg(brownian_drift(-1.0, 2.0)) == pytest.approx(
        1.0, abs=1e-12)


def test_root_thin_premium_two_thirds():
    # premium 3/4: -3/4 + 1/(2 - nu) = 0 at nu = 2/3
    m = cramer_lundberg(1.0, 2.0, 0.75)
    assert solve_lundberg(m) == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_root_lattice_jump_model():
    # -nu + (1/2)(e^nu - 1) = 0; scipy brentq on the scalar equation gives
    # 1.256431208626068
    assert solve_lundberg(lattice_model()) == pytest.approx(
        1.256431208626068, rel=1e-12)


def test_root_needs_negative_mean():
    with pytest.raises(ModelError, match="negative mean"):
        solve_lundberg(cramer_lundberg(1.0, 2.0, 0.25))
    with pytest.raises(ModelError, match="negative mean"):
        solve_lundberg(brownian_drift(1.0, 1.0))


# ---------------------------------------------------------------------------
# the tilt


def test_tilt_stays_in_claim_surplus_family():
    t = esscher_tilt(CL, 1.0)
    assert t.tilted.params["lam"] == pytest.approx(2.0, rel=1e-12)
    assert t.tilted.params["alpha"] == pytest.approx(1.0, rel=1e-12)
    assert t.tilted.params["premium"] == 1.0
    assert t.mu_star == pytest.approx(1.0, rel=1e-12)
    assert t.mu_star_finite


def test_tilt_stays_in_gaussian_family():
    m = brownian_drift(-1.0, 2.0)
    t = esscher_tilt(m, 1.0)
    assert t.tilted.params["drift"] == pytest.approx(1.0, rel=1e-12)
    assert t.tilted.sigma2 == 2.0


def test_tilt_of_atom_scales_the_rate():
    m = lattice_model()
    nu0 = solve_lundberg(m)
    t = esscher_tilt(m, nu0)
    assert t.tilted.params["rate"] == pytest.approx(
        0.5 * math.exp(nu0), rel=1e-12)
    assert t.mu_star == pytest.approx(0.5 * math.exp(nu0) - 1.0, rel=1e-10)


def test_tilt_shifts_the_cumulant():
    t = esscher_tilt(CL, 1.0)
    for th in (-1.0, -0.5, 0.0, 0.2, 0.6, 0.9):
        assert cumulant(t.tilted, th) == pytest.approx(
            cumulant(CL, th + 1.0), abs=1e-12)


def test_tilt_at_root_is_an_involution_point():
    # the tilted cumulant vanishes at minus the root
    t = esscher_tilt(CL, solve_lundberg(CL))
    assert abs(cumulant(t.tilted, -t.nu0)) <= 1e-10
    assert cumulant_derivative(CL, t.nu0) == pytest.approx(t.mu_star,
                                                           rel=1e-10)


def test_tilt_general_path_matches_exponential_family_algebra():
    # same jump law built from a tail string: the tilt goes through the
    # integrated-tail route, and for an Exp(2) tail at rate 1 the tilted
    # tail must be 2/(2-nu0) exp(-(2-nu0) x)
    m = custom_model(-1.0, 0.0,
                     pos_tail="pow(2.718281828459045, -2 * x)",
                     pos_support=math.inf, neg_support=0.0)
    nu0 = solve_lundberg(m)
    assert abs(cumulant(m, nu0)) <= 1e-12
    t = esscher_tilt(m, nu0)
    tail = t.tilted.measure.pos_tail
    for x in (0.25, 1.0, 3.0, 10.0):
        ref = 2.0 / (2.0 - nu0) * math.exp(-(2.0 - nu0) * x)
        assert tail(x) == pytest.approx(ref, rel=1e-10)
    # beyond the double-precision support of the base tail: zero, not nan
    assert tail(600.0) == 0.0
    assert abs(cumulant(t.tilted, -nu0)) <= 1e-10
    assert process_mean(t.tilted) == pytest.approx(t.mu_star, rel=1e-8)


def test_tilt_general_tails_take_arrays():
    # symmetric Exp(2) jumps with a Gaussian part, tilted by e^{x/2}: the
    # tilted tails are (4/3) e^{-3x/2} above and (4/5) e^{-5x/2} below
    exp2 = "pow(2.718281828459045, -2*x)"
    tilted = esscher_tilt(custom_model(1.0, 1.0, exp2, exp2),
                          0.5).tilted.measure
    xs = np.geomspace(1e-3, 400.0, 41)
    for tail, rate, mass in ((tilted.pos_tail, 1.5, 4.0 / 3.0),
                             (tilted.neg_tail, 2.5, 0.8)):
        values = tail(xs)
        points = np.array([tail(float(x)) for x in xs])
        exact = mass * np.exp(-rate * xs)
        # one pass integrates between consecutive points and tops and
        # differences the cumulative sums: it keeps its relative accuracy
        # wherever the base and tilted tails are normal floats
        tiny = np.finfo(float).tiny
        normal = (np.exp(-2.0 * xs) >= tiny) & (exact >= tiny)
        np.testing.assert_allclose(values[normal], exact[normal],
                                   rtol=1e-10)
        # a one-point call integrates its range as one interval, to within
        # max(1e-14, 1e-11 |integral|): relative agreement with the pass
        # holds above that absolute floor
        above = exact > 1e-14
        np.testing.assert_allclose(points[above], values[above],
                                   rtol=1e-11, atol=0.0)
        np.testing.assert_allclose(points[xs < 20.0],
                                   exact[xs < 20.0], rtol=1e-10)
    assert tilted.pos_tail(np.array([600.0, 1e4])).tolist() == [0.0, 0.0]


def test_tilt_rejections():
    with pytest.raises(ValueError):
        esscher_tilt(CL, 0.0)
    with pytest.raises(ValueError):
        esscher_tilt(CL, -1.0)
    # beyond the claim tail rate the tilted measure is not integrable
    with pytest.raises(ModelError):
        esscher_tilt(CL, 2.0)
    # below the root the tilted mean is still negative
    with pytest.raises(ModelError, match="not positive"):
        esscher_tilt(CL, 0.2)


# ---------------------------------------------------------------------------
# importance-sampled ruin


def test_ruin_matches_closed_form():
    est = ruin_is(CL, SimConfig(horizon=400.0), 2.0, 20_000, seed=77)
    exact = 0.5 * math.exp(-2.0)
    assert abs(est.psi_hat - exact) <= 3.0 * est.se
    assert est.nu0 == pytest.approx(1.0, abs=1e-10)


def test_ruin_constant_and_overshoot_weight():
    est = ruin_is(CL, SimConfig(horizon=400.0), 2.0, 20_000, seed=77)
    # overshoot under the tilt is Exp(1); E e^{-overshoot} = 1/2
    assert abs(est.C_hat - 0.5) <= 3.0 * est.C_se
    # scaled constant is the same algebra, bit for bit
    assert est.cramer_scaled == math.exp(est.nu0 * est.u) * est.psi_hat
    assert abs(est.cramer_scaled - 0.5) <= 3.0 * math.exp(est.nu0 * est.u) \
        * est.se


def test_ruin_lattice_withholds_overshoot_functionals():
    m = lattice_model()
    est = ruin_is(m, SimConfig(horizon=600.0), 3.0, 5_000, seed=78)
    assert est.psi_hat > 0.0
    assert est.se > 0.0
    assert "lattice" in est.note
    for v in (est.C_hat, est.cond_tau_ratio, est.cond_g_ratio,
              est.cond_x_ratio):
        assert math.isnan(v)


def test_ruin_refuses_censored_tilted_paths():
    with pytest.raises(ModelError, match="censored"):
        ruin_is(CL, SimConfig(horizon=5.0), 50.0, 200, seed=84)


def test_direct_and_tilted_estimates_agree_at_small_levels():
    # plain-measure ruin before a horizon that dwarfs the ruin time scale
    batch = passage_sample(CL, 1.0, 4_000, seed=80,
                           cfg=SimConfig(horizon=300.0))
    p = batch.n_ruined / batch.n
    se = math.sqrt(p * (1.0 - p) / batch.n)
    est = ruin_is(CL, SimConfig(horizon=400.0), 1.0, 8_000, seed=81)
    assert abs(p - est.psi_hat) <= 3.0 * math.hypot(se, est.se)
    # and the tilted route has the smaller standard error
    assert est.se < se


# ---------------------------------------------------------------------------
# conditional ratios across levels


def test_conditional_report_passes_at_large_levels():
    rep = conditional_stability_experiment(
        CL, SimConfig(horizon=600.0), [20.0, 50.0], 4_000, seed=79)
    assert rep.verdict == "pass"
    assert rep.nu0 == pytest.approx(1.0, abs=1e-10)
    assert rep.mu_star == pytest.approx(1.0, rel=1e-10)
    last = rep.verdicts[-1]
    assert last["u"] == 50.0
    assert last["tau"] == "pass"
    assert last["g"] == "pass"
    assert last["x"] == "pass"
    est = rep.estimates[-1]
    assert abs(est.cond_tau_ratio - 1.0) <= 3.0 * est.cond_tau_se + 0.02
    assert abs(est.cond_x_ratio - 1.0) <= 3.0 * est.cond_x_se + 0.02


def test_conditional_report_serializes(tmp_path):
    rep = conditional_stability_experiment(
        CL, SimConfig(horizon=400.0), [5.0], 500, seed=85)
    path = tmp_path / "conditional.json"
    write_json(path, result_payload("conditional", rep))
    d = json.loads(path.read_text())
    assert d["nu0"] == rep.nu0
    assert len(d["estimates"]) == 1
    assert d["estimates"][0]["u"] == 5.0
    assert d["verdict"] in ("pass", "fail", "inconclusive")


def test_conditional_refuses_lattice_jumps():
    with pytest.raises(ModelError, match="lattice"):
        conditional_stability_experiment(lattice_model(), None, [5.0], 500)


def test_conditional_grid_validation():
    with pytest.raises(ValueError):
        conditional_stability_experiment(CL, None, [], 500)
    with pytest.raises(ValueError):
        conditional_stability_experiment(CL, None, [-1.0], 500)


# ---------------------------------------------------------------------------
# fixed-time measure-change identity


def test_tilt_identity_fixed_time():
    rows = tilt_identity_check(CL, 1.0, n=20_000, seed=82)
    assert [r["f"] for r in rows] == [
        "indicator", "identity-clipped", "exponential-clipped"]
    for r in rows:
        assert abs(r["z"]) <= 3.5, r


def test_tilt_identity_on_general_tilt():
    # unit-mass Exp(2) up-jumps written as a tail string, tilted through
    # the general tail integrals; its drift is gamma - int_0^1 y Pi(dy),
    # about -1.30, so this is not the claim-surplus law
    m = custom_model(-1.0, 0.0,
                     pos_tail="pow(2.718281828459045, -2 * x)",
                     pos_support=math.inf, neg_support=0.0)
    rows = tilt_identity_check(m, 1.0, n=5_000, seed=86)
    for r in rows:
        assert abs(r["z"]) <= 3.5, r
