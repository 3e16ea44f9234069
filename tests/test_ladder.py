"""Ladder exponent backends, transform identity, renewal estimation.

Root oracles are solved by hand from the cumulant polynomials; transform
identity checks are z-scored against their Monte Carlo standard errors;
renewal outputs for creeping families are exact by construction and are
asserted bitwise.
"""

import math

import numpy as np
import pytest

from levy_passage.ladder import (Backend, dmp_exponent, exponent_for,
                                 kappa_drift_minus_poisson,
                                 kappa_spectrally_negative, lt_lattice,
                                 renewal_estimate, sn_exponent,
                                 verify_lt_identity)
from levy_passage.measures import ExponentialJump
from levy_passage.models import (ModelError, brownian_drift,
                                 compound_poisson_drift, cramer_lundberg,
                                 drift_minus_poisson, spectrally_negative)
from levy_passage.simulate import SimConfig, passage_sample

DMP = drift_minus_poisson(2.0)
SNBV = spectrally_negative(2.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# spectrally negative closed form


def test_phi_roots_quadratic_oracle():
    # psi(nu) = nu + nu^2 for drift 1, sigma2 = 2: Phi(2) = 1,
    # Phi(1) = (sqrt 5 - 1)/2
    m = brownian_drift(1.0, 2.0)
    assert kappa_spectrally_negative(m, 2.0, 3.0) == pytest.approx(4.0,
                                                                   rel=1e-12)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    assert kappa_spectrally_negative(m, 1.0, 0.0) == pytest.approx(golden,
                                                                   rel=1e-12)


def test_sn_killing_rate_for_downward_drift():
    # psi(nu) = -nu + nu^2 has largest zero 1: the maximum is Exp(1)
    m = brownian_drift(-1.0, 2.0)
    k = sn_exponent(m)
    assert k.q == pytest.approx(1.0, rel=1e-10)
    assert k(0.0, 0.0) == pytest.approx(k.q, rel=1e-12)


def test_sn_exponent_drift_coefficients():
    k = sn_exponent(SNBV)
    assert k.backend is Backend.SPECTRALLY_NEGATIVE
    assert k.q == 0.0
    assert k.d_L_inv == pytest.approx(0.5)   # 1/drift for BV paths
    assert k.d_H == 1.0                       # Phi-normalization
    # ladder drift identity d_{L^-1} * d_X = d_H, exact
    assert k.d_L_inv * SNBV.drift_bv() == k.d_H


def test_sn_rejects_positive_jumps():
    with pytest.raises(ModelError):
        sn_exponent(cramer_lundberg(1.0, 2.0, 1.0))


def test_kappa_ratio_criterion_creeping_limit():
    # kappa(x, 0)/kappa(x, xi x) -> 1/(1 + xi d) for BV drift d
    x = 1e4
    for xi in (0.5, 1.0, 2.0):
        ratio = kappa_spectrally_negative(SNBV, x, 0.0) / \
            kappa_spectrally_negative(SNBV, x, xi * x)
        assert abs(ratio - 1.0 / (1.0 + 2.0 * xi)) <= 0.02


def test_kappa_monotone_and_concave_per_argument():
    grid = np.linspace(0.0, 4.0, 9)
    for evalf in (lambda a, b: kappa_spectrally_negative(SNBV, a, b),
                  lambda a, b: kappa_drift_minus_poisson(2.0, a, b)):
        for b in (0.0, 1.0):
            vals = np.array([evalf(float(a), b) for a in grid])
            assert np.all(np.diff(vals) >= -1e-12)
            mid = 0.5 * (vals[:-2] + vals[2:])
            assert np.all(vals[1:-1] >= mid - 1e-9)
        for a in (0.0, 1.0):
            vals = np.array([evalf(a, float(b)) for b in grid])
            assert np.all(np.diff(vals) >= -1e-12)


# ---------------------------------------------------------------------------
# drift-minus-Poisson closed form


def test_dmp_kappa_height_drift_is_slope():
    # kappa(0, b) = a b exactly: ladder height is pure drift at the slope
    for b in (0.5, 1.0, 2.0):
        assert kappa_drift_minus_poisson(2.0, 0.0, b) == pytest.approx(
            2.0 * b, rel=1e-12)
    assert kappa_drift_minus_poisson(2.0, 0.0, 0.0) == 0.0


def test_dmp_exponent_drifts():
    k = dmp_exponent(2.0)
    assert k.backend is Backend.DRIFT_MINUS_POISSON
    assert k.q == 0.0
    assert k.d_L_inv == 1.0
    assert k.d_H == 2.0
    assert k.d_L_inv * DMP.drift_bv() == k.d_H


def _tau1_laplace(slope, a):
    # E exp(-a tau_1) = 1 - kappa(a, 0) + a in the occupation normalization
    return 1.0 - kappa_drift_minus_poisson(slope, a, 0.0) + a


def test_tau1_cache_moments():
    assert _tau1_laplace(2.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    # E tau_1 = 1/(a-1) = 1 by Wald, from the slope of the transform at 0
    h = 1e-6
    mean_tau1 = (1.0 - _tau1_laplace(2.0, h)) / h
    assert mean_tau1 == pytest.approx(1.0, abs=0.01)
    assert _tau1_laplace(2.0, 1.0) < _tau1_laplace(2.0, 0.5) < 1.0


def test_tau1_cache_is_shared_and_deterministic():
    # the closed form holds no sampled state: equal slopes agree bit for bit
    a = dmp_exponent(2.0)
    b = dmp_exponent(2.0)
    assert a(0.7, 0.0) == b(0.7, 0.0)
    assert _tau1_laplace(2.0, 0.7) == _tau1_laplace(2.0, 0.7)
    assert dmp_exponent(3.0)(0.7, 0.0) != a(0.7, 0.0)


def test_dmp_tau1_transform_matches_the_event_exact_engine():
    # E exp(-a tau_1) = 1 - kappa(a, 0) + a in the occupation normalization
    k = dmp_exponent(2.0)
    batch = passage_sample(DMP, 1.0, 20000, seed=3,
                           cfg=SimConfig(horizon=1e4))
    assert batch.ruined.all()
    for a in (0.5, 1.0, 3.0):
        vals = np.exp(-a * batch.tau)
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        z = (np.mean(vals) - (1.0 - k(a, 0.0) + a)) / se
        assert abs(z) <= 4.0, (a, z)


# ---------------------------------------------------------------------------
# backend selection


def test_exponent_for_picks_family_backends():
    assert exponent_for(DMP).backend is Backend.DRIFT_MINUS_POISSON
    assert exponent_for(SNBV).backend is Backend.SPECTRALLY_NEGATIVE
    with pytest.raises(ModelError, match="no closed-form ladder exponent"):
        exponent_for(cramer_lundberg(1.0, 2.0, 1.0))


# ---------------------------------------------------------------------------
# transform identity


def test_lt_lattice_respects_degeneracy_constraint():
    points = lt_lattice()
    assert len(points) == 12
    for mu, rho, lam, nu, theta in points:
        assert mu > 0.0
        assert mu + lam != rho
        assert min(rho, lam, nu, theta) >= 0.0


def test_lt_identity_dmp_spot_checks():
    k = dmp_exponent(2.0)
    for mu, rho, lam, nu, theta in [(1.0, 2.0, 0.0, 0.0, 0.5),
                                    (1.0, 0.0, 1.0, 0.5, 0.0)]:
        out = verify_lt_identity(DMP, k, mu=mu, rho=rho, lam=lam, nu=nu,
                                 theta=theta, n=4000, seed=62)
        assert abs(out["z"]) <= 4.0, out
        assert out["params"]["mu"] == mu


def test_lt_identity_sn_creeping_spot_check():
    k = sn_exponent(SNBV)
    out = verify_lt_identity(SNBV, k, mu=0.5, rho=0.5, lam=0.5, nu=1.0,
                             theta=0.5, n=4000, seed=63,
                             cfg=SimConfig(horizon=1e5))
    assert abs(out["z"]) <= 4.0, out


def test_lt_identity_rejects_degenerate_transform():
    k = dmp_exponent(2.0)
    with pytest.raises(ValueError):
        verify_lt_identity(DMP, k, mu=1.0, rho=1.0, lam=0.0, n=500)
    with pytest.raises(ValueError):
        verify_lt_identity(DMP, k, mu=0.0, n=500)


# ---------------------------------------------------------------------------
# renewal function


def test_renewal_creeping_family_is_exact():
    cfg = SimConfig(horizon=2000.0)
    grid = [0.25, 1.0, 5.0, 20.0]
    fn = renewal_estimate(DMP, cfg, grid, n_paths=150, seed=64)
    assert fn.normalization == "occupation"
    # V_H(u) = u / d exactly under the occupation normalization
    np.testing.assert_allclose(fn.values, np.asarray(grid) / 2.0, rtol=1e-12)
    assert np.all(fn.value_se == 0.0)
    assert fn.EH1 == pytest.approx(2.0, rel=1e-12)
    assert abs(fn.EL1_inv - 2.0) <= 3.0 * fn.EL1_inv_se + 0.05


def test_renewal_exit_time_cross_check():
    cfg = SimConfig(horizon=2000.0)
    fn = renewal_estimate(DMP, cfg, [1.0, 5.0, 20.0], n_paths=150, seed=64)
    from levy_passage.experiments import mean_exit_experiment
    rep = mean_exit_experiment(DMP, SimConfig(horizon=1e4), [5.0], 2000,
                               seed=65)
    direct = rep.results[0].mean_tau_ratio * 5.0
    se = rep.results[0].se_tau_ratio * 5.0
    ladder = fn.exit_time(5.0)
    ladder_se = 5.0 / 2.0 * fn.EL1_inv_se
    assert abs(ladder - direct) <= 3.0 * math.hypot(se, ladder_se) + 0.05


def test_renewal_interpolates_below_grid_through_origin():
    cfg = SimConfig(horizon=2000.0)
    fn = renewal_estimate(DMP, cfg, [1.0, 2.0], n_paths=80, seed=66)
    assert fn.eval(0.5) == pytest.approx(0.25, rel=1e-12)
    assert fn.eval(1.5) == pytest.approx(0.75, rel=1e-12)


def test_renewal_sandwich_bound_for_creep():
    # ladder height is pure drift: V_H(u)/u * d_H = 1 exactly
    cfg = SimConfig(horizon=2000.0)
    fn = renewal_estimate(DMP, cfg, [0.5, 4.0], n_paths=80, seed=67)
    for u, v in zip(fn.grid, fn.values):
        assert v / u * 2.0 == pytest.approx(1.0, rel=1e-12)


def test_renewal_wald_identity():
    # E H_1 = E X_1 * E L1^-1 in the record normalization
    cfg = SimConfig(horizon=3000.0)
    m = spectrally_negative(2.0, 1.0, 1.0)     # E X_1 = 1
    fn = renewal_estimate(m, cfg, [1.0, 5.0], n_paths=120, seed=68)
    # occupation normalization: EH1 = d exactly, EL1_inv ~ d / EX_1 = 2
    assert fn.EH1 == pytest.approx(2.0, rel=1e-12)
    wald = fn.EH1 / fn.EL1_inv
    assert abs(wald - 1.0) <= 3.0 * fn.EL1_inv_se / fn.EL1_inv + 0.05


def test_renewal_refuses_defective_ladder():
    with pytest.raises(ModelError, match="defective|drifts"):
        renewal_estimate(cramer_lundberg(1.0, 2.0, 1.0), None, [1.0],
                         n_paths=40)


def test_renewal_record_index_matches_closed_form_mean_exit():
    # drift -p with Exp(alpha) upward jumps at rate lam: records happen only
    # at jumps, and E tau_u = (u + 1/alpha) / (lam/alpha - p) = 3 here
    m = cramer_lundberg(2.0, 1.0, 1.0)
    fn = renewal_estimate(m, SimConfig(horizon=400.0), [1.0, 2.0],
                          n_paths=1000, seed=69)
    assert fn.normalization == "record-index"
    # each record is one Exp(1) overshoot: E H_1 = 1 and V_H(u) = 1 + u
    assert abs(fn.EH1 - 1.0) <= 0.05
    se = math.hypot(fn.value_se[1] * fn.EL1_inv, fn.values[1] * fn.EL1_inv_se)
    assert abs(fn.exit_time(2.0) - 3.0) <= 4.0 * se, (fn.exit_time(2.0), se)


def test_renewal_refuses_creeping_with_upward_jumps():
    # drift 1 and Exp(2) upward jumps: record epochs mix climbs and jumps
    m = compound_poisson_drift(1.0, ExponentialJump(2.0, sign=1), 1.0)
    with pytest.raises(ModelError, match="creeps up or jumps up"):
        renewal_estimate(m, SimConfig(horizon=400.0), [2.0], n_paths=10)
