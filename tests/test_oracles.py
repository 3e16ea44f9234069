"""Closed-form oracles for the passage laws of the skeleton engine.

Each case simulates a model whose first-passage law is known in closed
form, independently of the simulator, and z-scores the Monte Carlo estimate
against it with the oracle's own variance:

* a double-exponential jump diffusion (Kou & Wang, "First passage times of
  a jump diffusion process", Adv. Appl. Prob. 2003): the creep and jump
  parts of E e^{-q tau_u}, and the Exp(eta) overshoot of a jump crossing;
* a spectrally negative model with a Gaussian part and Exp downward jumps:
  E e^{-q tau_u} = e^{-Phi(q) u};
* Brownian motion with drift along one coupled path: tau_u is inverse
  Gaussian IG(u/mu, u^2/sigma^2) at every level;
* Brownian motion without drift on [0, 1]: the time of its maximum is
  arcsine distributed (Levy), and the maximum is distributed as |B_1|.

The path invariants (G <= tau, overshoot >= 0, 0 <= undershoot <= u, tau
monotone in the level) hold record for record.
"""

import math

import numpy as np
import pytest

from levy_passage.ladder import _phi
from levy_passage.measures import ExponentialJump, compound_measure
from levy_passage.models import Family, LevyModel, brownian_drift
from levy_passage.simulate import (SimConfig, fixed_time_sample,
                                   passage_sample, ratio_paths)

N = 4000
Z_MAX = 3.0
Q = 0.5
# e^{-q horizon} is below 1e-13: censoring at the horizon moves no transform
CFG = SimConfig(horizon=60.0)


def _z(samples, mean, second):
    """z-score of the sample mean against a mean and second moment."""
    se = math.sqrt((second - mean * mean) / len(samples))
    return (float(np.mean(samples)) - mean) / se


def _jump_diffusion(mu, sigma2, rate, law):
    """Finite-activity jump diffusion with drift mu between jumps."""
    gamma = mu + rate * law.mean_small(1.0)
    return LevyModel(gamma, sigma2, compound_measure(rate, law),
                     Family.CUSTOM)


def _check_invariants(batch):
    ru = batch.ruined
    assert ru.any()
    assert np.all(batch.g_last_max[ru] <= batch.tau[ru])
    assert np.all(batch.overshoot[ru] >= 0.0)
    assert np.all((batch.undershoot[ru] >= 0.0)
                  & (batch.undershoot[ru] <= batch.u))


# ---------------------------------------------------------------------------
# Kou-Wang: drift 1, sigma^2 = 1, Exp(eta) upward jumps at rate 1

KW_MU, KW_SIGMA2, KW_RATE, KW_ETA = 1.0, 1.0, 1.0, 2.0
KW = _jump_diffusion(KW_MU, KW_SIGMA2, KW_RATE, ExponentialJump(KW_ETA))


def _kw_roots(q):
    """The roots 0 < beta1 < eta < beta2 of psi(beta) = q, where
    psi(beta) = mu beta + sigma^2 beta^2/2 + lam (eta/(eta - beta) - 1)."""
    # (mu b + s b^2/2 - lam - q)(eta - b) + lam eta = 0, a cubic in b
    s, mu, lam, eta = KW_SIGMA2, KW_MU, KW_RATE, KW_ETA
    cubic = [-s / 2.0, s * eta / 2.0 - mu, mu * eta + lam + q, -q * eta]
    roots = np.sort(np.roots(cubic).real)
    return roots[1], roots[2]


def _kw_parts(q, u):
    """(E[e^{-q tau}; creep], E[e^{-q tau}; jump crossing])."""
    b1, b2 = _kw_roots(q)
    eta = KW_ETA
    e1, e2 = math.exp(-b1 * u), math.exp(-b2 * u)
    creep = ((eta - b1) * e1 + (b2 - eta) * e2) / (b2 - b1)
    jump = (eta - b1) * (b2 - eta) * (e1 - e2) / (eta * (b2 - b1))
    return creep, jump


def test_kou_wang_creep_and_jump_parts_and_overshoot():
    u = 2.0
    batch = passage_sample(KW, u, N, seed=2003, cfg=CFG)
    _check_invariants(batch)
    ru = batch.ruined
    disc = np.exp(-Q * batch.tau)          # 0 on censored paths
    jumped = ru & (batch.overshoot > 0.0)
    crept = ru & ~jumped
    (c1, j1), (c2, j2) = _kw_parts(Q, u), _kw_parts(2.0 * Q, u)
    z_creep = _z(np.where(crept, disc, 0.0), c1, c2)
    z_jump = _z(np.where(jumped, disc, 0.0), j1, j2)
    assert abs(z_creep) <= Z_MAX, z_creep
    assert abs(z_jump) <= Z_MAX, z_jump
    # a jump crossing overshoots by Exp(eta), independently of tau
    ov = batch.overshoot[jumped]
    z_ov = (float(np.mean(ov)) - 1.0 / KW_ETA) * KW_ETA * math.sqrt(ov.size)
    assert abs(z_ov) <= Z_MAX, z_ov


# ---------------------------------------------------------------------------
# spectrally negative: drift 2, sigma^2 = 1/2, Exp(1) downward jumps at rate 1

SN = _jump_diffusion(2.0, 0.5, 1.0, ExponentialJump(1.0, sign=-1))


def test_spectrally_negative_transform_is_exp_minus_phi_u():
    u = 2.0
    batch = passage_sample(SN, u, N, seed=2011, cfg=CFG)
    _check_invariants(batch)
    assert np.all(batch.overshoot[batch.ruined] == 0.0)   # no upward jumps
    disc = np.exp(-Q * batch.tau)
    first = math.exp(-_phi(SN, Q, 0.0) * u)
    second = math.exp(-_phi(SN, 2.0 * Q, 0.0) * u)
    z = _z(disc, first, second)
    assert abs(z) <= Z_MAX, z


# ---------------------------------------------------------------------------
# Brownian drift along one coupled path: inverse Gaussian at every level

BD_MU, BD_SIGMA2 = 0.7, 1.3
LEVELS = np.array([0.5, 1.0, 2.0, 4.0])


def _ig_transform(q, u):
    """E e^{-q tau_u} for Brownian motion with drift mu and variance s."""
    mu, s = BD_MU, BD_SIGMA2
    return math.exp(u * (mu - math.sqrt(mu * mu + 2.0 * q * s)) / s)


@pytest.fixture(scope="module")
def bd_taus():
    return ratio_paths(brownian_drift(BD_MU, BD_SIGMA2), LEVELS, N,
                       seed=1979, cfg=SimConfig(horizon=400.0))


@pytest.mark.parametrize("level", range(len(LEVELS)))
def test_brownian_coupled_levels_are_inverse_gaussian(bd_taus, level):
    assert not np.isnan(bd_taus).any()
    assert np.all(np.diff(bd_taus, axis=1) >= 0.0)  # monotone along each path
    u = LEVELS[level]
    tau = bd_taus[:, level]
    mean, var = u / BD_MU, u * BD_SIGMA2 / BD_MU ** 3
    z_mean = _z(tau, mean, var + mean * mean)
    z_lt = _z(np.exp(-Q * tau), _ig_transform(Q, u),
              _ig_transform(2.0 * Q, u))
    assert abs(z_mean) <= Z_MAX, z_mean
    assert abs(z_lt) <= Z_MAX, z_lt



# ---------------------------------------------------------------------------
# driftless Brownian motion on [0, 1]: arcsine time of the maximum


def test_brownian_time_of_maximum_is_arcsine():
    x, mx, g = fixed_time_sample(brownian_drift(0.0, 1.0), 1.0, N, seed=1939)
    assert np.all((g >= 0.0) & (g <= 1.0)) and np.all(mx >= np.maximum(x, 0))
    # P(G <= s) = (2/pi) arcsin(sqrt(s)); E G = 1/2, E G^2 = 3/8
    quarter = 2.0 / math.pi * math.asin(0.5)
    z_cdf = _z((g <= 0.25).astype(float), quarter, quarter)
    z_mean = _z(g, 0.5, 0.375)
    # the maximum is |B_1|: E M = sqrt(2/pi), E M^2 = 1
    z_max = _z(mx, math.sqrt(2.0 / math.pi), 1.0)
    for z in (z_cdf, z_mean, z_max):
        assert abs(z) <= Z_MAX, (z_cdf, z_mean, z_max)
