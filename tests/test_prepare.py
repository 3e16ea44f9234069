"""One prepared model per experiment, and the consumers it feeds.

prepare() is the one place where an engine is chosen and its parts (jump
sampler, folded drift and variance) are built. Callers that loop over
replications or levels prepare once, which the sampler-build counts here
pin. The coupling checks hold path for path: consumers that read the same
generator on the same stream see the same path.
"""

import math

import numpy as np
import pytest

from levy_passage.cramer import ruin_grid, ruin_is
from levy_passage.ladder import (Backend, LadderExponent, renewal_estimate,
                                 verify_lt_identity)
from levy_passage.measures import JumpMeasure
from levy_passage.models import (ModelError, brownian_drift, cramer_lundberg,
                                 custom_model, drift_minus_poisson,
                                 spectrally_negative)
from levy_passage.rng import stream
from levy_passage.simulate import (SimConfig, extract_ladder, prepare,
                                   ratio_path, ratio_paths, simulate_passage)

EXP2 = "pow(2.718281828459045, -2*x)"
JD = custom_model(gamma=1.0, sigma2=1.0, pos_tail=EXP2, neg_tail=EXP2)
# cramer-lundberg (1, 2, 1) written as tails, so the general tilt runs
TAIL_CL = custom_model(gamma=-1.0 + (1.0 - 3.0 * math.exp(-2.0)) / 2.0,
                       sigma2=0.0, pos_tail=EXP2, neg_tail="0")
SN = spectrally_negative(2.0, 1.0, 1.0)
CFG = SimConfig(horizon=30.0, dt=0.05)


@pytest.fixture
def sampler_builds(monkeypatch):
    count = [0]
    build = JumpMeasure.sampler

    def counting(self, eps):
        count[0] += 1
        return build(self, eps)

    monkeypatch.setattr(JumpMeasure, "sampler", counting)
    return count


def test_prepare_picks_the_engine_and_its_parts():
    p = prepare(drift_minus_poisson(2.0))
    assert p.exact and p.engine == "event-exact"
    assert p.drift == 2.0 and p.rate == 1.0
    q = prepare(brownian_drift(1.0, 1.0))
    assert q.engine == "gaussian-skeleton"
    assert q.rate == 0.0 and q.draw is None and q.sigma2 == 1.0


def test_prepare_is_idempotent_under_its_config(sampler_builds):
    p = prepare(JD, CFG)
    assert prepare(p) is p
    assert prepare(p, SimConfig(horizon=30.0, dt=0.05)) is p
    assert sampler_builds[0] == 1
    q = prepare(p, SimConfig(horizon=30.0, dt=0.05, epsilon=0.01))
    assert q is not p and q.cfg.epsilon == 0.01
    assert sampler_builds[0] == 2


def test_ratio_paths_build_the_sampler_once(sampler_builds):
    ratio_paths(JD, [0.5, 1.0], 5, seed=3, cfg=CFG)
    assert sampler_builds[0] == 1


def test_ladder_walks_refuse_skeleton_models_before_building(sampler_builds):
    with pytest.raises(ModelError, match="event-exact"):
        renewal_estimate(JD, CFG, [0.5, 1.0, 2.0], n_paths=5, seed=3)
    with pytest.raises(ModelError, match="event-exact"):
        extract_ladder(JD, CFG, stream(3))
    assert sampler_builds[0] == 0


def test_lt_identity_builds_the_sampler_once(sampler_builds):
    kappa = LadderExponent(Backend.DRIFT_MINUS_POISSON, 0.0, 0.0, 0.0,
                           lambda a, b: 1.0 + a + b)
    verify_lt_identity(JD, kappa, mu=1.0, n=5, seed=3, cfg=CFG)
    assert sampler_builds[0] == 1


def test_ruin_grid_tilts_and_builds_the_sampler_once(sampler_builds):
    ests = ruin_grid(TAIL_CL, SimConfig(horizon=600.0), [1.0, 2.0, 3.0],
                     20, seed=5)
    assert sampler_builds[0] == 1
    assert [e.u for e in ests] == [1.0, 2.0, 3.0]


def test_ruin_grid_keys_level_i_as_seed_plus_i():
    cl = cramer_lundberg(1.0, 2.0, 1.0)
    cfg = SimConfig(horizon=600.0)
    ests = ruin_grid(cl, cfg, [1.0, 2.0], 200, seed=40)
    for i, u in enumerate((1.0, 2.0)):
        alone = ruin_is(cl, cfg, u, 200, seed=40 + i)
        assert ests[i] == alone
    # a level keyed past the last 64-bit seed is refused, not wrapped to 0
    with pytest.raises(ValueError, match="seed out of range"):
        ruin_grid(cl, cfg, [1.0, 2.0], 20, seed=2**64 - 1)


def test_coupled_levels_match_single_passages():
    # on an event-exact path every level is crossed at a jump or on a line,
    # so one walk serves all levels bit for bit; on a bridge the crossing
    # of one level draws the time and the fresh maximum that the next level
    # reads, so there only a one-level walk replays the single passage
    # the drift line of slope 2 reaches the top level at its horizon 3, so
    # it does not pass it there
    levels = np.array([0.5, 1.5, 3.0, 6.0])
    for model, horizon in ((drift_minus_poisson(2.0), 8.0), (SN, 8.0),
                           (brownian_drift(2.0, 0.0), 3.0)):
        p = prepare(model, SimConfig(horizon=horizon))
        for r in range(10):
            taus = ratio_path(p, levels, stream(21, 0, r))
            for u, tau in zip(levels, taus):
                rec = simulate_passage(p, float(u), stream(21, 0, r))
                assert (rec.tau == tau) if rec.ruined else math.isnan(tau)
    p = prepare(JD, SimConfig(horizon=8.0))
    for u in levels:
        for r in range(10):
            tau = ratio_path(p, [u], stream(21, 0, r))[0]
            rec = simulate_passage(p, float(u), stream(21, 0, r))
            assert (rec.tau == tau) if rec.ruined else math.isnan(tau)
