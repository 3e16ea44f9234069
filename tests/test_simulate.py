"""Path engine tests: exact event simulation, skeleton crossing, coupling.

Distributional anchors are closed forms (inverse Gaussian moments, pure
drift crossing, creep probabilities); structural anchors (monotone passage
in the level, pathwise sandwich between maximum and passage time, byte
determinism) hold exactly per path.
"""

import math

import numpy as np
import pytest

from levy_passage.models import (brownian_drift, cramer_lundberg,
                                 custom_model, drift_minus_poisson,
                                 make_counterexample1, spectrally_negative)
from levy_passage import simulate
from levy_passage.ladder import Backend, LadderExponent, verify_lt_identity
from levy_passage.rng import _RowStreams, stream
from levy_passage.simulate import (SimConfig, choose_engine, cutoff_for_rate,
                                   extract_ladder, fixed_time_sample,
                                   passage_sample, ratio_path, ratio_paths,
                                   sample_at_time, simulate_passage)

DMP = drift_minus_poisson(2.0)
BD = brownian_drift(1.0, 1.0)
SN = spectrally_negative(2.0, 1.0, 1.0)
CL = cramer_lundberg(1.0, 2.0, 1.0)
LINE = brownian_drift(2.0, 0.0)     # event-exact with no jumps
EXP2 = "pow(2.718281828459045, -2*x)"
JD = custom_model(gamma=1.0, sigma2=1.0, pos_tail=EXP2, neg_tail=EXP2)
CE1 = make_counterexample1()


def test_engine_selection():
    assert choose_engine(DMP) == "event-exact"
    assert choose_engine(spectrally_negative(2.0, 1.0, 1.0)) == "event-exact"
    assert choose_engine(BD) == "gaussian-skeleton"
    assert choose_engine(make_counterexample1()) == "gaussian-skeleton"


def test_level_must_be_positive():
    with pytest.raises(ValueError):
        passage_sample(DMP, 0.0, 10)
    with pytest.raises(ValueError):
        passage_sample(DMP, -1.0, 10)


# ---------------------------------------------------------------------------
# pure drift: every functional is deterministic


def test_pure_drift_crossing_exact():
    line = brownian_drift(2.0, 0.0)
    batch = passage_sample(line, 1.0, 64, seed=5)
    assert batch.engine == "event-exact"
    assert np.all(batch.ruined)
    assert np.all(batch.tau == 0.5)
    assert np.all(batch.overshoot == 0.0)
    assert np.all(batch.undershoot == 0.0)
    assert np.all(batch.x_at_tau == 1.0)
    assert np.all(batch.g_last_max == 0.5)


# ---------------------------------------------------------------------------
# creep at small levels (event-exact engine)


def test_dmp_small_level_creeps_with_no_jump_probability():
    # crossing happens at u/a exactly unless a jump lands before u/a;
    # P(no jump) = exp(-u/a) with unit intensity
    u = 0.1
    batch = passage_sample(DMP, u, 4000, seed=9)
    exact = batch.tau == u / 2.0
    frac = float(np.mean(exact))
    want = math.exp(-u / 2.0)
    assert abs(frac - want) < 0.02
    # creeping records cross at the level itself with zero overshoot
    assert np.all(batch.x_at_tau[exact] == u)
    assert np.all(batch.overshoot == 0.0)   # -1 jumps can never overshoot


def test_sn_bv_creep_sets_exact_zeros():
    m = spectrally_negative(2.0, 1.0, 1.0)
    batch = passage_sample(m, 5.0, 800, seed=2,
                           cfg=SimConfig(horizon=1e5))
    assert np.all(batch.ruined)
    assert np.all(batch.overshoot == 0.0)
    assert np.all(batch.undershoot == 0.0)
    assert np.all(batch.x_at_tau == 5.0)


# ---------------------------------------------------------------------------
# inverse Gaussian oracle (skeleton engine: one exact bridge per path)


def test_brownian_passage_inverse_gaussian_moments():
    # tau_u ~ IG with mean u/gamma = 5 and variance u sigma^2/gamma^3 = 5
    u, n = 5.0, 20_000
    batch = passage_sample(BD, u, n, seed=31)
    assert np.all(batch.ruined)
    mean = float(np.mean(batch.tau))
    var = float(np.var(batch.tau, ddof=1))
    # se(mean) ~ sqrt(5/n) ~ 0.016
    assert abs(mean - 5.0) < 0.08
    assert abs(var - 5.0) < 0.5
    assert np.all(batch.overshoot == 0.0)       # continuous crossing
    assert np.all(batch.g_last_max <= batch.tau + 1e-12)


def test_bridge_correction_removes_most_discretization_bias():
    # the skeleton samples its bridges exactly and reads no dt, so a coarse
    # dt leaves the mean hitting time at its closed form u/drift
    u, n = 2.0, 4000
    fixed = passage_sample(BD, u, n, seed=8, cfg=SimConfig(dt=0.05))
    assert abs(np.mean(fixed.tau) - 2.0) < 3.5 * math.sqrt(2.0 / n) + 0.05


# ---------------------------------------------------------------------------
# defective passage (drift down) and censoring bookkeeping


def test_cl_ruin_probability_and_censoring():
    m = cramer_lundberg(1.0, 2.0, 1.0)
    cfg = SimConfig(horizon=200.0)
    batch = passage_sample(m, 1.0, 4000, seed=13, cfg=cfg)
    p = batch.n_ruined / batch.n
    want = 0.5 * math.exp(-1.0)
    assert abs(p - want) < 0.025
    # censored records carry inf passage time and nan functionals
    cen = ~batch.ruined
    assert np.all(np.isinf(batch.tau[cen]))
    assert np.all(np.isnan(batch.overshoot[cen]))
    assert batch.censored_fraction == pytest.approx(1.0 - p)


def test_cl_overshoot_given_ruin_is_memoryless():
    m = cramer_lundberg(1.0, 2.0, 1.0)
    batch = passage_sample(m, 2.0, 6000, seed=17, cfg=SimConfig(horizon=200.0))
    ov = batch.overshoot[batch.ruined]
    assert ov.size > 300
    assert np.all(ov > 0.0)
    # overshoot | ruin ~ Exp(alpha = 2) at every level
    assert abs(np.mean(ov) - 0.5) < 4.0 * 0.5 / math.sqrt(ov.size)
    us = batch.undershoot[batch.ruined]
    assert np.all(us > 0.0)    # jumps cross from strictly below


# ---------------------------------------------------------------------------
# determinism


def test_same_seed_is_byte_identical():
    a = passage_sample(DMP, 3.0, 200, seed=77)
    b = passage_sample(DMP, 3.0, 200, seed=77)
    assert np.array_equal(a.tau, b.tau)
    assert np.array_equal(a.g_last_max, b.g_last_max)
    c = passage_sample(BD, 3.0, 50, seed=77)
    d = passage_sample(BD, 3.0, 50, seed=77)
    assert np.array_equal(c.tau, d.tau)


def test_replication_streams_are_batch_split_invariant():
    whole = passage_sample(DMP, 3.0, 100, seed=21)
    head = passage_sample(DMP, 3.0, 40, seed=21)
    assert np.array_equal(whole.tau[:40], head.tau)


def test_seeds_decorrelate_levels():
    a = passage_sample(DMP, 3.0, 100, seed=21, level_index=0)
    b = passage_sample(DMP, 3.0, 100, seed=21, level_index=1)
    assert not np.array_equal(a.tau, b.tau)


@pytest.mark.parametrize("seed", [-1, 2**64, -2**64, 2**64 + 5])
def test_stream_refuses_seeds_outside_64_bits(seed):
    # they would alias: -1 drew the words of 2**64 - 1, 2**64 those of 0
    with pytest.raises(ValueError, match="seed out of range"):
        stream(seed)


def test_stream_keys_the_64_bit_extremes_apart():
    top = stream(2**64 - 1, 2**32 - 1, 2**32 - 1).integers(0, 2**63, 4)
    assert not np.array_equal(top, stream(0).integers(0, 2**63, 4))
    assert not np.array_equal(
        top, stream(2**64 - 1, 2**32 - 1, 2**32 - 2).integers(0, 2**63, 4))


def _draw_some(rng, k):
    # sizes and kinds that leave words (and a half word) in the buffer
    if k % 3 == 0:
        return rng.exponential(0.5, 5)
    if k % 3 == 1:
        return rng.integers(0, 7, 3, dtype=np.int32).astype(float)
    return rng.random(1)


@pytest.mark.parametrize("seed, level, reps", [
    (5, 0, [0, 1]),
    (2**64 - 1, 2**32 - 1, [2**32 - 2, 2**32 - 1]),
])
def test_row_streams_interleaved_draw_each_rows_own_words(seed, level, reps):
    rows = _RowStreams(seed, level, reps)
    got, saved = [[], []], [None, None]
    for k in range(6):
        for i in (0, 1):
            if saved[i] is None:
                rows.start(i)
            else:
                rows.restore(saved[i])
            got[i].append(_draw_some(rows.rng, k))
            saved[i] = rows.save()
    for i, r in enumerate(reps):
        ref = stream(seed, level, r)
        want = [_draw_some(ref, k) for k in range(6)]
        assert all(np.array_equal(a, b) for a, b in zip(got[i], want)), r


_NEGATIVE_N = {
    "passage-exact": lambda n: passage_sample(DMP, 1.0, n).tau,
    "passage-skeleton": lambda n: passage_sample(BD, 1.0, n).tau,
    "fixed-time": lambda n: fixed_time_sample(DMP, 1.0, n)[0],
    "coupled": lambda n: ratio_paths(DMP, [1.0, 2.0], n),
}


@pytest.mark.parametrize("kind", list(_NEGATIVE_N))
def test_negative_batch_size_is_refused(kind):
    call = _NEGATIVE_N[kind]
    for n in (-1, -3):
        with pytest.raises(ValueError, match=r"^n: must be nonnegative"):
            call(n)
    assert len(call(0)) == 0


# ---------------------------------------------------------------------------
# pathwise coupling: fixed-time view against passage view


@pytest.mark.parametrize("model", [DMP, spectrally_negative(2.0, 1.0, 1.0)])
def test_pathwise_sandwich_on_shared_stream(model):
    # with the same stream the event loop replays the same path, so the
    # strict-passage sandwich {max > u} <= {tau <= t} <= {max >= u} must
    # hold record for record
    n = 300
    for r in range(n):
        draw = stream(101, 0, r)
        t = float(0.05 + 8.0 * draw.random())
        u = float(0.05 + 3.0 * draw.random())
        rec = simulate_passage(model, u, stream(55, 0, r))
        x, mx, g = sample_at_time(model, t, stream(55, 0, r))
        if mx > u:
            assert rec.tau <= t
        if rec.ruined and rec.tau <= t:
            assert mx >= u - 1e-12


def test_passage_time_monotone_in_level_along_one_path():
    levels = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
    for model, seed in ((DMP, 3), (BD, 4)):
        taus, maxima = ratio_path(model, levels, stream(seed), with_max=True)
        ok = ~np.isnan(taus)
        assert np.all(np.diff(taus[ok]) >= 0.0)
        mok = maxima[~np.isnan(maxima)]
        assert np.all(np.diff(mok) >= -1e-12)


def _passage_rows(b):
    return np.column_stack([b.tau, b.ruined, b.x_at_tau, b.overshoot,
                            b.undershoot, b.g_last_max])


def _record_row(rec):
    return [rec.tau, rec.ruined, rec.x_at_tau, rec.overshoot,
            rec.undershoot, rec.g_last_max]


# the last level lies past the first block of the jump diffusion, whose
# rows go on after continuous crossings of the lower ones
_LEVELS = np.array([0.5, 1.0, 2.0, 40.0])
_TWIN_CFG = SimConfig(horizon=200.0)
# counterexample 1 at about 100 jumps per unit time drifts down: most of
# its paths end in a bridge cut at the horizon
_CE1_CFG = SimConfig(epsilon=cutoff_for_rate(CE1, 100.0), horizon=2.5)
# (model, rows, config); drift-minus-poisson and the jump diffusion run
# past one lockstep chunk
_TWIN_ROWS = ((DMP, simulate._CHUNK + 44, _TWIN_CFG), (BD, 5, _TWIN_CFG),
              (SN, 9, _TWIN_CFG), (CL, 9, _TWIN_CFG), (LINE, 3, _TWIN_CFG),
              (JD, simulate._CHUNK + 44, _TWIN_CFG), (CE1, 40, _CE1_CFG))
# (batch of n at level index 3 as a matrix, one path as its row)
_TWINS = {
    "passage": (
        lambda m, n, cfg: _passage_rows(passage_sample(
            m, 1.5, n, seed=11, level_index=3, cfg=cfg)),
        lambda m, rng, cfg: _record_row(simulate_passage(m, 1.5, rng, cfg))),
    "fixed-time": (
        lambda m, n, cfg: np.column_stack(fixed_time_sample(
            m, 2.0, n, seed=11, level_index=3, cfg=cfg)),
        lambda m, rng, cfg: sample_at_time(m, 2.0, rng, cfg)),
    "coupled": (
        lambda m, n, cfg: ratio_paths(m, _LEVELS, n, seed=11, level_index=3,
                                      cfg=cfg),
        lambda m, rng, cfg: ratio_path(m, _LEVELS, rng, cfg)),
}


@pytest.mark.parametrize("kind", list(_TWINS))
def test_batch_rows_match_single_path_twins(kind):
    # row r of a batch is the single path on stream (seed, level index, r),
    # bit for bit, censored (nan) entries included
    batch, single = _TWINS[kind]
    for model, n, cfg in _TWIN_ROWS:
        mat = batch(model, n, cfg)
        assert mat.shape[0] == n
        for r in range(n):
            row = np.asarray(single(model, stream(11, 3, r), cfg),
                             dtype=float)
            assert np.array_equal(mat[r], row, equal_nan=True), (model, r)


@pytest.mark.parametrize("model", [DMP, SN, BD, JD],
                         ids=["dmp", "sn", "bd", "jd"])
def test_lt_identity_rows_match_single_path_twins(model):
    # row r draws its Exp(mu) level from stream (seed, 0, r), then walks
    # that stream's path: the summary is that of the single-path twins
    mu, nu, theta = 1.5, 0.5, 0.25
    n = simulate._CHUNK + 44 if model is DMP else 30
    cfg = SimConfig(horizon=200.0)
    kappa = LadderExponent(Backend.DRIFT_MINUS_POISSON, 0.0, 0.0, 0.0,
                           lambda a, b: 1.0 + a + b)
    rep = verify_lt_identity(model, kappa, mu=mu, nu=nu, theta=theta, n=n,
                             seed=19, cfg=cfg)
    vals = []
    for r in range(n):
        rng = stream(19, 0, r)
        rec = simulate_passage(model, rng.exponential(1.0 / mu), rng, cfg)
        g = rec.g_last_max
        vals.append(math.exp(-nu * g - theta * (rec.tau - g)) * (1.0 / mu)
                    if rec.ruined else 0.0)
    assert rep["lhs"] == float(np.mean(vals))
    assert rep["se"] == float(np.std(vals, ddof=1) / math.sqrt(n))


def _lockstep_outputs():
    out = []
    # on the bridges of JD and BD the horizon censors some passages at 60
    # and cuts the walks to level 90
    for model, horizon in ((DMP, 150.0), (SN, 150.0), (CL, 150.0),
                           (LINE, 150.0), (JD, 70.0), (BD, 70.0)):
        cfg = SimConfig(horizon=horizon)
        b = passage_sample(model, 60.0, 600, seed=23, level_index=1, cfg=cfg)
        out += [b.tau, b.ruined, b.x_at_tau, b.overshoot, b.undershoot,
                b.g_last_max]
        out += list(fixed_time_sample(model, 100.0, 600, seed=23, cfg=cfg))
        out.append(ratio_paths(model, [1.0, 30.0, 90.0], 600, seed=23,
                               cfg=cfg))
    return [np.asarray(a, dtype=float).tobytes() for a in out]


@pytest.mark.parametrize("chunk", [1, 7])
def test_lockstep_output_is_chunk_invariant(monkeypatch, chunk):
    # rows advance together in chunks; the chunk size changes no byte
    want = _lockstep_outputs()
    monkeypatch.setattr(simulate, "_CHUNK", chunk)
    assert _lockstep_outputs() == want


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0, 0.0])
@pytest.mark.parametrize("model", [DMP, BD, JD], ids=["dmp", "bd", "jd"])
def test_fixed_time_must_be_finite_and_positive(model, t):
    # nan and inf walked forever, and a time at or below 0 gave a number
    with pytest.raises(ValueError, match=r"^t: must be finite and positive"):
        fixed_time_sample(model, t, 3)
    with pytest.raises(ValueError, match=r"^t: must be finite and positive"):
        sample_at_time(model, t, stream(0))


def test_ratio_path_rejects_bad_levels():
    with pytest.raises(ValueError):
        ratio_path(DMP, [2.0, 1.0], stream(0))
    with pytest.raises(ValueError):
        ratio_path(DMP, [0.0, 1.0], stream(0))


# ---------------------------------------------------------------------------
# fixed-time marginals


def test_fixed_time_sample_matches_increment_mean():
    t = 4.0
    xs, ms, gs = fixed_time_sample(DMP, t, 3000, seed=41)
    assert abs(np.mean(xs) - t * 1.0) < 0.2     # E X_t = t (a - 1)
    assert np.all(ms >= xs - 1e-12)
    assert np.all(ms >= 0.0)
    assert np.all((gs >= 0.0) & (gs <= t))


def test_skeleton_fixed_time_tracks_maximum():
    xs, ms, gs = fixed_time_sample(BD, 2.0, 2000, seed=43)
    assert np.all(ms >= xs - 1e-12)
    assert np.all(ms >= -1e-12)
    assert abs(np.mean(xs) - 2.0) < 0.15


# ---------------------------------------------------------------------------
# ladder extraction and cutoff selection


def test_extract_ladder_on_upward_drift():
    cfg = SimConfig(horizon=500.0)
    epochs = extract_ladder(DMP, cfg, stream(51))
    dts = np.array([e[0] for e in epochs])
    dhs = np.array([e[1] for e in epochs])
    assert np.all(dts >= 0.0)
    assert np.all(dhs > 0.0)
    # heights climb to roughly horizon * drift net of jumps
    assert dhs.sum() > 100.0


def test_cutoff_for_rate_brackets_target():
    m = make_counterexample1()
    eps = cutoff_for_rate(m, 1000.0)
    assert m.measure.total_tail(eps) <= 1000.0 * (1.0 + 1e-6)
    assert m.measure.total_tail(eps * 0.5) > 1000.0
