"""Experiment-layer tests: ratio statistics, verdicts, reports.

MC tolerances follow the reporting band used by the experiments themselves
(3 standard errors plus a 2% allowance); structural identities (weight
consistency at rho = 0, histogram mass accounting) are asserted exactly.
"""

import json
import math

import numpy as np
import pytest

from levy_passage.experiments import (ASReport, ExperimentResult,
                                      OvershootHist, RunningStat,
                                      appendix_demo, as_stability_experiment,
                                      g_stability_experiment,
                                      mean_exit_experiment,
                                      overshoot_law_experiment,
                                      tau_stability_experiment)
from levy_passage.models import (ModelError, Regime, brownian_drift,
                                 cramer_lundberg, drift_minus_poisson,
                                 make_counterexample1, spectrally_negative)
from levy_passage.output import result_payload, write_json
from levy_passage.simulate import SimConfig, passage_sample

DMP = drift_minus_poisson(2.0)


# ---------------------------------------------------------------------------
# running statistics


def test_running_stat_matches_numpy():
    x = np.array([0.2, 1.4, -3.0, 0.9, 2.2])
    s = RunningStat.from_values(x)
    assert s.mean == pytest.approx(np.mean(x), rel=1e-14)
    assert s.sd == pytest.approx(np.std(x, ddof=1), rel=1e-12)
    assert s.se == pytest.approx(np.std(x, ddof=1) / math.sqrt(5), rel=1e-12)


def test_running_stat_small_n_guards():
    assert math.isnan(RunningStat.from_values(np.array([1.0])).se)
    empty = RunningStat.from_values(np.array([]))
    assert empty.n == 0
    assert math.isnan(empty.sd)


# ---------------------------------------------------------------------------
# overshoot histograms


def test_overshoot_hist_separates_exact_zero_atom():
    vals = np.array([0.0, 0.0, 0.5, 2.0, 0.0])
    h = OvershootHist.from_values(vals)
    assert h.zero_mass == 3
    assert h.total_mass == 5
    assert int(h.counts.sum()) == 2
    assert np.all(h.edges > 0.0)


# ---------------------------------------------------------------------------
# per-level results


def _cl_result(rho_list=(0.0, 0.5, 1.0), n=3000, u=2.0, seed=6):
    m = cramer_lundberg(1.0, 2.0, 1.0)
    batch = passage_sample(m, u, n, seed=seed, cfg=SimConfig(horizon=200.0))
    return ExperimentResult.from_batch(batch, rho_list)


def test_weight_zero_reproduces_plain_mean_bitwise():
    r = _cl_result()
    assert r.weighted_tau[0.0].mean == r.tau_ratio.mean
    assert r.weighted_tau[0.0].m2 == r.tau_ratio.m2
    assert r.weighted_g[0.0].mean == r.g_ratio.mean


def test_weighted_mean_nonincreasing_in_rho():
    r = _cl_result()
    rhos = sorted(r.weighted_tau)
    means = [r.weighted_tau[q].mean for q in rhos]
    assert all(a >= b for a, b in zip(means, means[1:]))


def test_histogram_mass_equals_ruined_count():
    r = _cl_result()
    assert r.overshoot_hist.total_mass == r.n_ruined
    assert r.n_ruined + r.n_censored == r.n


def test_se_shrinks_like_root_n():
    a = _cl_result(n=2500, seed=8)
    b = _cl_result(n=5000, seed=9)
    ratio = (a.se_tau_ratio ** 2) / (b.se_tau_ratio ** 2)
    assert 2.0 * 0.8 < ratio < 2.0 * 1.2


def _json_round_trip(tmp_path, kind, result) -> dict:
    path = tmp_path / "result.json"
    write_json(path, result_payload(kind, result))
    return json.loads(path.read_text())


def test_result_json_round_trip(tmp_path):
    r = _cl_result(n=500)
    back = _json_round_trip(tmp_path, "overshoot", r)
    assert set(back) == {"format", "kind", "u", "n", "n_censored",
                         "tau_ratio", "g_ratio", "overshoot_hist",
                         "weighted_tau", "weighted_g"}
    assert back["tau_ratio"] == {"n": r.tau_ratio.n, "mean": r.mean_tau_ratio,
                                 "m2": r.tau_ratio.m2}
    assert back["overshoot_hist"] == {
        "zero_mass": r.overshoot_hist.zero_mass,
        "edges": r.overshoot_hist.edges.tolist(),
        "counts": r.overshoot_hist.counts.tolist()}
    assert set(back["weighted_tau"]) == {repr(q) for q in r.weighted_tau}


# ---------------------------------------------------------------------------
# stability experiments


def test_tau_stability_brownian_large_level():
    bd = brownian_drift(1.0, 1.0)
    rep = tau_stability_experiment(bd, None, [100.0], 10_000, seed=4)
    r = rep.results[0]
    assert rep.target == pytest.approx(1.0)
    assert abs(r.mean_tau_ratio - 1.0) < 3.0 * r.se_tau_ratio + 0.02
    assert rep.verdict == "pass"


def test_g_stability_brownian_large_level():
    bd = brownian_drift(1.0, 1.0)
    rep = g_stability_experiment(bd, None, [100.0], 10_000, seed=4)
    r = rep.results[0]
    assert abs(r.mean_g_ratio - 1.0) < 3.0 * r.se_g_ratio + 0.02
    assert rep.verdict == "pass"


def test_pure_drift_all_mass_at_reciprocal_slope():
    line = brownian_drift(2.0, 0.0)
    rep = tau_stability_experiment(line, None, [1.0, 4.0], 200, seed=1)
    for r in rep.results:
        assert r.mean_tau_ratio == 0.5
        assert r.tau_ratio.sd == 0.0
    assert rep.verdict == "pass"


def test_dmp_small_levels_concentrate_at_creep_ratio():
    # the creep value u/a dominates: medians sit at 1/a exactly even though
    # the mean stays near 1 (recovery paths carry the difference)
    cfg = SimConfig(horizon=1e4)
    rep = g_stability_experiment(DMP, cfg, [0.05, 0.02], 400, seed=12)
    assert rep.target == pytest.approx(0.5, rel=1e-6)
    for tau_med, g_med in rep.medians:
        assert g_med == pytest.approx(0.5, abs=1e-12)
        assert tau_med == pytest.approx(0.5, abs=1e-12)


def test_counterexample1_small_levels_diverge():
    ce1 = make_counterexample1()
    cfg = SimConfig(epsilon=5e-3, dt=0.01, horizon=30.0)
    rep = tau_stability_experiment(ce1, cfg, [0.1, 0.02], 200, seed=3)
    assert rep.classifier.holds == "no"
    assert rep.verdict == "inconclusive"
    assert math.isnan(rep.target)
    med = [m[0] for m in rep.medians]
    assert med[1] > 2.0 * med[0]    # ratios grow as the level falls


def test_large_level_refused_for_downward_drift():
    cl = cramer_lundberg(1.0, 2.0, 1.0)
    with pytest.raises(ModelError):
        tau_stability_experiment(cl, None, [10.0, 100.0], 200)


def test_censoring_error_when_horizon_too_short():
    cfg = SimConfig(horizon=5.0)
    with pytest.raises(ModelError, match="horizon"):
        tau_stability_experiment(DMP, cfg, [30.0], 200, seed=2)


def test_grid_validation():
    with pytest.raises(ValueError):
        tau_stability_experiment(DMP, None, [], 200)
    with pytest.raises(ValueError):
        tau_stability_experiment(DMP, None, [1.0, 3.0, 2.0], 200)
    with pytest.raises(ValueError):
        tau_stability_experiment(DMP, None, [5.0], 50)
    # a non-finite level fails before any path is simulated
    for bad in ([1.0, math.inf], [math.nan]):
        with pytest.raises(ValueError, match="finite"):
            tau_stability_experiment(DMP, None, bad, 200)


# ---------------------------------------------------------------------------
# mean exit


def test_mean_exit_brownian_large():
    bd = brownian_drift(2.0, 1.0)
    rep = mean_exit_experiment(bd, None, [10.0, 30.0], 800, seed=14)
    assert rep.target == pytest.approx(0.5)
    r = rep.results[-1]
    assert abs(r.mean_tau_ratio - 0.5) < 3.0 * r.se_tau_ratio + 0.01
    assert rep.verdict == "pass"


def test_mean_exit_requires_upward_drift():
    with pytest.raises(ModelError, match="drifting"):
        mean_exit_experiment(cramer_lundberg(1.0, 2.0, 1.0), None, [1.0], 200)


def test_mean_exit_dmp_small_levels():
    cfg = SimConfig(horizon=1e4)
    rep = mean_exit_experiment(DMP, cfg, [0.2, 0.05], 3000, seed=15,
                               regime=Regime.MEAN_SMALL)
    # E tau_u / u -> (1 + E tau_1)/a = 1 for a = 2
    assert rep.target == pytest.approx(1.0)
    r = rep.results[-1]
    assert abs(r.mean_tau_ratio - 1.0) < 3.0 * r.se_tau_ratio + 0.02


# ---------------------------------------------------------------------------
# overshoot law


def test_overshoot_law_rejects_lattice_jumps():
    with pytest.raises(ModelError, match="lattice"):
        overshoot_law_experiment(DMP, None, 1.0, 200, [0.0])


def test_overshoot_law_creeping_family():
    m = spectrally_negative(2.0, 1.0, 1.0)
    cfg = SimConfig(horizon=1e5)
    r = overshoot_law_experiment(m, cfg, 5.0, 600, [0.0, 1.0, 2.0], seed=18)
    assert r.overshoot_hist.zero_mass == r.n_ruined     # pure creep
    base = r.weighted_tau[0.0].mean
    for rho in (1.0, 2.0):
        assert r.weighted_tau[rho].mean == base         # weights are all 1


# ---------------------------------------------------------------------------
# pathwise (a.s.) reports


def test_as_stability_brownian_large_levels():
    # per-path ratio spread at level u is ~ u^-1/2, so the band test needs
    # levels deep enough that three tail levels all sit inside 15%
    bd = brownian_drift(1.0, 1.0)
    levels = np.geomspace(4.0, 4096.0, 6)
    rep = as_stability_experiment(bd, SimConfig(dt=0.1), levels, 40, seed=21)
    assert rep.target == pytest.approx(1.0)
    assert rep.verdict == "pass"
    assert rep.fraction_pass >= 0.9


def test_as_stability_dmp_small_levels():
    levels = np.geomspace(1e-3, 0.064, 7)
    rep = as_stability_experiment(DMP, None, levels, 120, seed=22)
    assert rep.target == pytest.approx(0.5, rel=1e-6)
    assert rep.verdict == "pass"
    med = rep.median_ratio[0]
    assert med == pytest.approx(0.5, abs=0.02)


def test_as_stability_inconclusive_when_classifier_says_no():
    bd = brownian_drift(1.0, 1.0)
    levels = np.geomspace(1e-4, 1e-2, 6)
    rep = as_stability_experiment(bd, None, levels, 40, seed=23)
    assert rep.verdict == "inconclusive"
    assert math.isnan(rep.target)


def test_as_report_serializes(tmp_path):
    bd = brownian_drift(1.0, 1.0)
    rep = as_stability_experiment(bd, None, [1.0, 2.0, 4.0, 8.0, 16.0], 30,
                                  seed=25)
    d = _json_round_trip(tmp_path, "as-stability", rep)
    assert d["n_paths"] == 30
    assert d["median_ratio"] == rep.median_ratio.tolist()
    assert d["levels"] == rep.levels.tolist()


# ---------------------------------------------------------------------------
# fixed-time demo tables


def test_appendix_demo_event_exact_rows():
    rows = appendix_demo(DMP, [1.0, 10.0], 500, seed=27)
    assert [r.t for r in rows] == [1.0, 10.0]
    for row in rows:
        assert row.epsilon == 0.0
        assert row.max_med >= row.x_med
    # E X_t / t = 1; medians should sit near it at t = 10
    assert abs(rows[1].x_med - 1.0) < 0.25


def test_appendix_demo_rejects_nonpositive_times():
    with pytest.raises(ValueError):
        appendix_demo(DMP, [0.0, 1.0], 200)


@pytest.mark.parametrize("times", [[math.nan], [1.0, math.inf], [-1.0]])
def test_appendix_demo_refuses_times_not_finite_and_positive(times):
    with pytest.raises(ValueError, match=r"^times: must be finite"):
        appendix_demo(make_counterexample1(), times, 200)
