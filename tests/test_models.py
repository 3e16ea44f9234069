"""Model construction, tail calculus, cumulants, and the stability classifier.

Numeric anchors follow one of three patterns: closed forms computed by hand
(drift and exponential algebra), independently derivable limits (the
counterexample families have A(x) = -1 + ln 2 / ln x by construction), and
frozen regression values produced by the quadrature stack and spot-checked
against those closed forms.
"""

import math

import numpy as np
import pytest

from levy_passage.models import (Family, ModelError, Regime, brownian_drift,
                                 classify_stability, compound_poisson_drift,
                                 cramer_lundberg, cumulant,
                                 cumulant_derivative, custom_model,
                                 drift_minus_poisson, make_counterexample1,
                                 make_counterexample2, process_mean,
                                 spectrally_negative, truncated_mean,
                                 truncated_quadratic_variation)
from levy_passage.measures import ExponentialJump, UniformJump


# ---------------------------------------------------------------------------
# constructors and hooks


def test_brownian_drift_hooks():
    m = brownian_drift(1.0, 1.0)
    assert m.family is Family.BROWNIAN_DRIFT
    assert m.hooks.mean == 1.0
    assert m.hooks.drifts_to == 1
    assert m.is_bv() is False
    assert m.hooks.regular_upward


def test_pure_drift_is_bounded_variation():
    m = brownian_drift(2.0, 0.0)
    assert m.is_bv() is True
    assert m.drift_bv() == 2.0


def test_dmp_ladder_hooks_exact():
    m = drift_minus_poisson(2.0)
    assert m.hooks.ladder_height_drift == 2.0
    assert m.hooks.ladder_time_drift == 1.0
    assert m.hooks.mean_tau1 == pytest.approx(1.0)
    assert m.hooks.ladder_time_mean == pytest.approx(2.0)
    assert m.drift_bv() == 2.0
    assert m.measure.is_lattice


def test_dmp_requires_upward_drift():
    with pytest.raises(ModelError):
        drift_minus_poisson(1.0)


def test_cramer_lundberg_orientation():
    # claims push X up; ruin of the reserve is passage of X above u
    m = cramer_lundberg(1.0, 2.0, 1.0)
    assert m.drift_bv() == -1.0
    assert m.measure.has_positive_jumps()
    assert not m.measure.has_negative_jumps()
    assert process_mean(m) == pytest.approx(-0.5)
    assert m.hooks.drifts_to == -1


def test_spectrally_negative_orientation():
    m = spectrally_negative(2.0, 1.0, 1.0)
    assert m.drift_bv() == 2.0
    assert not m.measure.has_positive_jumps()
    assert m.measure.has_negative_jumps()
    assert process_mean(m) == pytest.approx(1.0)


def test_negative_sigma2_rejected():
    with pytest.raises(ModelError):
        brownian_drift(0.0, -1.0)


# ---------------------------------------------------------------------------
# tail calculus: truncated mean A(x) and quadratic variation V(x)


def test_dmp_truncated_mean_closed_form():
    # A(x) = a - x for x <= 1 (jump tail contributes linearly), a - 1 beyond
    m = drift_minus_poisson(2.0)
    assert truncated_mean(m, 0.5) == pytest.approx(1.5, rel=1e-10)
    assert truncated_mean(m, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert truncated_mean(m, 2.0) == pytest.approx(1.0, rel=1e-10)


def test_dmp_quadratic_variation_has_no_small_jumps():
    m = drift_minus_poisson(2.0)
    assert abs(truncated_quadratic_variation(m, 0.5)) < 1e-10
    assert truncated_quadratic_variation(m, 1.5) == pytest.approx(1.0, rel=1e-8)


def test_truncated_mean_dual_form_agreement():
    models = [
        drift_minus_poisson(2.0),
        cramer_lundberg(1.0, 2.0, 1.0),
        spectrally_negative(2.0, 1.0, 1.0),
        make_counterexample1(),
    ]
    xs = [0.003, 0.08, 0.7, 1.0, 4.0, 60.0]
    for m in models:
        for x in xs:
            a = truncated_mean(m, x, form="cutoff")
            b = truncated_mean(m, x, form="dual")
            assert a == pytest.approx(b, rel=1e-7, abs=1e-9), (m.family, x)


def test_truncated_mean_rejects_bad_scale():
    with pytest.raises(ModelError):
        truncated_mean(drift_minus_poisson(2.0), 0.0)


# ---------------------------------------------------------------------------
# cumulants


def test_brownian_cumulant_closed_form():
    m = brownian_drift(1.0, 1.0)
    for nu in (0.5, 1.0, 2.0):
        assert cumulant(m, nu) == pytest.approx(nu + 0.5 * nu * nu, rel=1e-12)
    assert cumulant_derivative(m, 1.0) == pytest.approx(2.0, rel=1e-6)


def test_dmp_cumulant_closed_form():
    m = drift_minus_poisson(2.0)
    for nu in (0.5, 1.0, 3.0):
        want = 2.0 * nu + math.exp(-nu) - 1.0
        assert cumulant(m, nu) == pytest.approx(want, rel=1e-12)


def test_cl_cumulant_root_and_divergence():
    m = cramer_lundberg(1.0, 2.0, 1.0)
    # psi(nu) = -nu + nu/(2 - nu); zero at nu0 = 1, infinite past alpha = 2
    assert cumulant(m, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert cumulant(m, 2.0) == math.inf
    assert cumulant(m, 2.5) == math.inf
    assert cumulant(m, 0.5) == pytest.approx(-0.5 + 0.5 / 1.5, rel=1e-12)


def test_sn_bv_cumulant_closed_form():
    m = spectrally_negative(2.0, 1.0, 1.0)
    for nu in (0.5, 1.0, 2.0):
        want = 2.0 * nu - nu / (1.0 + nu)
        assert cumulant(m, nu) == pytest.approx(want, rel=1e-12)


def test_cumulant_convexity_on_grid():
    models = [
        brownian_drift(1.0, 1.0),
        drift_minus_poisson(2.0),
        spectrally_negative(2.0, 1.0, 1.0),
        cramer_lundberg(1.0, 2.0, 1.0),
    ]
    grid = np.linspace(0.0, 1.8, 19)
    for m in models:
        vals = np.array([cumulant(m, float(v)) for v in grid])
        finite = np.isfinite(vals)
        v = vals[finite]
        # midpoint convexity on consecutive triples
        mid = 0.5 * (v[:-2] + v[2:])
        assert np.all(v[1:-1] <= mid + 1e-9), m.family


def test_quadrature_cumulant_matches_hook():
    # custom model with the same tails as the spectrally negative family
    m = spectrally_negative(2.0, 1.0, 1.0)
    c = custom_model(gamma=m.gamma, sigma2=0.0,
                     neg_tail="pow(2.718281828459045, -x)")
    for nu in (0.3, 1.0):
        assert cumulant(c, nu) == pytest.approx(cumulant(m, nu), rel=1e-6)


# ---------------------------------------------------------------------------
# counterexample families (construction anchors)


def test_ce1_tail_and_drift_anchors():
    m = make_counterexample1()
    assert m.measure.pos_tail(0.25) == pytest.approx(2.8853900817779268,
                                                     rel=1e-12)
    # A(x) = -1 + ln 2 / ln x by construction of the negative tail
    for x in (1e-3, 1e-5, 1e-8):
        want = -1.0 + math.log(2.0) / math.log(x)
        assert truncated_mean(m, x) == pytest.approx(want, rel=1e-9)
    assert truncated_quadratic_variation(m, 1.0) == pytest.approx(
        1.8877687175355369, rel=1e-10)


def test_ce2_zero_variant_drift_divergence():
    m = make_counterexample2(0.75, "zero")
    a4 = truncated_mean(m, 1e-4)
    a8 = truncated_mean(m, 1e-8)
    assert a4 == pytest.approx(-195.02486539360396, rel=1e-10)
    assert a8 == pytest.approx(-7267.8263238802365, rel=1e-10)
    assert a8 < a4 < 0.0


def test_ce2_infinity_variant_anchors():
    m = make_counterexample2(0.75, "infinity")
    assert m.measure.pos_tail(1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert m.measure.neg_tail(1.0) == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert truncated_mean(m, 10.0) == pytest.approx(-2.5794242848543885,
                                                    rel=1e-9)
    assert truncated_mean(m, 1e4) == pytest.approx(-87.58381189551821,
                                                   rel=1e-9)


_EXP2 = "pow(2.718281828459045, -2*x)"
_TAIL_MODELS = {
    "ce1": make_counterexample1,
    "ce2-zero": lambda: make_counterexample2(0.75, "zero"),
    "ce2-inf": lambda: make_counterexample2(0.75, "infinity"),
    "cramer-lundberg": lambda: cramer_lundberg(1.0, 2.0, 1.0),
    "spectrally-negative": lambda: spectrally_negative(2.0, 1.0, 1.0),
    "drift-minus-poisson": lambda: drift_minus_poisson(2.0),
    "uniform": lambda: compound_poisson_drift(
        1.0, UniformJump(-0.5, 2.0, 1.5), 1.0),
    "custom": lambda: custom_model(1.0, 0.0, _EXP2, "0", pos_support=3.0),
}


@pytest.mark.parametrize("name", list(_TAIL_MODELS))
def test_tails_take_arrays(name):
    m = _TAIL_MODELS[name]().measure
    xs = np.concatenate([np.geomspace(1e-6, 1e3, 97), m.breakpoints, [1.0]])
    for tail in (m.pos_tail, m.neg_tail):
        values = np.broadcast_to(tail(xs), xs.shape)
        points = [float(tail(float(x))) for x in xs]
        np.testing.assert_allclose(values, points, rtol=1e-15, atol=0.0)


def test_custom_tail_check_names_the_first_bad_point():
    m = custom_model(0.0, 0.0, "1 - x")
    assert m.measure.pos_tail(np.array([0.5, 0.75])).tolist() == [0.5, 0.25]
    with pytest.raises(ModelError, match=r"evaluated to -1\.0 at x=2\.0$"):
        m.measure.pos_tail(np.array([0.5, 2.0, 3.0]))
    m = custom_model(0.0, 0.0, "ln(2 - x) + 1")
    with pytest.raises(ModelError, match=r"evaluated to nan at x=3\.0$"):
        m.measure.pos_tail(np.array([0.5, 3.0, 4.0]))


def test_ce2_rejects_unknown_limit_point():
    with pytest.raises(ModelError):
        make_counterexample2(0.75, "both")


# ---------------------------------------------------------------------------
# the stability classifier


def _verdicts(model):
    out = {}
    for reg in Regime:
        v = classify_stability(model, reg)
        out[reg.value] = (v.holds, v.c)
    return out


def test_classifier_brownian_drift():
    got = _verdicts(brownian_drift(1.0, 1.0))
    assert got["prob-large"] == ("yes", pytest.approx(1.0))
    assert got["prob-small"][0] == "no"        # sigma2 != 0
    assert got["as-large"] == ("yes", pytest.approx(1.0))
    assert got["as-small"][0] == "no"
    assert got["mean-large"] == ("yes", pytest.approx(1.0))
    assert got["mean-small"] == ("yes", pytest.approx(1.0))


def test_classifier_drift_minus_poisson():
    got = _verdicts(drift_minus_poisson(2.0))
    assert got["prob-large"] == ("yes", pytest.approx(1.0))
    assert got["prob-small"] == ("yes", pytest.approx(2.0, rel=1e-6))
    assert got["as-large"] == ("yes", pytest.approx(1.0))
    assert got["as-small"] == ("yes", 2.0)     # structural, exact
    assert got["mean-large"] == ("yes", pytest.approx(1.0))
    assert got["mean-small"] == ("yes", pytest.approx(1.0))


def test_classifier_spectrally_negative_bv():
    got = _verdicts(spectrally_negative(2.0, 1.0, 1.0))
    assert got["prob-large"] == ("yes", pytest.approx(1.0))
    assert got["as-small"] == ("yes", 2.0)
    assert got["mean-small"] == ("yes", pytest.approx(1.0))


def test_classifier_counterexample1_small_time():
    # A(x) -> -1: the maximum over [0,t] is o(t), passage ratios diverge
    got = _verdicts(make_counterexample1())
    assert got["prob-small"] == ("no", 0.0)
    assert got["as-small"][0] == "no"
    assert got["mean-small"][0] == "inconclusive"


def test_classifier_counterexample2_both_variants():
    zero = _verdicts(make_counterexample2(0.75, "zero"))
    assert zero["prob-large"] == ("no", 0.0)       # max ratio -> 0
    inf_ = _verdicts(make_counterexample2(0.75, "infinity"))
    assert inf_["prob-large"] == ("no", math.inf)  # max ratio -> inf


def test_classifier_cramer_lundberg_defective():
    got = _verdicts(cramer_lundberg(1.0, 2.0, 1.0))
    for reg in ("prob-large", "as-large", "mean-large"):
        assert got[reg] == ("no", 0.0)


def test_classifier_rejects_bad_grids():
    m = drift_minus_poisson(2.0)
    with pytest.raises(ModelError):
        classify_stability(m, Regime.PROB_LARGE, grid=[1.0, 2.0, 3.0])
    with pytest.raises(ModelError):
        classify_stability(m, Regime.PROB_LARGE,
                           grid=np.logspace(0, -8, 17))   # wrong direction


def test_classifier_verdict_carries_evidence():
    v = classify_stability(drift_minus_poisson(2.0), Regime.PROB_LARGE)
    assert len(v.evidence) >= 8
    x, a, mass = v.evidence[-1]
    assert x > 1e6
    assert a == pytest.approx(1.0, rel=1e-6)
    assert mass == pytest.approx(0.0, abs=1e-12)
