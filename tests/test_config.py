"""Config loading, model construction, and diagnostics wording.

Every failure mode should name the offending field path, so most of these
tests pin the message as well as the exception type.
"""

import dataclasses
import json
import math

import pytest

from levy_passage.config import (_SIM_KEYS, EXPERIMENTS, ConfigError,
                                 check_keys, load_config, model_from_config,
                                 regime_from_config, sim_from_config,
                                 u_grid_from_config)
from levy_passage.models import Family, Regime
from levy_passage.simulate import SimConfig


def write(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(p)


# ---------------------------------------------------------------------------
# loading


def test_load_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/cfg.json")


def test_load_reports_line_and_column(tmp_path):
    path = write(tmp_path, '{\n  "model": {,}\n}')
    with pytest.raises(ConfigError, match=r"line 2, column 13"):
        load_config(path)


def test_load_rejects_non_object(tmp_path):
    path = write(tmp_path, "[1, 2, 3]")
    with pytest.raises(ConfigError, match="top level"):
        load_config(path)


def test_load_round_trip(tmp_path):
    cfg = {"model": {"family": "drift-minus-poisson", "a": 2.0}, "seed": 7}
    assert load_config(write(tmp_path, cfg)) == cfg


# ---------------------------------------------------------------------------
# model section


def test_every_family_constructs():
    cases = [
        ({"family": "brownian-drift", "drift": 1.0, "sigma2": 1.0},
         Family.BROWNIAN_DRIFT),
        ({"family": "compound-poisson-drift", "rate": 0.5, "drift": -1.0,
          "law": {"kind": "atom", "size": 1.0}},
         Family.COMPOUND_POISSON_DRIFT),
        ({"family": "drift-minus-poisson", "a": 2.0},
         Family.DRIFT_MINUS_POISSON),
        ({"family": "spectrally-negative", "drift": 2.0, "rate": 1.0,
          "alpha": 1.0}, Family.SPECTRALLY_NEGATIVE),
        ({"family": "cramer-lundberg", "lam": 1.0, "alpha": 2.0,
          "premium": 1.0}, Family.CRAMER_LUNDBERG),
        ({"family": "counterexample1"}, Family.COUNTEREXAMPLE_1),
        ({"family": "counterexample2", "beta": 0.75, "limit": "infinity"},
         Family.COUNTEREXAMPLE_2),
        ({"family": "custom", "gamma": 0.5,
          "pos_tail": "1 / (1 + x)", "neg_support": 0.0},
         Family.CUSTOM),
    ]
    for section, fam in cases:
        model = model_from_config({"model": section})
        assert model.family is fam, section


def test_unknown_family_lists_choices():
    with pytest.raises(ConfigError, match="drift-minus-poisson"):
        model_from_config({"model": {"family": "stable"}})


def test_missing_model_section():
    with pytest.raises(ConfigError, match="config.model"):
        model_from_config({})


def test_missing_field_names_path():
    with pytest.raises(ConfigError, match="model.a"):
        model_from_config({"model": {"family": "drift-minus-poisson"}})


def test_wrong_type_names_path():
    with pytest.raises(ConfigError, match="model.sigma2"):
        model_from_config({"model": {"family": "brownian-drift",
                                     "drift": 1.0, "sigma2": "big"}})


def test_bool_is_not_a_number():
    with pytest.raises(ConfigError, match="model.a"):
        model_from_config({"model": {"family": "drift-minus-poisson",
                                     "a": True}})


def test_model_value_errors_become_config_errors():
    # slope at most 1 is rejected by the family constructor
    with pytest.raises(ConfigError, match="model"):
        model_from_config({"model": {"family": "drift-minus-poisson",
                                     "a": 0.5}})


def test_jump_law_kinds():
    base = {"family": "compound-poisson-drift", "rate": 1.0, "drift": -1.0}
    for law in ({"kind": "exponential", "alpha": 2.0},
                {"kind": "uniform", "lo": 0.0, "hi": 1.0},
                {"kind": "atom", "size": 1.0}):
        m = model_from_config({"model": dict(base, law=law)})
        assert m.measure.total_rate == pytest.approx(1.0)
    with pytest.raises(ConfigError, match="model.law.kind: unknown kind"):
        model_from_config({"model": dict(base, law={"kind": "cauchy"})})
    with pytest.raises(ConfigError, match="model.law.alpha"):
        model_from_config(
            {"model": dict(base, law={"kind": "exponential"})})


# ---------------------------------------------------------------------------
# sim section


def test_sim_defaults_match_simconfig():
    base = SimConfig()
    got = sim_from_config({})
    assert got == base


def test_sim_overrides_and_seed():
    got = sim_from_config({"seed": 99,
                           "sim": {"dt": 0.25, "horizon": 50.0}})
    assert got.seed == 99
    assert got.dt == 0.25
    assert got.horizon == 50.0
    assert got.epsilon == SimConfig().epsilon


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_seed_outside_64_bits_names_the_field(seed):
    with pytest.raises(ConfigError, match=r"^config\.seed: seed out of range"):
        sim_from_config({"seed": seed})
    assert sim_from_config({"seed": 2**64 - 1}).seed == 2**64 - 1


def test_sim_invalid_values_name_section():
    with pytest.raises(ConfigError, match="sim"):
        sim_from_config({"sim": {"dt": -1.0}})
    with pytest.raises(ConfigError, match="sim.dt"):
        sim_from_config({"sim": {"dt": "fast"}})


@pytest.mark.parametrize("field", ["epsilon", "dt", "horizon"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -2.0])
def test_sim_requires_finite_positive_fields(field, bad):
    with pytest.raises(ConfigError, match=rf"^sim\.{field}: must be finite"):
        sim_from_config({"sim": {field: bad}})


def test_sim_rate_cap_must_be_positive():
    with pytest.raises(ConfigError, match=r"^sim\.rate_cap:"):
        sim_from_config({"sim": {"rate_cap": math.nan}})
    with pytest.raises(ConfigError, match=r"^sim\.rate_cap:"):
        sim_from_config({"sim": {"rate_cap": 0.0}})
    assert sim_from_config({"sim": {"rate_cap": math.inf}}).rate_cap \
        == math.inf


@pytest.mark.parametrize("key", ["block", "bridge_correction", "seed", "dT"])
def test_sim_rejects_unknown_fields(key):
    with pytest.raises(ConfigError, match=rf"^sim\.{key}: unknown field"):
        sim_from_config({"sim": {key: 0}})


def test_every_sim_field_but_the_seed_is_a_config_key():
    # a SimConfig field that no config file can set is a knob nothing
    # reaches outside the tests
    names = {f.name for f in dataclasses.fields(SimConfig)} - {"seed"}
    assert names == set(_SIM_KEYS)


def test_nan_dt_in_a_config_file_exits_one(tmp_path, capsys):
    from levy_passage.cli import main
    path = write(tmp_path, '{"model": {"family": "drift-minus-poisson", '
                           '"a": 2.0}, "u_grid": [1.0], "n": 100, '
                           '"sim": {"dt": NaN}}')
    assert main(["stability", "--config", path]) == 1
    assert "sim.dt: must be finite and positive" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# regime and level grid


def test_regime_parse():
    assert regime_from_config({}) is None
    assert regime_from_config({"regime": "prob-small"}) is Regime.PROB_SMALL
    assert regime_from_config({"regime": "mean-large"}) is Regime.MEAN_LARGE
    with pytest.raises(ConfigError, match="as-small"):
        regime_from_config({"regime": "almost-sure"})


def test_u_grid_happy_path():
    assert u_grid_from_config({"u_grid": [1, 2.5, 10]}) == [1.0, 2.5, 10.0]
    # decreasing grids are fine (small-level studies)
    assert u_grid_from_config({"u_grid": [1.0, 0.5, 0.25]}) == [1.0, 0.5,
                                                                0.25]


def test_u_grid_diagnostics_carry_the_index():
    with pytest.raises(ConfigError, match="nonempty"):
        u_grid_from_config({"u_grid": []})
    with pytest.raises(ConfigError, match=r"u_grid\[1\]"):
        u_grid_from_config({"u_grid": [1.0, -2.0]})
    with pytest.raises(ConfigError, match=r"u_grid\[2\]"):
        u_grid_from_config({"u_grid": [1.0, 2.0, "three"]})
    with pytest.raises(ConfigError, match="monotone"):
        u_grid_from_config({"u_grid": [1.0, 3.0, 2.0]})
    with pytest.raises(ConfigError, match=r"u_grid\[0\]"):
        u_grid_from_config({"u_grid": [True, 2.0]})
    with pytest.raises(ConfigError, match=r"^u_grid\[1\]: expected a finite"):
        u_grid_from_config({"u_grid": [1.0, math.inf]})


def test_u_grid_alternate_key():
    assert u_grid_from_config({"times": [0.1, 1.0]}, key="times") == [0.1,
                                                                      1.0]
    with pytest.raises(ConfigError, match="times"):
        u_grid_from_config({}, key="times")


def test_experiment_names():
    assert "classify" in EXPERIMENTS
    assert "ruin" in EXPERIMENTS
    assert "appendix-demo" in EXPERIMENTS
    assert len(EXPERIMENTS) == 11
    assert len(set(EXPERIMENTS)) == 11


def test_shared_top_level_keys_serve_every_experiment():
    # the keys of the README examples and of the benchmark's configs
    cfg = dict.fromkeys(("model", "sim", "seed", "n", "u_grid", "levels",
                         "times", "transform", "regime"))
    for name in EXPERIMENTS:
        check_keys(cfg, name)


@pytest.mark.parametrize("experiment,key", [
    ("stability", "regim"),
    ("stability", "rho_lst"),
    ("ruin", "rho_list"),
    ("mean-exit", "rho_list"),
    ("classify", "band"),
    ("as-stability", "allow_empirical"),
])
def test_unknown_top_level_keys_are_errors(experiment, key):
    with pytest.raises(ConfigError,
                       match=rf"^config\.{key}: unknown field \(expected "):
        check_keys({"n": 100, key: 1.0}, experiment)


def test_custom_model_tail_errors_are_config_errors():
    with pytest.raises(ConfigError, match=r"^model\.pos_tail: "):
        model_from_config({"model": {"family": "custom", "gamma": 0.0,
                                     "pos_tail": "1 +"}})
    with pytest.raises(ConfigError, match=r"^model\.neg_tail: .*nest"):
        model_from_config({"model": {"family": "custom", "gamma": 0.0,
                                     "neg_tail": "-" * 5000 + "x"}})


@pytest.mark.parametrize("section,field", [
    ({"family": "custom", "gamma": 1.0, "sigma": 1.0, "pos_tail": "0"},
     "model.sigma"),
    ({"family": "counterexample1", "beta": 0.5}, "model.beta"),
    ({"family": "compound-poisson-drift", "rate": 1.0, "drift": -1.0,
      "law": {"kind": "exponential", "alpha": 2.0, "sgn": -1}},
     "model.law.sgn"),
])
def test_unknown_model_fields_are_errors(section, field):
    with pytest.raises(ConfigError,
                       match=rf"^{field}: unknown field \(expected "):
        model_from_config({"model": section})


# tests/test_cli.py runs the NaN drift, Infinity slope, NaN support and
# non-number breakpoint through the command line
@pytest.mark.parametrize("section,field", [
    ({"family": "compound-poisson-drift", "rate": 1.0, "drift": -1.0,
      "law": {"kind": "uniform", "lo": 0.0, "hi": math.inf}},
     "model.law.hi"),
    ({"family": "counterexample2", "beta": -math.inf}, "model.beta"),
    ({"family": "custom", "gamma": 0.0, "pos_tail": "1 / (1 + x)",
      "neg_support": -math.inf}, "model.neg_support"),
    ({"family": "custom", "gamma": 0.0, "breakpoints": [1.0, math.nan]},
     r"model.breakpoints\[1\]"),
])
def test_model_numbers_must_be_finite(section, field):
    with pytest.raises(ConfigError, match=rf"^{field}: expected a finite"):
        model_from_config({"model": section})


def test_infinite_support_is_the_unbounded_default():
    section = {"family": "custom", "gamma": 0.5, "pos_tail": "1 / (1 + x)",
               "neg_tail": "1 / (1 + x)"}
    default = model_from_config({"model": section})
    explicit = model_from_config({"model": dict(section,
                                                pos_support=math.inf)})
    assert explicit.measure.pos_support == default.measure.pos_support \
        == math.inf


def test_counterexample2_limit_validation():
    with pytest.raises(ConfigError, match="model"):
        model_from_config({"model": {"family": "counterexample2",
                                     "limit": "both"}})
    m = model_from_config({"model": {"family": "counterexample2"}})
    assert m.family is Family.COUNTEREXAMPLE_2


def test_infinity_amount_of_levels_not_required():
    # scientific-notation JSON numbers parse as floats
    grid = u_grid_from_config({"u_grid": [1e-4, 1e-3, 1e-2]})
    assert grid == [1e-4, 1e-3, 1e-2]
