"""End-to-end command line runs, in process via main(argv).

Each test drives a real experiment on a deliberately small budget; the
assertions focus on exit codes, stdout wording, output files, and the
manifest contract (result bytes identical across reruns, provenance in the
sibling file).
"""

import json
import math
import os
import subprocess
import sys

import pytest

import levy_passage
from levy_passage import __version__
from levy_passage.cli import main
from levy_passage.models import cramer_lundberg
from levy_passage.output import PLOT_COLUMNS, RECORD_COLUMNS, write_csv
from levy_passage.simulate import SimConfig, passage_sample


def cfg_file(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def dmp_cfg(tmp_path, **extra):
    base = {"model": {"family": "drift-minus-poisson", "a": 2.0},
            "sim": {"horizon": 500.0}, "seed": 11, "n": 300,
            "u_grid": [2.0, 8.0]}
    base.update(extra)
    return cfg_file(tmp_path, base)


# ---------------------------------------------------------------------------
# classify


def test_classify_prints_verdict(tmp_path, capsys):
    path = dmp_cfg(tmp_path, regime="prob-large")
    assert main(["classify", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "classify prob-large: yes" in out
    assert "c=1" in out


def test_classify_inconclusive_warns_but_exits_zero(tmp_path, capsys):
    path = cfg_file(tmp_path, {"model": {"family": "counterexample1"},
                               "regime": "mean-small"})
    assert main(["classify", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "inconclusive" in out
    assert "warning" in out


def test_classify_requires_regime(tmp_path, capsys):
    path = dmp_cfg(tmp_path)
    assert main(["classify", "--config", path]) == 1
    assert "regime" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# stability family of commands


def test_stability_writes_result_and_manifest(tmp_path, capsys):
    path = dmp_cfg(tmp_path, regime="prob-large")
    out = str(tmp_path / "stab.csv")
    assert main(["stability", "--config", path, "--out", out]) == 0
    text = capsys.readouterr().out
    assert "stability u=2:" in text
    assert "stability verdict: pass" in text
    lines = open(out).read().splitlines()
    assert lines[0] == ",".join(PLOT_COLUMNS)
    assert len(lines) > 4
    man = json.load(open(out + ".manifest.json"))
    assert man["version"] == __version__
    assert "threads" not in man
    assert man["spec"]["seed"] == 11
    assert man["wall_time_s"] >= 0.0


def test_result_bytes_identical_across_reruns(tmp_path):
    path = dmp_cfg(tmp_path, regime="prob-large")
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    assert main(["stability", "--config", path, "--out", out1]) == 0
    assert main(["stability", "--config", path, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_seed_override_changes_results(tmp_path):
    path = dmp_cfg(tmp_path, regime="prob-large")
    outs = []
    for name, seed in (("s1.csv", "101"), ("s2.csv", "102"),
                       ("s3.csv", "101")):
        out = str(tmp_path / name)
        assert main(["stability", "--config", path, "--seed", seed,
                     "--out", out]) == 0
        outs.append(open(out, "rb").read())
    assert outs[0] != outs[1]
    assert outs[0] == outs[2]


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_override_outside_64_bits_exits_1(tmp_path, capsys, seed):
    path = dmp_cfg(tmp_path, regime="prob-large")
    assert main(["stability", "--config", path, "--seed", seed]) == 1
    assert "config.seed" in capsys.readouterr().err


def test_seed_override_lands_in_manifest(tmp_path):
    path = dmp_cfg(tmp_path, regime="prob-large")
    out = str(tmp_path / "s.csv")
    assert main(["stability", "--config", path, "--seed", "77",
                 "--out", out]) == 0
    assert json.load(open(out + ".manifest.json"))["spec"]["seed"] == 77


def test_stability_json_payload(tmp_path):
    path = dmp_cfg(tmp_path, regime="prob-large")
    out = str(tmp_path / "stab.json")
    assert main(["stability", "--config", path, "--out", out,
                 "--format", "json"]) == 0
    payload = json.load(open(out))
    assert payload["format"] == "levy-passage/result-v1"
    assert payload["kind"] == "stability"
    assert payload["verdict"] == "pass"
    assert len(payload["results"]) == 2


def test_last_max_and_mean_exit_run(tmp_path, capsys):
    path = dmp_cfg(tmp_path, regime="prob-large")
    assert main(["last-max", "--config", path]) == 0
    assert "last-max verdict:" in capsys.readouterr().out
    path2 = dmp_cfg(tmp_path, regime="mean-large")
    assert main(["mean-exit", "--config", path2]) == 0
    assert "mean-exit verdict: pass" in capsys.readouterr().out


def test_as_stability_accepts_levels_key(tmp_path, capsys):
    path = cfg_file(tmp_path, {
        "model": {"family": "drift-minus-poisson", "a": 2.0},
        "sim": {"horizon": 500.0}, "seed": 5, "n": 100,
        "levels": [0.064, 0.016, 0.004, 0.001]})
    out = str(tmp_path / "as.csv")
    assert main(["as-stability", "--config", path, "--out", out]) == 0
    assert "as-stability: fraction" in capsys.readouterr().out
    lines = open(out).read().splitlines()
    assert lines[0] == ",".join(PLOT_COLUMNS)
    assert len(lines) == 5


# ---------------------------------------------------------------------------
# records, overshoot, transform identity


def test_simulate_writes_one_row_per_replication(tmp_path, capsys):
    path = dmp_cfg(tmp_path, u_grid=[1.0])
    out = str(tmp_path / "rec.csv")
    assert main(["simulate", "--config", path, "--out", out,
                 "--reps", "150"]) == 0
    assert "engine=event-exact" in capsys.readouterr().out
    lines = open(out).read().splitlines()
    assert lines[0] == ",".join(RECORD_COLUMNS)
    assert len(lines) == 151


def test_simulate_csv_streams_the_bytes_of_one_dict_per_row(tmp_path):
    # the CSV is written row by row from the batch's columns; its bytes are
    # those of the writer that built every row's dict first, censored rows
    # (tau inf, the rest nan) included
    cfg = {"model": {"family": "cramer-lundberg", "lam": 1.0, "alpha": 2.0,
                     "premium": 1.0},
           "sim": {"horizon": 3.0}, "seed": 5, "n": 300, "u_grid": [1.0]}
    out = str(tmp_path / "rec.csv")
    assert main(["simulate", "--config", cfg_file(tmp_path, cfg),
                 "--out", out]) == 0
    batch = passage_sample(cramer_lundberg(1.0, 2.0, 1.0), 1.0, 300, seed=5,
                           cfg=SimConfig(horizon=3.0))
    assert 0 < batch.n_ruined < batch.n
    rows = []
    for r in range(batch.n):
        rows.append({
            "u": batch.u, "tau": float(batch.tau[r]),
            "x_at_tau": float(batch.x_at_tau[r]),
            "overshoot": float(batch.overshoot[r]),
            "undershoot": float(batch.undershoot[r]),
            "g_last_max": float(batch.g_last_max[r]),
            "ruined": bool(batch.ruined[r]),
            "seed": batch.seed, "replication": r,
        })
    want = tmp_path / "want.csv"
    write_csv(str(want), RECORD_COLUMNS, rows)
    assert open(out, "rb").read() == want.read_bytes()
    assert b"inf" in want.read_bytes() and b"nan" in want.read_bytes()


def test_simulate_requires_single_level(tmp_path, capsys):
    path = dmp_cfg(tmp_path)
    assert main(["simulate", "--config", path]) == 1
    assert "exactly one level" in capsys.readouterr().err


def test_overshoot_reports_zero_atom(tmp_path, capsys):
    path = cfg_file(tmp_path, {
        "model": {"family": "spectrally-negative", "drift": 2.0,
                  "rate": 1.0, "alpha": 1.0},
        "sim": {"horizon": 100000.0}, "seed": 9, "n": 200,
        "u_grid": [3.0]})
    assert main(["overshoot", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "zero-atom 200/200" in out
    assert "rho=1:" in out


def test_lt_identity_passes_on_closed_form_backend(tmp_path, capsys):
    path = cfg_file(tmp_path, {
        "model": {"family": "drift-minus-poisson", "a": 2.0},
        "seed": 21, "n": 2000,
        "transform": {"mu": 1.0, "nu": 0.5, "theta": 0.5}})
    out = str(tmp_path / "lt.csv")
    assert main(["lt-identity", "--config", path, "--out", out]) == 0
    assert "[pass]" in capsys.readouterr().out
    stats = [line.split(",")[2] for line in
             open(out).read().splitlines()[1:]]
    assert stats == ["lhs", "rhs", "z"]


def test_lt_identity_needs_mu(tmp_path, capsys):
    path = cfg_file(tmp_path, {
        "model": {"family": "drift-minus-poisson", "a": 2.0},
        "seed": 21, "n": 2000, "transform": {"nu": 0.5}})
    assert main(["lt-identity", "--config", path]) == 1
    assert "transform.mu" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ruin and conditional


def cl_cfg(tmp_path, **extra):
    base = {"model": {"family": "cramer-lundberg", "lam": 1.0, "alpha": 2.0,
                      "premium": 1.0},
            "sim": {"horizon": 600.0}, "seed": 79, "n": 2000,
            "u_grid": [2.0]}
    base.update(extra)
    return cfg_file(tmp_path, base)


def test_ruin_csv_has_the_full_column_set(tmp_path, capsys):
    path = cl_cfg(tmp_path)
    out = str(tmp_path / "ruin.csv")
    assert main(["ruin", "--config", path, "--out", out]) == 0
    assert "psi=" in capsys.readouterr().out
    header = open(out).read().splitlines()[0].split(",")
    assert header[:6] == ["u", "n", "nu0", "mu_star", "psi_hat", "se"]
    assert "cond_x_se" in header


def test_ruin_estimate_matches_closed_form_loosely(tmp_path):
    path = cl_cfg(tmp_path, n=5000)
    out = str(tmp_path / "ruin.json")
    assert main(["ruin", "--config", path, "--out", out,
                 "--format", "json"]) == 0
    payload = json.load(open(out))
    est = payload["estimates"][0]
    assert abs(est["psi_hat"] - 0.5 * math.exp(-2.0)) <= 4.0 * est["se"]
    assert payload["nu0"] == pytest.approx(1.0, abs=1e-9)


def test_conditional_failing_level_exits_two(tmp_path, capsys):
    # at u=20 the conditional ratios still carry O(1/u) bias beyond the
    # acceptance band, a deterministic verdict with this seed
    path = cl_cfg(tmp_path, u_grid=[20.0], n=4000)
    assert main(["conditional", "--config", path]) == 2
    assert "conditional verdict: fail" in capsys.readouterr().out


def test_conditional_passing_level_exits_zero(tmp_path, capsys):
    path = cl_cfg(tmp_path, u_grid=[50.0], n=4000)
    assert main(["conditional", "--config", path]) == 0
    assert "conditional verdict: pass" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# appendix demo


def test_appendix_demo_prints_medians(tmp_path, capsys):
    path = cfg_file(tmp_path, {
        "model": {"family": "drift-minus-poisson", "a": 2.0},
        "seed": 3, "n": 200, "times": [1.0, 10.0]})
    out = str(tmp_path / "demo.csv")
    assert main(["appendix-demo", "--config", path, "--out", out]) == 0
    text = capsys.readouterr().out
    assert "t=1: median X_t/t=" in text
    header = open(out).read().splitlines()[0]
    assert header == "t,n,epsilon,x_q10,x_med,x_q90,max_q10,max_med"


# ---------------------------------------------------------------------------
# failure modes and environment


def test_bad_json_exits_one(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["classify", "--config", str(p)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_missing_config_exits_one(tmp_path, capsys):
    assert main(["classify", "--config", str(tmp_path / "no.json")]) == 1
    assert "not found" in capsys.readouterr().err


def test_empty_grid_exits_one(tmp_path, capsys):
    path = dmp_cfg(tmp_path, u_grid=[])
    assert main(["stability", "--config", path]) == 1
    assert "u_grid" in capsys.readouterr().err


def test_small_n_exits_one(tmp_path, capsys):
    path = dmp_cfg(tmp_path, regime="prob-large", n=10)
    assert main(["stability", "--config", path]) == 1
    assert "n >= 100" in capsys.readouterr().err


@pytest.mark.parametrize("command,key,value", [
    ("as-stability", "tail_window", 0),
    ("as-stability", "tail_window", 5),
    ("as-stability", "tail_window", 2.9),
    ("as-stability", "band", "x"),
    ("as-stability", "band", 0.0),
    ("as-stability", "band", math.inf),
    ("as-stability", "min_fraction", 0.0),
    ("as-stability", "min_fraction", 1.5),
    ("stability", "rho_list", "12"),
    ("stability", "rho_list", [1.0, "a"]),
    ("overshoot", "rho_list", [math.nan]),
    ("lt-identity", "allow_empirical", "false"),
    ("lt-identity", "transform", {"mu": 1.0, "rhoo": 0.5}),
    ("stability", "regim", "prob-small"),
    ("ruin", "rho_list", [1.0]),
])
def test_bad_experiment_keys_exit_one_naming_the_field(tmp_path, capsys,
                                                      command, key, value):
    path = dmp_cfg(tmp_path, regime="as-small", n=100, u_grid=[1.0],
                   levels=[0.064, 0.016, 0.004, 0.001],
                   **{"transform": {"mu": 1.0}, key: value})
    assert main([command, "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}") or \
        err.startswith(f"error: config.{key}:"), err


EXP2 = "pow(2.718281828459045, -2*x)"


@pytest.mark.parametrize("command,extra,field", [
    ("simulate", {"model": {"family": "brownian-drift", "drift": math.nan,
                            "sigma2": 1.0}}, "model.drift"),
    ("simulate", {"model": {"family": "spectrally-negative",
                            "drift": math.nan, "rate": 1.0, "alpha": 1.0}},
     "model.drift"),
    ("simulate", {"model": {"family": "drift-minus-poisson",
                            "a": math.inf}}, "model.a"),
    ("stability", {"model": {"family": "custom", "gamma": 1.0,
                             "pos_tail": EXP2, "pos_support": math.nan}},
     "model.pos_support"),
    ("stability", {"model": {"family": "custom", "gamma": 1.0,
                             "breakpoints": ["a"]}}, "model.breakpoints[0]"),
    ("classify", {"model": {"family": "custom", "gamma": 1.0, "sigma": 1.0,
                            "pos_tail": EXP2}}, "model.sigma"),
    ("classify", {"model": {"family": "custom", "gamma": 1.0,
                            "pos_tail": "(" * 300 + "x" + ")" * 300}},
     "model.pos_tail"),
    ("classify", {"model": {"family": "custom", "gamma": 1.0,
                            "pos_tail": "-" * 5000 + "x"}}, "model.pos_tail"),
    ("lt-identity", {"transform": {"mu": 1.0, "rho": math.nan}},
     "transform.rho"),
    ("stability", {"u_grid": [1.0, math.inf]}, "u_grid[1]"),
], ids=["nan-drift", "nan-sn-drift", "inf-a", "nan-support",
        "breakpoint-type", "unknown-key", "parens-300", "minus-5000",
        "nan-transform", "inf-level"])
def test_bad_model_input_exits_one_naming_the_field(tmp_path, capsys,
                                                    command, extra, field):
    # each of these hung, ran, crashed or named no field before
    path = dmp_cfg(tmp_path, **{"regime": "prob-small", "u_grid": [1.0],
                                "n": 100, **extra})
    assert main([command, "--config", path]) == 1
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


def test_cli_runs_with_scipy_blocked(tmp_path):
    # numpy is the only runtime dependency: classify and a small ruin run
    # on the tail-expression Cramer-Lundberg model with scipy unimportable
    path = cfg_file(tmp_path, {
        "model": {"family": "custom",
                  "gamma": -1.0 + (1.0 - 3.0 * math.exp(-2.0)) / 2.0,
                  "pos_tail": EXP2},
        "sim": {"horizon": 600.0, "dt": 0.01}, "seed": 5, "n": 100,
        "u_grid": [1.0], "regime": "prob-large"})
    script = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "from levy_passage.cli import main",
        f"assert main(['classify', '--config', {path!r}]) == 0",
        f"assert main(['ruin', '--config', {path!r}]) == 0",
        "assert [m for m in sys.modules if m.startswith('scipy')] == ['scipy']",
    ])
    src = os.path.dirname(os.path.dirname(levy_passage.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "classify prob-large: no" in proc.stdout
    assert "ruin u=1: psi=" in proc.stdout


def test_unwritable_out_exits_one(tmp_path, capsys):
    path = dmp_cfg(tmp_path, regime="prob-large")
    out = str(tmp_path / "no" / "such" / "dir" / "x.csv")
    assert main(["stability", "--config", path, "--out", out]) == 1
    assert "error:" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_bad_format_choice_is_a_usage_error(tmp_path, capsys):
    path = dmp_cfg(tmp_path, regime="prob-large")
    with pytest.raises(SystemExit) as exc:
        main(["stability", "--config", path, "--format", "yaml"])
    assert exc.value.code == 2
