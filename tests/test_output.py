"""Serialization: 17-digit floats, result payloads, plot rows, manifests."""

import json
import math

import numpy as np
import pytest

from levy_passage.cramer import RuinEstimate
from levy_passage.experiments import ExperimentResult
from levy_passage.models import drift_minus_poisson
from levy_passage.output import (PLOT_COLUMNS, RECORD_COLUMNS, RESULT_FORMAT,
                                 fmt17, plot_rows_from_result,
                                 record_rows, result_payload, ruin_plot_rows,
                                 write_csv, write_json, write_manifest)
from levy_passage.simulate import SimConfig, passage_sample


def small_batch():
    return passage_sample(drift_minus_poisson(2.0), 0.5, 200, seed=31,
                          cfg=SimConfig(horizon=500.0))


# ---------------------------------------------------------------------------
# scalar formatting


def test_fmt17_round_trips_doubles():
    for x in (0.1, 1.0 / 3.0, math.pi, 1e-300, -2.5e17, 5e-324,
              math.nextafter(1.0, 2.0)):
        assert float(fmt17(x)) == x
    assert fmt17(math.inf) == "inf"
    assert float(fmt17(math.inf)) == math.inf


def test_fmt17_bools_and_passthrough():
    assert fmt17(True) == "1"
    assert fmt17(False) == "0"
    assert fmt17(3) == "3"
    assert fmt17("abc") == "abc"


# ---------------------------------------------------------------------------
# payloads and writers


def test_result_payload_tags():
    p = result_payload("stability", {"a": 1})
    assert p["format"] == RESULT_FORMAT
    assert p["kind"] == "stability"
    assert p["a"] == 1


def test_result_payload_kind_wins_over_body():
    p = result_payload("last-max", {"kind": "g", "x": 2})
    assert p["kind"] == "last-max"
    assert p["x"] == 2


def test_write_json_is_sorted_with_trailing_newline(tmp_path):
    path = str(tmp_path / "out.json")
    write_json(path, {"b": 2, "a": 1, "v": math.nan})
    text = open(path).read()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    back = json.loads(text)
    assert back["a"] == 1
    assert math.isnan(back["v"])


def test_write_json_writes_numpy_values_as_python_values(tmp_path):
    path = str(tmp_path / "out.json")
    write_json(path, {"i": np.int64(3), "f": np.float32(0.5),
                      "a": np.array([1.5, math.inf]), "b": np.bool_(True)})
    assert json.loads(open(path).read()) == {"i": 3, "f": 0.5,
                                             "a": [1.5, math.inf], "b": True}
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        write_json(path, {"s": {1}})


def test_write_json_byte_identical_reruns(tmp_path):
    p1 = str(tmp_path / "a.json")
    p2 = str(tmp_path / "b.json")
    payload = result_payload("x", {"rows": [{"u": 0.1, "value": 1 / 3}]})
    write_json(p1, payload)
    write_json(p2, payload)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_write_csv_formats_and_tolerates_missing_keys(tmp_path):
    path = str(tmp_path / "out.csv")
    write_csv(path, ("a", "b", "c"),
              [{"a": 0.1, "b": True}, {"a": 2, "c": "z"}])
    lines = open(path).read().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "0.10000000000000001,1,"
    assert lines[2] == "2,,z"


# ---------------------------------------------------------------------------
# rows from results


def test_plot_rows_cover_the_statistics():
    res = ExperimentResult.from_batch(small_batch(), rho_list=(0.0, 1.0))
    rows = plot_rows_from_result(res, "stability")
    stats = {r["statistic"] for r in rows}
    assert {"mean_tau_ratio", "mean_g_ratio", "n_censored",
            "overshoot_zero_mass", "weighted_tau_rho=0",
            "weighted_tau_rho=1", "weighted_g_rho=0",
            "weighted_g_rho=1"} <= stats
    for r in rows:
        assert r["experiment"] == "stability"
        assert r["u"] == 0.5
        assert set(r) == set(PLOT_COLUMNS)


def test_ruin_rows_scale_the_constant_se():
    est = RuinEstimate(
        u=2.0, n=100, nu0=1.0, mu_star=1.0, psi_hat=0.06, se=0.003,
        cramer_scaled=0.06 * math.exp(2.0), C_hat=0.5, C_se=0.01,
        cond_tau_ratio=1.0, cond_tau_se=0.02, cond_g_ratio=1.0,
        cond_g_se=0.02, cond_x_ratio=1.0, cond_x_se=0.01)
    rows = ruin_plot_rows([est])
    by_stat = {r["statistic"]: r for r in rows}
    assert by_stat["psi_hat"]["value"] == 0.06
    assert by_stat["cramer_scaled"]["se"] == pytest.approx(
        0.003 * math.exp(2.0))
    assert by_stat["C_hat"]["se"] == 0.01
    assert by_stat["cond_x_ratio"]["value"] == 1.0


def test_record_rows_match_batch():
    batch = small_batch()
    rows = record_rows(batch)
    assert len(rows) == 200
    assert set(rows[0]) == set(RECORD_COLUMNS)
    assert [r["replication"] for r in rows[:4]] == [0, 1, 2, 3]
    assert all(r["u"] == 0.5 for r in rows)
    assert all(r["seed"] == 31 for r in rows)
    assert rows[7]["tau"] == float(batch.tau[7])
    assert isinstance(rows[0]["ruined"], bool)


# ---------------------------------------------------------------------------
# manifest


def test_manifest_sits_beside_the_result(tmp_path):
    result = str(tmp_path / "run.csv")
    open(result, "w").write("x\n")
    path = write_manifest(result, {"seed": 3}, "0.1.0", 1.25)
    assert path == result + ".manifest.json"
    man = json.load(open(path))
    assert man["format"].endswith("manifest-v1")
    assert man["spec"] == {"seed": 3}
    assert man["version"] == "0.1.0"
    assert man["wall_time_s"] == 1.25
    assert "threads" not in man
    assert man["pid"] > 0
    assert "created_utc" in man
