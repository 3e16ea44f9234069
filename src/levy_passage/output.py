"""Result serialization: versioned JSON, plot-ready CSV, manifests.

A result dataclass is written as the dict of its fields, nested results
included; a field whose metadata names "json_fields" writes only those
attributes of its value. Floats go to CSV with 17 significant digits so
every value round-trips to the same double. JSON payloads carry a
top-level format tag. The manifest (config echo, package version, wall
time) lives in a sibling file so the result file itself is byte-identical
across reruns of the same spec+seed.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import os
from typing import Iterable

import numpy as np

RESULT_FORMAT = "levy-passage/result-v1"
MANIFEST_FORMAT = "levy-passage/manifest-v1"

PLOT_COLUMNS = ("experiment", "u", "statistic", "value", "se")
RECORD_COLUMNS = ("u", "tau", "x_at_tau", "overshoot", "undershoot",
                  "g_last_max", "ruined", "seed", "replication")

__all__ = [
    "fmt17",
    "result_fields",
    "result_payload",
    "write_json",
    "write_csv",
    "plot_rows_from_report",
    "plot_rows_from_result",
    "record_rows",
    "write_manifest",
    "RESULT_FORMAT",
    "PLOT_COLUMNS",
    "RECORD_COLUMNS",
]


def fmt17(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def result_fields(result) -> dict:
    """The fields of a result dataclass, as its JSON object and CSV row.

    Dict keys become strings here, so that sort_keys orders them as the
    text that is written ("10.0" before "2.0"); json would sort float keys
    as numbers.
    """
    out = {}
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        names = f.metadata.get("json_fields")
        if names is not None:
            value = {k: getattr(value, k) for k in names}
        elif isinstance(value, dict):
            value = {str(k): v for k, v in value.items()}
        out[f.name] = value
    return out


def _to_json(obj):
    """json.dump's fallback for what it cannot write itself."""
    if dataclasses.is_dataclass(obj):
        return result_fields(obj)
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def result_payload(kind: str, body) -> dict:
    """A result dataclass or a dict, tagged with the format and kind."""
    out = result_fields(body) if dataclasses.is_dataclass(body) \
        else dict(body)
    out["format"] = RESULT_FORMAT
    out["kind"] = kind
    return out


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, allow_nan=True,
                  default=_to_json)
        fh.write("\n")


def write_csv(path: str, columns: Iterable[str], rows: Iterable[dict]) -> None:
    columns = list(columns)
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(fmt17(row.get(c, "")) for c in columns) + "\n")


def _stat_rows(experiment: str, u: float, result) -> list:
    rows = [
        {"experiment": experiment, "u": u, "statistic": "mean_tau_ratio",
         "value": result.mean_tau_ratio, "se": result.se_tau_ratio},
        {"experiment": experiment, "u": u, "statistic": "mean_g_ratio",
         "value": result.mean_g_ratio, "se": result.se_g_ratio},
        {"experiment": experiment, "u": u, "statistic": "n_censored",
         "value": float(result.n_censored), "se": 0.0},
        {"experiment": experiment, "u": u, "statistic": "overshoot_zero_mass",
         "value": float(result.overshoot_hist.zero_mass), "se": 0.0},
    ]
    for rho in sorted(result.weighted_tau):
        s = result.weighted_tau[rho]
        rows.append({"experiment": experiment, "u": u,
                     "statistic": f"weighted_tau_rho={fmt17(rho)}",
                     "value": s.mean, "se": s.se})
    for rho in sorted(result.weighted_g):
        s = result.weighted_g[rho]
        rows.append({"experiment": experiment, "u": u,
                     "statistic": f"weighted_g_rho={fmt17(rho)}",
                     "value": s.mean, "se": s.se})
    return rows


def plot_rows_from_report(report, experiment: str) -> list:
    rows = []
    for res in report.results:
        rows.extend(_stat_rows(experiment, res.u, res))
    return rows


def plot_rows_from_result(result, experiment: str) -> list:
    return _stat_rows(experiment, result.u, result)


def ruin_plot_rows(estimates: list, experiment: str = "ruin") -> list:
    rows = []
    for est in estimates:
        for stat, val, se in (
                ("psi_hat", est.psi_hat, est.se),
                ("cramer_scaled", est.cramer_scaled,
                 est.se * (est.cramer_scaled / est.psi_hat
                           if est.psi_hat else 0.0)),
                ("C_hat", est.C_hat, est.C_se),
                ("cond_tau_ratio", est.cond_tau_ratio, est.cond_tau_se),
                ("cond_g_ratio", est.cond_g_ratio, est.cond_g_se),
                ("cond_x_ratio", est.cond_x_ratio, est.cond_x_se)):
            rows.append({"experiment": experiment, "u": est.u,
                         "statistic": stat, "value": val, "se": se})
    return rows


def record_rows(batch) -> list:
    return list(_iter_records(batch))


def _iter_records(batch):
    """record_rows one row at a time, read from the batch's columns, so a
    CSV writer holds one row, not the batch, as dicts."""
    cols = zip(batch.tau, batch.x_at_tau, batch.overshoot, batch.undershoot,
               batch.g_last_max, batch.ruined)
    for r, (tau, x_at, over, under, g, ruined) in enumerate(cols):
        yield {"u": batch.u, "tau": float(tau), "x_at_tau": float(x_at),
               "overshoot": float(over), "undershoot": float(under),
               "g_last_max": float(g), "ruined": bool(ruined),
               "seed": batch.seed, "replication": r}


def write_manifest(result_path: str, spec_echo: dict, version: str,
                   wall_time_s: float) -> str:
    path = result_path + ".manifest.json"
    payload = {
        "format": MANIFEST_FORMAT,
        "spec": spec_echo,
        "version": version,
        "wall_time_s": wall_time_s,
        "created_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(),
        "pid": os.getpid(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path
