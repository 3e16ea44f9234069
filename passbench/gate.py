"""Correctness gate: each operation's output against closed forms.

A check never raises and never stops a run; a failed check marks its
operation failed, which counts against `attempted` in the result.

Monte Carlo comparisons use Z standard errors. The gate runs once per
operation per pass on every run the benchmark makes, a few hundred times per
comparison of two commits; at 3 s.e. a correct program would then fail some
check about half the time, at 4 s.e. about one time in fifty. The CLI's own
verdicts (lt-identity |z| <= 3, the stability and conditional bands) are the
program's and are taken as they are.
"""

from __future__ import annotations

import csv
import json
import math

Z = 4.0
# skeleton ruin estimates carry inverse-tail-table and small-jump error on
# top of sampling error; allowed as a relative slack, as the program's own
# bands do (experiments._BAND_REL)
TABLE_REL = 0.02

# closed forms the outputs are held to; the self-test swaps one for a wrong
# value to show the gate can fail
REFS = {
    # drift-minus-poisson a = 2: E tau_u = u / (a - 1) by Wald
    "dmp_mean_tau": lambda u: u / (2.0 - 1.0),
    # cramer-lundberg (1, 2, 1): psi(u) = e^{-u} / 2, e^{nu0 u} psi -> 1/2
    "cl_psi": lambda u: 0.5 * math.exp(-u),
    "cl_scaled": lambda u: 0.5,
}


def load_result(path: str, fmt: str):
    with open(path) as fh:
        if fmt == "json":
            return json.load(fh)
        return list(csv.DictReader(fh))


def _within(est: float, se: float, target: float, rel: float = 0.0) -> tuple:
    ok = math.isfinite(est) and abs(est - target) <= Z * se + rel * abs(target)
    return ok, f"{est:.6g} vs {target:.6g} (se {se:.3g})"


def _verdict(payload: dict) -> tuple:
    verdict = payload.get("verdict")
    return verdict == "pass", f"verdict {verdict}"


def _verdict_only(p, refs):
    return [("verdict", *_verdict(p))]


def _lt_identity(p, refs):
    return [("|z|<=3", abs(p["z"]) <= 3.0, f"z={p['z']:.3f}")]


def _simulate(rows, refs):
    n = len(rows)
    ruined = sum(r["ruined"] == "1" for r in rows)
    taus = [float(r["tau"]) for r in rows]
    u = float(rows[0]["u"])
    mean = sum(taus) / n
    sd = math.sqrt(sum((t - mean) ** 2 for t in taus) / (n - 1))
    return [("all ruined", ruined == n, f"{ruined}/{n}"),
            ("mean tau", *_within(mean, sd / math.sqrt(n),
                                  refs["dmp_mean_tau"](u)))]


def _psi_checks(estimates, refs, rel):
    out = []
    for e in estimates:
        u = e["u"]
        out.append((f"psi(u={u:g})",
                    *_within(e["psi_hat"], e["se"], refs["cl_psi"](u), rel)))
    return out


def _conditional(p, refs):
    return [("verdict", *_verdict(p))] + _psi_checks(p["estimates"], refs, 0.0)


def _ruin(p, refs):
    out = _psi_checks(p["estimates"], refs, TABLE_REL)
    for e in p["estimates"]:
        u = e["u"]
        se = e["se"] * e["cramer_scaled"] / e["psi_hat"]
        out.append((f"scaled(u={u:g})", *_within(
            e["cramer_scaled"], se, refs["cl_scaled"](u), TABLE_REL)))
    return out


def _appendix_demo(p, refs):
    rows = p["rows"]
    return [("x_med<=-0.5", all(r["x_med"] <= -0.5 for r in rows),
             str([r["x_med"] for r in rows])),
            ("max_med>=0", all(r["max_med"] >= 0.0 for r in rows),
             str([r["max_med"] for r in rows]))]


def _renewal(rf, refs):
    out = []
    for i, u in enumerate(rf.grid):
        v = rf.eval(u)
        se = math.hypot(rf.EL1_inv_se * v, rf.EL1_inv * rf.value_se[i])
        out.append((f"exit_time(u={u:g})",
                    *_within(rf.exit_time(u), se, refs["dmp_mean_tau"](u))))
    return out


_CHECKS = {
    "stability": _verdict_only,
    "lt-identity": _lt_identity,
    "as-stability": _verdict_only,
    "simulate": _simulate,
    "conditional": _conditional,
    "ruin": _ruin,
    "appendix-demo": _appendix_demo,
    "renewal": _renewal,
}


def check(op, rc: int, result, refs=None) -> list:
    """(name, ok, detail) for each check of one operation's output.

    result is the parsed result file for a CLI operation and the returned
    object for a library call; rc is the CLI exit code (0 for a library call
    that returned).
    """
    refs = REFS if refs is None else refs
    if rc != 0:
        return [("exit code", False, f"exit {rc}")]
    try:
        return _CHECKS[op.command](result, refs)
    except (KeyError, IndexError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        return [("output readable", False, f"{type(exc).__name__}: {exc}")]
