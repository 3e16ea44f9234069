"""Batch experiment runner.

One subcommand per experiment; every run is deterministic given the config
file and seed. Results go to --out in csv or json; a sibling manifest
captures the config echo, package version and wall time, so result files
stay byte-identical across reruns while provenance lives next door.

Exit codes: 0 when the verdict passes or is inconclusive (a warning line
is printed for the latter), 2 when a verdict fails, 1 on configuration or
runtime errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from . import __version__
from .config import (EXPERIMENTS, ConfigError, check_keys, load_config,
                     model_from_config, regime_from_config, sim_from_config,
                     u_grid_from_config, _finite, _get, _no_unknown,
                     _numbers)
from .cramer import conditional_stability_experiment, ruin_grid
from .experiments import (appendix_demo, as_stability_experiment,
                          g_stability_experiment, mean_exit_experiment,
                          overshoot_law_experiment, tau_stability_experiment)
from .ladder import exponent_for, verify_lt_identity
from .models import ModelError, classify_stability
from .output import (PLOT_COLUMNS, RECORD_COLUMNS, plot_rows_from_report,
                     plot_rows_from_result, record_rows, result_payload,
                     ruin_plot_rows, write_csv, write_json, write_manifest)
from .simulate import passage_sample


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levy-passage",
        description="passage-time stability experiments for jump processes")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True,
                       help="JSON experiment config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--reps", type=int, default=None,
                       help="override the replication count")
        p.add_argument("--out", default=None,
                       help="result file path (manifest goes alongside)")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="result file format")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.reps is not None:
            cfg["n"] = args.reps
        code = _dispatch(args.command, cfg, args)
        if args.out is not None:
            write_manifest(args.out, cfg, __version__, time.monotonic() - t0)
    except (ConfigError, ModelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


def _emit(args, rows=None, json_payload=None, columns=PLOT_COLUMNS):
    if args.out is None:
        return
    if args.format == "json":
        write_json(args.out, json_payload)
    else:
        write_csv(args.out, columns, rows)


def _verdict_code(verdict: str) -> int:
    if verdict == "fail":
        return 2
    if verdict != "pass":
        print(f"warning: verdict {verdict}")
    return 0


def _dispatch(command: str, cfg: dict, args) -> int:
    check_keys(cfg, command)
    model = model_from_config(cfg)
    sim = sim_from_config(cfg)

    if command == "classify":
        regime = regime_from_config(cfg)
        if regime is None:
            raise ConfigError("regime: required for classify")
        verdict = classify_stability(model, regime)
        holds = verdict.holds
        print(f"classify {regime.value}: {holds} c={verdict.c:.10g} "
              f"({verdict.detail})")
        if holds == "inconclusive":
            print("warning: verdict inconclusive")
        payload = result_payload("classify", {
            "regime": regime.value, "holds": holds, "c": verdict.c,
            "detail": verdict.detail})
        rows = [{"experiment": "classify", "u": float("nan"),
                 "statistic": f"c[{regime.value}]", "value": verdict.c,
                 "se": 0.0}]
        _emit(args, rows, payload)
        return 0

    # every other experiment is Monte Carlo
    n = _get(cfg, "n", int, "config")
    if n < 100:
        raise ConfigError("n: Monte Carlo experiments need n >= 100")

    if command == "simulate":
        grid = u_grid_from_config(cfg)
        if len(grid) != 1:
            raise ConfigError("u_grid: simulate takes exactly one level")
        batch = passage_sample(model, grid[0], n, seed=sim.seed, cfg=sim)
        rows = record_rows(batch)
        print(f"simulate u={grid[0]:g}: {batch.n_ruined}/{n} ruined, "
              f"engine={batch.engine}")
        _emit(args, rows, result_payload("simulate", {"records": rows}),
              columns=RECORD_COLUMNS)
        return 0

    if command in ("stability", "last-max", "mean-exit"):
        grid = u_grid_from_config(cfg)
        regime = regime_from_config(cfg)
        rho = _numbers(cfg, "rho_list", "config", [])
        fn = {"stability": tau_stability_experiment,
              "last-max": g_stability_experiment}.get(command)
        if fn is not None:
            report = fn(model, sim, grid, n, rho_list=rho, seed=sim.seed,
                        regime=regime)
        else:
            report = mean_exit_experiment(model, sim, grid, n, seed=sim.seed,
                                          regime=regime)
        stat = "mean_g_ratio" if command == "last-max" else "mean_tau_ratio"
        for res, v in zip(report.results, report.verdicts):
            val = res.mean_g_ratio if command == "last-max" \
                else res.mean_tau_ratio
            print(f"{command} u={res.u:g}: {stat}={val:.6g} "
                  f"target={report.target:.6g} [{v}]")
        print(f"{command} verdict: {report.verdict}")
        _emit(args, plot_rows_from_report(report, command),
              result_payload(command, report.to_dict()))
        return _verdict_code(report.verdict)

    if command == "as-stability":
        grid = u_grid_from_config(cfg, "levels" if "levels" in cfg
                                  else "u_grid")
        regime = regime_from_config(cfg)
        opts = {k: _get(cfg, k, kind, "config") for k, kind in
                (("band", float), ("tail_window", int),
                 ("min_fraction", float)) if k in cfg}
        report = as_stability_experiment(model, sim, grid, n, seed=sim.seed,
                                         regime=regime, **opts)
        print(f"as-stability: fraction {report.fraction_pass:.3f} within "
              f"band {report.band:g} of {report.target:.6g} "
              f"[{report.verdict}]")
        rows = [{"experiment": "as-stability", "u": float(u),
                 "statistic": "median_ratio", "value": float(v), "se": 0.0}
                for u, v in zip(report.levels, report.median_ratio)]
        _emit(args, rows, result_payload("as-stability", report.to_dict()))
        return _verdict_code(report.verdict)

    if command == "overshoot":
        grid = u_grid_from_config(cfg)
        if len(grid) != 1:
            raise ConfigError("u_grid: overshoot takes exactly one level")
        rho = _numbers(cfg, "rho_list", "config", [0.0, 1.0])
        result = overshoot_law_experiment(model, sim, grid[0], n, rho,
                                          seed=sim.seed)
        zero = result.overshoot_hist.zero_mass
        print(f"overshoot u={grid[0]:g}: zero-atom {zero}/{result.n_ruined}")
        for r in sorted(result.weighted_tau):
            s = result.weighted_tau[r]
            print(f"  rho={r:g}: weighted tau ratio {s.mean:.6g} "
                  f"(se {s.se:.3g})")
        _emit(args, plot_rows_from_result(result, "overshoot"),
              result_payload("overshoot", result.to_dict()))
        return 0

    if command == "lt-identity":
        tr = _get(cfg, "transform", dict, "config", default={})
        _no_unknown(tr, ("mu", "rho", "lam", "nu", "theta"), "transform")
        kappa = exponent_for(model, allow_empirical=_get(
            cfg, "allow_empirical", bool, "config", default=False), cfg=sim)
        report = verify_lt_identity(
            model, kappa, mu=_get(tr, "mu", _finite, "transform"),
            **{k: _get(tr, k, _finite, "transform", default=0.0)
               for k in ("rho", "lam", "nu", "theta")},
            n=n, seed=sim.seed, cfg=sim)
        verdict = "pass" if abs(report["z"]) <= 3.0 else "fail"
        print(f"lt-identity: lhs={report['lhs']:.6g} rhs={report['rhs']:.6g} "
              f"z={report['z']:.3f} [{verdict}]")
        payload = result_payload("lt-identity",
                                 {**report, "backend": kappa.backend.value,
                                  "verdict": verdict})
        rows = [{"experiment": "lt-identity", "u": float("nan"),
                 "statistic": k, "value": report[k],
                 "se": report["se"] if k == "lhs" else 0.0}
                for k in ("lhs", "rhs", "z")]
        _emit(args, rows, payload)
        return _verdict_code(verdict)

    if command == "ruin":
        grid = u_grid_from_config(cfg)
        ests = ruin_grid(model, sim, grid, n, seed=sim.seed)
        for est in ests:
            print(f"ruin u={est.u:g}: psi={est.psi_hat:.6g} "
                  f"(se {est.se:.3g}) scaled={est.cramer_scaled:.6g} "
                  f"C={est.C_hat:.6g}")
            if est.note:
                print(f"warning: {est.note}")
        payload = result_payload("ruin", {
            "nu0": ests[0].nu0, "estimates": [e.to_dict() for e in ests]})
        if args.format == "json":
            _emit(args, None, payload)
        else:
            cols = ("u", "n", "nu0", "mu_star", "psi_hat", "se",
                    "cramer_scaled", "C_hat", "C_se", "cond_tau_ratio",
                    "cond_tau_se", "cond_g_ratio", "cond_g_se",
                    "cond_x_ratio", "cond_x_se")
            _emit(args, [e.to_dict() for e in ests], payload, columns=cols)
        return 0

    if command == "conditional":
        grid = u_grid_from_config(cfg)
        report = conditional_stability_experiment(model, sim, grid, n,
                                                  seed=sim.seed)
        for v in report.verdicts:
            print(f"conditional u={v['u']:g}: tau {v['tau']}, g {v['g']}, "
                  f"x {v['x']}")
        print(f"conditional verdict: {report.verdict} "
              f"(mu_star={report.mu_star:.6g})")
        _emit(args, ruin_plot_rows(report.estimates, "conditional"),
              result_payload("conditional", report.to_dict()))
        return _verdict_code(report.verdict)

    if command == "appendix-demo":
        times = u_grid_from_config(cfg, "times")
        rows = appendix_demo(model, times, n, cfg=sim, seed=sim.seed)
        cols = ("t", "n", "epsilon", "x_q10", "x_med", "x_q90", "max_q10",
                "max_med")
        for row in rows:
            print(f"t={row.t:g}: median X_t/t={row.x_med:.6g} "
                  f"median max/t={row.max_med:.6g}")
        _emit(args, [r.to_dict() for r in rows],
              result_payload("appendix-demo",
                             {"rows": [r.to_dict() for r in rows]}),
              columns=cols)
        return 0

    raise ConfigError(f"unknown experiment '{command}'")


if __name__ == "__main__":
    sys.exit(main())
