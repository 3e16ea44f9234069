"""Benchmark of the levy-passage experiments, end to end and per layer.

Usage (from the root of a checkout):

    python3 passbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates the workload's JSON configs from the seed, times set-up
in fresh interpreters, then runs the workload as a closed loop with one
client: passes over its operations repeat, each with its own seeds, until S
seconds are used (at least one pass). Times are medians over set-ups and
passes, each scaled to a reference machine speed (speed.py). Every
operation is checked against closed forms (gate.py). With --trace 1 each
untraced pass is followed by a traced pass over the same inputs
(tracing.py), which must reproduce the untraced outputs byte for byte; the
traced passes give the per-layer figures (unscaled), and their gap to the
untraced passes is the tracing overhead.

Human-readable lines go first; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}, holding the
end-to-end metrics with --trace 0 and the per-layer metrics with --trace 1.
The package is imported from `src/` of the checkout and nowhere else; the
run exits 2 without a result when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import gate
import ops
import speed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".passbench")

SETUP_RUNS = 5

# name -> unit, as BENCHMARK.json lists them
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "time_to_se_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "fraction",
}
# the per-layer figures every workload produces; the rest are printed only
PER_LAYER = {
    "cli.self_s": "s",
    "config.load_s": "s",
    "config.self_s": "s",
    "rng.stream_us": "us",
    "rng.streams": "count",
    "rng.self_s": "s",
    "simulate.reps": "count",
    "simulate.steps": "count",
    "simulate.us_per_rep": "us",
    "simulate.us_per_step": "us",
    "simulate.self_s": "s",
    "models.cumulant_us": "us",
    "models.self_s": "s",
    "output.write_s": "s",
    "output.bytes": "bytes",
    "output.self_s": "s",
    "trace.overhead_s": "s",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _fail(message: str):
    print(f"passbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_package() -> None:
    """levy_passage from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "levy_passage", "__init__.py")):
        _fail(f"no levy_passage package under {SRC}")
    sys.path.insert(0, SRC)
    import levy_passage
    if not os.path.abspath(levy_passage.__file__).startswith(SRC + os.sep):
        _fail(f"levy_passage imported from {levy_passage.__file__}")


def setup_seconds(config_files: list) -> list:
    """(seconds, speed scale) of fresh interpreters that import, parse and
    build the models."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC,
           *config_files]
    out = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        seconds = time.perf_counter() - t0
        meter = speed.Meter()
        meter.after(seconds)
        out.append((seconds, meter.factor()))
        if proc.returncode != 0:
            _fail(f"set-up failed:\n{proc.stderr[-2000:]}")
    return out


class Ledger:
    """Attempted and failed operations, and each output's first digest."""

    def __init__(self, refs=None):
        self.refs = refs            # closed forms; None for gate.REFS
        self.attempted = 0
        self.failed = 0
        self.digests: dict = {}     # (pass, op name) -> sha256
        self.failures: list = []

    def record(self, outcomes: list, pass_index: int) -> None:
        for o in outcomes:
            self.attempted += 1
            checks = gate.check(o.op, o.rc, o.result, self.refs)
            first = self.digests.setdefault((pass_index, o.op.name),
                                            o.digest)
            checks.append(("replay digest", bool(o.digest)
                           and o.digest == first, o.digest[:16]))
            bad = [c for c in checks if not c[1]]
            if bad:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append((o.op.name, bad, o.error))


def run_pass(workload, paths, meter: speed.Meter | None = None) -> list:
    outcomes = []
    for op in workload.ops:
        outcomes.append(ops.run_op(op, paths))
        if meter is not None:
            meter.after(outcomes[-1].seconds)
    return outcomes


def traced_pass(workload, paths) -> tuple:
    tr = tracing.Tracer(workload.name)
    work = tracing.Work()
    outcomes = [tracing.trace_op(tr, op, paths, work) for op in workload.ops]
    return tr, work, outcomes


def pass_figures(workload, outcomes, scale: float) -> dict:
    head = next(o for o in outcomes if o.op.name == workload.headline_op)
    try:
        se = workload.headline_se(head.result)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError):
        se = float("nan")
    return {"wall_s": sum(o.seconds for o in outcomes),
            "headline_s": head.seconds, "se2": se * se, "scale": scale}


def _fmt(v) -> str:
    return "n/a" if v is None else f"{v:.6g}"


def main(argv=None) -> int:
    args = _parse(argv)
    import_package()
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)

    def pass_inputs(k: int) -> tuple:
        """Pass k's workload (its own seeds) and freshly written configs."""
        wl = workloads.build(args.workload, args.seed, k)
        paths = ops.Paths(os.path.join(tmp, f"pass{k}"))
        ops.write_configs(wl, paths)
        return wl, paths

    try:
        wl, paths = pass_inputs(0)
        setups = setup_seconds([paths.config(op) for op in wl.ops])
        ledger = Ledger()
        figures, traces = [], []
        t_start = time.perf_counter()
        k = 0
        while True:
            t0 = time.perf_counter()
            meter = speed.Meter()
            outcomes = run_pass(wl, paths, meter)
            figures.append(pass_figures(wl, outcomes, meter.factor()))
            ledger.record(outcomes, k)
            if args.trace:
                tr, work, outcomes = traced_pass(wl, paths)
                traces.append((tr, work, figures[-1]["wall_s"]))
                ledger.record(outcomes, k)
            shutil.rmtree(os.path.dirname(paths.out))
            cycle = time.perf_counter() - t0
            if time.perf_counter() - t_start + cycle > args.seconds:
                break
            k += 1
            wl, paths = pass_inputs(k)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    med = statistics.median
    walls = [f["wall_s"] for f in figures]
    # time x variance: median time over passes, mean s.e.^2 over their seeds
    se2 = statistics.fmean(f["se2"] for f in figures) / wl.se_target ** 2
    raw = {"wall_s": med(walls), "setup_s": med(s for s, _ in setups),
           "time_to_se_s": med(f["headline_s"] for f in figures) * se2}
    e2e = {"wall_s": med(f["wall_s"] * f["scale"] for f in figures),
           "setup_s": med(s * c for s, c in setups),
           "time_to_se_s": med(f["headline_s"] * f["scale"]
                               for f in figures) * se2,
           "peak_rss_mb": rss_mb,
           "pass_frac": 1.0 - ledger.failed / ledger.attempted}
    print(f"workload {wl.name} seed {args.seed}: {len(figures)} untraced "
          f"passes of {len(wl.ops)} ops, {len(traces)} traced")
    print(f"why: {wl.why}")
    print(f"headline: {wl.headline} (op {wl.headline_op}), se target "
          f"{wl.se_target:g}")
    print("pass walls s: " + " ".join(f"{w:.4f}" for w in walls))
    print("setup runs s: " + " ".join(f"{s:.4f}" for s, _ in setups))
    print("speed scales, passes: "
          + " ".join(f"{f['scale']:.4f}" for f in figures)
          + "; set-ups: " + " ".join(f"{c:.4f}" for _, c in setups))
    for (k, name), digest in ledger.digests.items():
        if k == 0:
            print(f"digest {name} {digest}")
    print(f"fail_frac {ledger.failed}/{ledger.attempted} = "
          f"{ledger.failed / ledger.attempted:.6g}")
    for name, bad, err in ledger.failures:
        print(f"FAILED {name}: " + "; ".join(f"{c[0]}: {c[2]}" for c in bad))
        if err:
            print("  " + err.strip().replace("\n", "\n  "))
    for name, unit in END_TO_END.items():
        note = f" (raw {raw[name]:.6g})" if name in raw else ""
        print(f"e2e {name} = {_fmt(e2e[name])} {unit}{note}")

    metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    if args.trace:
        per_pass = []
        for tr, work, untraced in traces:
            m = tracing.layer_metrics(tr, work)
            m["trace.overhead_s"] = sum(
                s.seconds for s in tr.spans if s.parent is None) - untraced
            per_pass.append(m)
        layer = tracing.median_metrics(per_pass)
        for name in sorted(layer):
            note = " (computed)" if name in tracing.COMPUTED else ""
            print(f"layer {name} = {_fmt(layer[name])}{note}")
        trace_file = os.path.join(WORK, f"trace-{wl.name}-{args.seed}.json")
        with open(trace_file, "w") as fh:
            json.dump({"workload": wl.name, "seed": args.seed,
                       "metrics": layer,
                       "spans": [t[0].to_dicts() for t in traces]}, fh)
        print(f"spans written to {os.path.relpath(trace_file, ROOT)}")
        metrics = {k: {"value": layer.get(k, 0.0), "unit": u}
                   for k, u in PER_LAYER.items()}
    print(json.dumps({"correct": ledger.failed == 0,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
