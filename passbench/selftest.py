"""Self-test of the benchmark at tiny sizes.

Usage (from the root of a checkout): python3 passbench/selftest.py

Checks that
1. the metric names and units run.py prints are the ones BENCHMARK.json lists;
2. one tiny pass of every workload passes the gate, and a second pass
   replays the first byte for byte;
3. a traced tiny pass gives every per-layer metric on every workload;
4. a deliberately wrong reference value drives fail_frac above 0;
5. without src/ beside it, the benchmark exits non-zero and prints no result.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

TINY = 0.02     # every n shrinks to its floor of 100 (20 renewal paths)


def _names(spec: list) -> dict:
    return {m["name"]: m["unit"] for m in spec}


def check_names() -> list:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    errors = []
    if _names(bench["end_to_end"]) != run.END_TO_END:
        errors.append(f"end_to_end differs: {_names(bench['end_to_end'])} "
                      f"vs {run.END_TO_END}")
    if _names(bench["per_layer"]) != run.PER_LAYER:
        errors.append(f"per_layer differs: {_names(bench['per_layer'])} "
                      f"vs {run.PER_LAYER}")
    import workloads
    if [w["name"] for w in bench["workloads"]] != list(workloads.NAMES):
        errors.append("workload names differ")
    return errors


def check_workloads(tmp: str) -> list:
    import gate
    import ops
    import tracing
    import workloads
    errors = []
    wrong = dict(gate.REFS, cl_psi=lambda u: 2.0 * gate.REFS["cl_psi"](u))
    for name in workloads.NAMES:
        wl = workloads.build(name, seed=7, scale=TINY)
        paths = ops.Paths(os.path.join(tmp, name))
        ops.write_configs(wl, paths)
        ledger = run.Ledger()
        ledger.record(run.run_pass(wl, paths), 0)
        # the traced pass reruns the same inputs: digests must not change
        tr, work, outcomes = run.traced_pass(wl, paths)
        ledger.record(outcomes, 0)
        if ledger.failed:
            errors.append(f"{name}: {ledger.failed}/{ledger.attempted} ops "
                          f"failed: {ledger.failures}")
        layer = tracing.layer_metrics(tr, work)
        missing = [k for k in run.PER_LAYER
                   if k != "trace.overhead_s" and layer.get(k) is None]
        if missing:
            errors.append(f"{name}: per-layer metrics missing: {missing}")
        if any(o.command in ("conditional", "ruin") for o in wl.ops):
            bad = run.Ledger(refs=wrong)
            bad.record(run.run_pass(wl, paths), 0)
            if not bad.failed:
                errors.append(f"{name}: a wrong psi reference passed")
    return errors


def check_without_src(tmp: str) -> list:
    bare = os.path.join(tmp, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, "passbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "passbench/run.py", "--workload", "tilt-setup",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without src/: exit {proc.returncode}, "
                f"stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    run.import_package()
    os.makedirs(run.WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)
    try:
        errors = check_names() + check_workloads(tmp) + check_without_src(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for e in errors:
        print("FAIL", e)
    print("selftest:", "ok" if not errors else f"{len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
