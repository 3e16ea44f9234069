"""Run one workload operation and fingerprint its output.

CLI operations go through `levy_passage.cli.main` in this process with the
generated config and `--out`; their printed lines are captured, not shown.
The renewal operation is the library call `ladder.renewal_estimate`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
import traceback
from dataclasses import dataclass

import numpy as np

import gate


@dataclass
class Outcome:
    """What one operation did: exit code, time, output and its digest."""

    op: object
    rc: int
    seconds: float
    digest: str
    result: object = None     # parsed result file, or the library result
    error: str = ""


class Paths:
    """Where a run keeps its generated configs and result files."""

    def __init__(self, root: str):
        self.configs = os.path.join(root, "configs")
        self.out = os.path.join(root, "out")
        os.makedirs(self.configs, exist_ok=True)
        os.makedirs(self.out, exist_ok=True)

    def config(self, op) -> str:
        return os.path.join(self.configs, f"{op.name}.json")

    def result(self, op) -> str:
        return os.path.join(self.out, f"{op.name}.{op.fmt}")


def write_configs(workload, paths: Paths) -> None:
    for op in workload.ops:
        with open(paths.config(op), "w") as fh:
            json.dump(op.config, fh, indent=1, sort_keys=True)
            fh.write("\n")


def cli_argv(op, paths: Paths) -> list:
    return [op.command, "--config", paths.config(op),
            "--out", paths.result(op), "--format", op.fmt]


def renewal_call(op, paths: Paths):
    """The library operation, from its config file like a CLI run."""
    from levy_passage.config import load_config, model_from_config, \
        sim_from_config
    from levy_passage.ladder import renewal_estimate
    cfg = load_config(paths.config(op))
    sim = sim_from_config(cfg)
    return renewal_estimate(model_from_config(cfg), sim, cfg["u_grid"],
                            n_paths=cfg["n"], seed=sim.seed)


def renewal_digest(rf) -> str:
    h = hashlib.sha256()
    for arr in (rf.grid, rf.values, rf.value_se,
                [rf.EH1, rf.EL1_inv, rf.EL1_inv_se]):
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_op(op, paths: Paths) -> Outcome:
    """Run one operation; a crash is recorded, never raised."""
    from levy_passage import cli
    out = paths.result(op)
    if op.is_cli and os.path.exists(out):
        os.remove(out)
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            if op.is_cli:
                rc, result = cli.main(cli_argv(op, paths)), None
            else:
                rc, result = 0, renewal_call(op, paths)
    except Exception:   # the loop must go on; the failure is counted
        return Outcome(op, -1, time.perf_counter() - t0, "",
                       error=traceback.format_exc(limit=3))
    seconds = time.perf_counter() - t0
    if not op.is_cli:
        return Outcome(op, rc, seconds, renewal_digest(result), result)
    printed = "" if rc == 0 else sink.getvalue()[-500:]
    try:
        return Outcome(op, rc, seconds, file_digest(out),
                       gate.load_result(out, op.fmt), printed)
    except (OSError, ValueError) as exc:
        return Outcome(op, rc, seconds, "", error=f"{printed}\n{exc}")
