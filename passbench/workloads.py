"""Workload definitions: the experiments each workload runs, made from a seed.

A workload is a closed loop with one client: its operations run in order,
each starting when the previous one returns, and the list repeats until the
run's time is up. An operation is one CLI experiment (run through
`levy_passage.cli.main` on a generated JSON config, with `--out`) or, where
no CLI path reaches a layer, one library call.

The workload seed only picks the simulation seeds. Each operation's seed is
a hash of (workload, seed, pass, operation), so adjacent workload seeds share
no random streams even though `ruin` and `conditional` key level i as seed+i,
and each pass of a run draws afresh (pass 0 is the same for every run with
that seed).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

# tail of Exp(2) jumps with unit total mass on each side it is used
EXP2_TAIL = "pow(2.718281828459045, -2*x)"
DMP = {"family": "drift-minus-poisson", "a": 2.0}
SN = {"family": "spectrally-negative", "drift": 2.0, "rate": 1.0,
      "alpha": 1.0}
CL = {"family": "cramer-lundberg", "lam": 1.0, "alpha": 2.0, "premium": 1.0}
# jump-diffusion with symmetric Exp(2) tails: mean drift 1, so E tau_u/u -> 1
SKELETON_MODEL = {"family": "custom", "gamma": 1.0, "sigma2": 1.0,
                  "pos_tail": EXP2_TAIL, "neg_tail": EXP2_TAIL}
# cramer-lundberg (1, 2, 1) written as tails: no jump law, so the general
# Esscher tilt runs; gamma = -1 + (1 - 3 e^-2)/2 puts the mean at -1/2
TILT_MODEL = {"family": "custom",
              "gamma": -1.0 + (1.0 - 3.0 * math.exp(-2.0)) / 2.0,
              "sigma2": 0.0, "pos_tail": EXP2_TAIL, "neg_tail": "0"}

RENEWAL = "renewal"      # the one library operation: ladder.renewal_estimate


@dataclass(frozen=True)
class Op:
    """One operation of a workload."""

    name: str            # unique within the workload
    command: str         # CLI experiment name, or RENEWAL
    config: dict         # the generated JSON config, seed included
    fmt: str = "json"    # --format of the result file

    @property
    def is_cli(self) -> bool:
        return self.command != RENEWAL


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple
    headline_op: str     # the op whose estimate sets time_to_se_s
    headline: str        # what that estimate is
    headline_se: object  # parsed headline result -> its standard error
    se_target: float     # the standard error time_to_se_s scales to


def op_seed(key: str, op: str) -> int:
    digest = hashlib.sha256(f"{key}/{op}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1     # below 2**31


def _n(n: int, scale: float, floor: int = 100) -> int:
    return max(floor, int(round(n * scale)))


def _exact_many_short(s, scale: float) -> tuple:
    # a pass stays near 5 s so one run holds several; lt-identity is the
    # largest op because its time sets time_to_se_s
    return (
        Op("stability", "stability",
           {"model": DMP, "seed": s("stability"), "n": _n(5000, scale),
            "u_grid": [1.0, 5.0, 20.0]}),
        Op("lt-identity", "lt-identity",
           {"model": SN, "seed": s("lt-identity"), "n": _n(20000, scale),
            "transform": {"mu": 1.0, "nu": 1.0}}),
        Op("as-stability", "as-stability",
           {"model": DMP, "sim": {"horizon": 1e4}, "seed": s("as-stability"),
            "n": _n(150, scale), "levels": [100.0, 300.0, 1000.0, 3000.0]}),
        Op("simulate", "simulate",
           {"model": DMP, "seed": s("simulate"), "n": _n(10000, scale),
            "u_grid": [5.0]}, fmt="csv"),
        Op("conditional", "conditional",
           {"model": CL, "sim": {"horizon": 600.0}, "seed": s("conditional"),
            "n": _n(2500, scale), "u_grid": [5.0, 20.0, 50.0]}),
        Op("renewal", RENEWAL,
           {"model": DMP, "sim": {"horizon": 2000.0}, "seed": s("renewal"),
            "n": _n(200, scale, floor=20), "u_grid": [1.0, 5.0, 20.0]}),
    )


def _skeleton_jumps(s, scale: float) -> tuple:
    return (
        Op("stability", "stability",
           {"model": SKELETON_MODEL, "sim": {"dt": 0.01},
            "seed": s("stability"), "n": _n(1000, scale),
            "u_grid": [1.0, 5.0]}),
        Op("appendix-demo", "appendix-demo",
           {"model": {"family": "counterexample1"}, "seed": s("appendix-demo"),
            "n": _n(400, scale), "times": [1e-3, 1e-4]}),
    )


def _tilt_setup(s, scale: float) -> tuple:
    return (
        Op("ruin", "ruin",
           {"model": TILT_MODEL, "sim": {"horizon": 600.0, "dt": 0.01},
            "seed": s("ruin"), "n": _n(200, scale),
            "u_grid": [1.0, 2.0, 4.0]}),
    )


_WHY = {
    "exact-many-short": (
        "event-exact models only: per-replication overhead (stream creation, "
        "small numpy calls, per-event loops) dominates; no skeleton or "
        "spec build runs"),
    "skeleton-jumps": (
        "Gaussian skeleton with jumps: scalar substep loops and one-jump "
        "sampler draws dominate; stream creation is under 1%"),
    "tilt-setup": (
        "ruin on a tail-expression model: the general Esscher tilt rebuilds "
        "a 4096-node inverse-tail table per level, over half the time"),
}


def _last_tau_ratio_se(payload: dict) -> float:
    st = payload["results"][-1]["tau_ratio"]
    return math.sqrt(st["m2"] / (st["n"] - 1) / st["n"])


_BUILDERS = {
    "exact-many-short": (_exact_many_short, "lt-identity",
                         "LHS of the transform identity",
                         lambda p: p["se"], 1e-3),
    "skeleton-jumps": (_skeleton_jumps, "stability", "mean tau/u at u=5",
                       _last_tau_ratio_se, 1e-2),
    "tilt-setup": (_tilt_setup, "ruin", "psi_hat at u=4",
                   lambda p: p["estimates"][-1]["se"], 1e-4),
}

NAMES = tuple(_BUILDERS)


def build(name: str, seed: int, pass_index: int = 0,
          scale: float = 1.0) -> Workload:
    """The workload's operations for one pass; scale < 1 shrinks every n."""
    if name not in _BUILDERS:
        raise KeyError(name)
    make, headline_op, headline, headline_se, se_target = _BUILDERS[name]
    key = f"{name}/{seed}/{pass_index}"
    return Workload(name, _WHY[name], make(lambda op: op_seed(key, op), scale),
                    headline_op, headline, headline_se, se_target)
