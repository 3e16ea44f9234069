"""JSON experiment configuration with field-level diagnostics.

A config file is one JSON object describing a model, an experiment, and
its knobs. Parse and validation errors always name the offending field
path (and line/column for syntax errors) so batch runs fail with something
actionable.
"""

from __future__ import annotations

import json
import math
from typing import Optional

from .measures import AtomJump, ExponentialJump, UniformJump
from .models import (LevyModel, Regime, brownian_drift,
                     compound_poisson_drift, cramer_lundberg, custom_model,
                     drift_minus_poisson, make_counterexample1,
                     make_counterexample2, spectrally_negative)
from .simulate import SimConfig

__all__ = [
    "ConfigError",
    "load_config",
    "model_from_config",
    "sim_from_config",
    "regime_from_config",
    "EXPERIMENTS",
]

EXPERIMENTS = ("classify", "simulate", "stability", "as-stability",
               "mean-exit", "last-max", "overshoot", "lt-identity",
               "ruin", "conditional", "appendix-demo")


class ConfigError(ValueError):
    """Invalid configuration, with the offending field in the message."""


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return data


_MISSING = object()
# accepted JSON types and their name in messages, per requested kind
_KINDS = {float: ((int, float), "a number"), int: (int, "an integer"),
          bool: (bool, "true or false"), str: (str, "a string"),
          dict: (dict, "an object"), list: (list, "an array")}


def _get(d: dict, key: str, kind, path: str, default=_MISSING):
    if key not in d:
        if default is _MISSING:
            raise ConfigError(f"{path}.{key}: required field missing")
        return default
    val = d[key]
    types, name = _KINDS[kind]
    # a JSON true/false is a Python int, so only the bool kind accepts one
    if isinstance(val, bool) != (kind is bool) or not isinstance(val, types):
        raise ConfigError(f"{path}.{key}: expected {name}, got "
                          f"{type(val).__name__}")
    return float(val) if kind is float else val


def _law_from_config(d: dict, path: str):
    kind = _get(d, "kind", str, path)
    if kind == "exponential":
        return ExponentialJump(_get(d, "alpha", float, path),
                               sign=_get(d, "sign", int, path, default=1))
    if kind == "uniform":
        return UniformJump(_get(d, "lo", float, path),
                           _get(d, "hi", float, path),
                           theta=_get(d, "theta", float, path, default=0.0))
    if kind == "atom":
        return AtomJump(_get(d, "size", float, path))
    raise ConfigError(f"{path}.kind: unknown jump law '{kind}' "
                      "(expected exponential | uniform | atom)")


def model_from_config(cfg: dict) -> LevyModel:
    d = _get(cfg, "model", dict, "config")
    fam = _get(d, "family", str, "model")
    try:
        if fam == "brownian-drift":
            return brownian_drift(_get(d, "drift", float, "model"),
                                  _get(d, "sigma2", float, "model"))
        if fam == "compound-poisson-drift":
            law = _law_from_config(_get(d, "law", dict, "model"), "model.law")
            return compound_poisson_drift(_get(d, "rate", float, "model"),
                                          law,
                                          _get(d, "drift", float, "model"))
        if fam == "drift-minus-poisson":
            return drift_minus_poisson(_get(d, "a", float, "model"))
        if fam == "spectrally-negative":
            return spectrally_negative(_get(d, "drift", float, "model"),
                                       _get(d, "rate", float, "model"),
                                       _get(d, "alpha", float, "model"))
        if fam == "cramer-lundberg":
            return cramer_lundberg(_get(d, "lam", float, "model"),
                                   _get(d, "alpha", float, "model"),
                                   _get(d, "premium", float, "model"))
        if fam == "counterexample1":
            return make_counterexample1()
        if fam == "counterexample2":
            return make_counterexample2(
                _get(d, "beta", float, "model", default=0.75),
                _get(d, "limit", str, "model", default="zero"))
        if fam == "custom":
            return custom_model(
                gamma=_get(d, "gamma", float, "model"),
                sigma2=_get(d, "sigma2", float, "model", default=0.0),
                pos_tail=_get(d, "pos_tail", str, "model", default="0"),
                neg_tail=_get(d, "neg_tail", str, "model", default="0"),
                pos_support=_get(d, "pos_support", float, "model",
                                 default=math.inf),
                neg_support=_get(d, "neg_support", float, "model",
                                 default=math.inf),
                breakpoints=tuple(_get(d, "breakpoints", list, "model",
                                       default=[])))
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"model: {exc}")
    raise ConfigError(
        f"model.family: unknown family '{fam}' (expected brownian-drift | "
        "compound-poisson-drift | drift-minus-poisson | spectrally-negative "
        "| cramer-lundberg | counterexample1 | counterexample2 | custom)")


_SIM_KEYS = ("epsilon", "dt", "horizon", "rate_cap")


def sim_from_config(cfg: dict) -> SimConfig:
    d = _get(cfg, "sim", dict, "config", default={})
    unknown = sorted(set(d) - set(_SIM_KEYS))
    if unknown:
        raise ConfigError(f"sim.{unknown[0]}: unknown field (expected "
                          f"{' | '.join(_SIM_KEYS)})")
    base = SimConfig()
    fields = {k: _get(d, k, float, "sim", default=getattr(base, k))
              for k in _SIM_KEYS}
    try:
        return SimConfig(seed=_get(cfg, "seed", int, "config",
                                   default=base.seed), **fields)
    except ValueError as exc:
        raise ConfigError(f"sim.{exc}")


def regime_from_config(cfg: dict) -> Optional[Regime]:
    name = _get(cfg, "regime", str, "config", default=None)
    if name is None:
        return None
    try:
        return Regime(name)
    except ValueError:
        valid = " | ".join(r.value for r in Regime)
        raise ConfigError(f"regime: unknown regime '{name}' "
                          f"(expected {valid})")


def rho_list_from_config(cfg: dict, default: list) -> list:
    rho = _get(cfg, "rho_list", list, "config", default=default)
    for i, r in enumerate(rho):
        if isinstance(r, bool) or not isinstance(r, (int, float)) \
                or not math.isfinite(r):
            raise ConfigError(f"rho_list[{i}]: expected a finite number")
    return [float(r) for r in rho]


def u_grid_from_config(cfg: dict, key: str = "u_grid") -> list:
    grid = _get(cfg, key, list, "config")
    if not grid:
        raise ConfigError(f"{key}: must be nonempty")
    out = []
    for i, v in enumerate(grid):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{key}[{i}]: expected a number")
        if not v > 0.0:
            raise ConfigError(f"{key}[{i}]: levels must be positive")
        out.append(float(v))
    diffs = [b - a for a, b in zip(out, out[1:])]
    if diffs and not (all(x > 0 for x in diffs) or all(x < 0 for x in diffs)):
        raise ConfigError(f"{key}: must be strictly monotone")
    return out
