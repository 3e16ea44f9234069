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
from .tail_expr import parse_tail_expr

__all__ = [
    "ConfigError",
    "load_config",
    "model_from_config",
    "sim_from_config",
    "regime_from_config",
    "check_keys",
    "EXPERIMENTS",
]

# top-level keys that describe the model, the run and its levels; any
# experiment accepts them, so one file serves several experiments
_SHARED_KEYS = ("model", "sim", "seed", "n", "u_grid", "levels", "times",
                "regime", "transform")
# the options only one experiment reads, beyond the shared keys
_OPTIONS = {
    "classify": (), "simulate": (), "stability": ("rho_list",),
    "as-stability": ("band", "tail_window", "min_fraction"),
    "mean-exit": (), "last-max": ("rho_list",), "overshoot": ("rho_list",),
    "lt-identity": ("allow_empirical",), "ruin": (), "conditional": (),
    "appendix-demo": (),
}
EXPERIMENTS = tuple(_OPTIONS)


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


def _finite(v) -> float:
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {v!r}")
    return float(v)


def _support(v) -> float:
    # a jump support is finite, or Infinity for an unbounded side
    return v if v == math.inf else _finite(v)


_NUMBER = ((int, float), "a number")
# accepted JSON types and their name in messages, per kind; a kind is also
# the function that turns the checked value into the field's value
_KINDS = {float: _NUMBER, _finite: ((int, float), "a finite number"),
          _support: _NUMBER, int: (int, "an integer"),
          bool: (bool, "true or false"), str: (str, "a string"),
          parse_tail_expr: (str, "a string"), dict: (dict, "an object"),
          list: (list, "an array")}


def _check(val, kind, field: str):
    types, name = _KINDS[kind]
    # a JSON true/false is a Python int, so only the bool kind accepts one
    if isinstance(val, bool) != (kind is bool) or not isinstance(val, types):
        raise ConfigError(f"{field}: expected {name}, got "
                          f"{type(val).__name__}")
    try:
        return kind(val)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{field}: {exc}") from None


def _get(d: dict, key: str, kind, path: str, default=_MISSING):
    if key not in d:
        if default is _MISSING:
            raise ConfigError(f"{path}.{key}: required field missing")
        return default
    return _check(d[key], kind, f"{path}.{key}")


def _numbers(d: dict, key: str, path: str, default=_MISSING) -> list:
    """The list d[key] of finite numbers; a bad entry is named key[i]."""
    field = key if path == "config" else f"{path}.{key}"
    return [_check(v, _finite, f"{field}[{i}]")
            for i, v in enumerate(_get(d, key, list, path, default))]


def _no_unknown(d: dict, keys, path: str) -> None:
    unknown = sorted(set(d) - set(keys))
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown field (expected "
                          f"{' | '.join(keys)})")


def check_keys(cfg: dict, experiment: str) -> None:
    """Refuse a top-level key that the experiment does not read."""
    _no_unknown(cfg, _SHARED_KEYS + _OPTIONS[experiment], "config")


def _build(table: dict, d: dict, path: str, tag: str):
    """Call the constructor that d[tag] names in table with its fields: a
    bare key is a required finite number, else (key, kind[, default]), where
    a kind outside _KINDS is a reader, kind(d, key, path[, default])."""
    name = _get(d, tag, str, path)
    if name not in table:
        raise ConfigError(f"{path}.{tag}: unknown {tag} '{name}' "
                          f"(expected {' | '.join(table)})")
    make, fields = table[name]
    fields = [(f, _finite) if isinstance(f, str) else f for f in fields]
    _no_unknown(d, [tag] + [f[0] for f in fields], path)
    args = [_get(d, key, kind, path, *default) if kind in _KINDS
            else kind(d, key, path, *default)
            for key, kind, *default in fields]
    try:
        return make(*args)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}")


def _law(d: dict, key: str, path: str):
    return _build(_LAWS, _get(d, key, dict, path), f"{path}.{key}", "kind")


_LAWS = {"exponential": (ExponentialJump, ("alpha", ("sign", int, 1))),
         "uniform": (UniformJump, ("lo", "hi", ("theta", _finite, 0.0))),
         "atom": (AtomJump, ("size",))}
_FAMILIES = {
    "brownian-drift": (brownian_drift, ("drift", "sigma2")),
    "compound-poisson-drift": (compound_poisson_drift,
                               ("rate", ("law", _law), "drift")),
    "drift-minus-poisson": (drift_minus_poisson, ("a",)),
    "spectrally-negative": (spectrally_negative, ("drift", "rate", "alpha")),
    "cramer-lundberg": (cramer_lundberg, ("lam", "alpha", "premium")),
    "counterexample1": (make_counterexample1, ()),
    "counterexample2": (make_counterexample2,
                        (("beta", _finite, 0.75), ("limit", str, "zero"))),
    "custom": (custom_model, (
        "gamma", ("sigma2", _finite, 0.0), ("pos_tail", parse_tail_expr, "0"),
        ("neg_tail", parse_tail_expr, "0"),
        ("pos_support", _support, math.inf),
        ("neg_support", _support, math.inf), ("breakpoints", _numbers, []))),
}


def model_from_config(cfg: dict) -> LevyModel:
    return _build(_FAMILIES, _get(cfg, "model", dict, "config"), "model",
                  "family")


_SIM_KEYS = ("epsilon", "dt", "horizon", "rate_cap")


def sim_from_config(cfg: dict) -> SimConfig:
    d = _get(cfg, "sim", dict, "config", default={})
    _no_unknown(d, _SIM_KEYS, "sim")
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


def u_grid_from_config(cfg: dict, key: str = "u_grid") -> list:
    grid = _numbers(cfg, key, "config")
    if not grid:
        raise ConfigError(f"{key}: must be nonempty")
    for i, v in enumerate(grid):
        if not v > 0.0:
            raise ConfigError(f"{key}[{i}]: levels must be positive")
    diffs = [b - a for a, b in zip(grid, grid[1:])]
    if diffs and not (all(x > 0 for x in diffs) or all(x < 0 for x in diffs)):
        raise ConfigError(f"{key}: must be strictly monotone")
    return grid
