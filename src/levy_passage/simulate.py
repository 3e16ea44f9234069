"""Path simulation and first-passage sampling.

Two engines cover all models:

* event-exact: bounded-variation finite-activity models (a drift line
  between Poisson jump events). Crossing times, overshoots, undershoots and
  last-maximum times are exact to floating point; upward drift crossings
  (creep) hit the level with zero overshoot, and a first-segment creep from
  the origin returns tau = u/d bitwise.
* gaussian-skeleton: everything with a Gaussian component or infinite jump
  activity. Jumps of modulus above the cutoff epsilon are simulated exactly
  as a marked Poisson process; smaller jumps are folded into the drift and
  an effective Gaussian variance matching the truncated second moment. The
  Gaussian part advances on a dt grid, and within each substep the exact
  Brownian bridge maximum is sampled, so crossings are never missed at grid
  resolution. Crossing times are placed inside the substep by interpolation;
  last-maximum times are recorded at substep resolution (a documented
  discretization of G, not eliminated).

`prepare(model, cfg)` chooses the engine and builds its parts once. Each
engine has one path generator: blocks of exponential waits and jumps for
event-exact models, single substeps and jumps in draw order for the
skeleton. Three consumers read both: first passage, fixed time and coupled
levels. Ladder records read only the event-exact generator, since on the
skeleton they would fall on the dt grid. Only the jump-free skeleton
passage draws its substeps blockwise, on its own.

Per-replication random streams make every batch reproducible independently
of batching or execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .models import LevyModel, ModelError, signed_mean_between, small_jump_variance
from .rng import stream

__all__ = [
    "SimConfig",
    "PassageRecord",
    "PassageBatch",
    "PreparedModel",
    "choose_engine",
    "prepare",
    "simulate_passage",
    "passage_sample",
    "sample_at_time",
    "fixed_time_sample",
    "ratio_path",
    "ratio_paths",
    "extract_ladder",
    "cutoff_for_rate",
]

_EVENT_BLOCK = 64          # events drawn at once by the event generator
_DIFFUSION_BLOCK = 4096    # substeps drawn at once by the diffusion passage


@dataclass
class SimConfig:
    """Simulation settings.

    epsilon: jump-size cutoff for infinite-activity measures.
    dt: substep length of the Gaussian skeleton.
    horizon: censor time; passages not seen by then count as censored.
    seed: default stream seed for batch entry points.
    rate_cap: refuse cutoffs producing a jump intensity above this.
    """

    epsilon: float = 1e-3
    dt: float = 1e-2
    horizon: float = 1e6
    seed: int = 0
    rate_cap: float = 1e7

    def __post_init__(self):
        for name in ("epsilon", "dt", "horizon"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0.0):
                raise ValueError(
                    f"{name}: must be finite and positive, got {val!r}")
        if not self.rate_cap > 0.0:
            raise ValueError(
                f"rate_cap: must be positive, got {self.rate_cap!r}")


@dataclass(frozen=True)
class PassageRecord:
    """One sampled passage attempt over level u.

    undershoot is u minus the running maximum just before passage, so it is
    zero both on creeping and when the crossing jump leaves the maximum.
    g_last_max is the last time the running maximum was attained strictly
    before the passage time.
    """

    u: float
    tau: float             # inf when censored at the horizon
    ruined: bool
    x_at_tau: float        # position at the crossing (== u on creep)
    overshoot: float       # X_tau - u
    undershoot: float      # u - max_{s<tau} X_s
    g_last_max: float


@dataclass
class PassageBatch:
    """Vector of passage attempts with one random stream per replication."""

    u: float
    tau: np.ndarray
    ruined: np.ndarray
    x_at_tau: np.ndarray
    overshoot: np.ndarray
    undershoot: np.ndarray
    g_last_max: np.ndarray
    engine: str
    seed: int
    level_index: int

    @property
    def n(self) -> int:
        return len(self.tau)

    @property
    def n_ruined(self) -> int:
        return int(self.ruined.sum())

    @property
    def censored_fraction(self) -> float:
        return 1.0 - self.n_ruined / max(self.n, 1)


@dataclass(frozen=True, eq=False)
class PreparedModel:
    """A model made ready for its engine under one SimConfig.

    drift is the slope between jumps: the bounded-variation drift for
    event-exact models, and gamma less the mean of the simulated jumps up
    to 1 for the skeleton. draw(rng, n) samples n jump sizes arriving at
    total intensity rate; it is None when rate is 0. sigma2 is the
    skeleton's Gaussian variance with the small jumps folded in.
    """

    model: LevyModel
    cfg: SimConfig
    engine: str
    drift: float
    rate: float
    draw: Optional[Callable]
    sigma2: float = 0.0

    @property
    def exact(self) -> bool:
        return self.engine == "event-exact"


def choose_engine(model: LevyModel) -> str:
    m = model.measure
    if model.sigma2 == 0.0 and m.is_finite_activity and (
            m.law is not None or m.total_rate == 0.0):
        return "event-exact"
    return "gaussian-skeleton"


def prepare(model: Union[LevyModel, PreparedModel],
            cfg: Optional[SimConfig] = None) -> PreparedModel:
    """Choose the engine for model and build what its paths need, once.

    A prepared model comes back as it is, unless cfg differs from the
    config it was prepared under.
    """
    if isinstance(model, PreparedModel):
        if cfg is None or cfg == model.cfg:
            return model
        model = model.model
    cfg = cfg or SimConfig()
    m = model.measure
    if choose_engine(model) == "event-exact":
        rate = m.total_rate
        return PreparedModel(model, cfg, "event-exact", model.drift_bv(),
                             rate, m.law.sample if rate > 0.0 else None)
    sigma2 = model.sigma2
    drift = model.gamma
    sampler = None
    if m.pos_support > 0.0 or m.neg_support > 0.0:
        if m.is_finite_activity and m.law is not None:
            # finite activity: jumps carried whole, no variance folding
            sampler = m.sampler(0.0)
            drift = model.gamma - signed_mean_between(model, 0.0, 1.0)
        else:
            eps = cfg.epsilon
            sampler = m.sampler(eps)
            if sampler.rate > cfg.rate_cap:
                raise ModelError(
                    f"jump intensity {sampler.rate:.3g} above the "
                    f"cap {cfg.rate_cap:.3g}; raise epsilon")
            sigma2 += small_jump_variance(model, eps)
            drift = model.gamma - signed_mean_between(model, eps, 1.0)
    if sigma2 <= 0.0 and sampler is None:
        raise ModelError("skeleton engine needs a Gaussian part or jumps")
    rate = sampler.rate if sampler is not None else 0.0
    return PreparedModel(model, cfg, "gaussian-skeleton", drift, rate,
                         sampler.draw if rate > 0.0 else None, sigma2)


def cutoff_for_rate(model: LevyModel, target_rate: float) -> float:
    """Cutoff epsilon in [1e-12, 10] whose retained jump intensity is about
    target_rate."""
    tail = model.measure.total_tail
    lo, hi = 1e-12, 10.0
    if tail(lo) <= target_rate:
        return lo
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if tail(mid) > target_rate:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1.0 + 1e-9:
            break
    return hi


# ---------------------------------------------------------------------------
# path generators


def _event_blocks(p: PreparedModel, rng, horizon: float):
    """Event-exact path in blocks, until a block would start past horizon.

    Yields (t, x, ct, pre, post): the block's start time and position, its
    event times relative to t, and the positions just before and just after
    each jump.
    """
    d = p.drift
    scale = 1.0 / p.rate
    t = x = 0.0
    while t <= horizon:
        w = rng.exponential(scale, _EVENT_BLOCK)
        j = p.draw(rng, _EVENT_BLOCK)
        ct = np.cumsum(w)
        pre = x + d * ct + np.concatenate(([0.0], np.cumsum(j)[:-1]))
        post = pre + j
        yield t, x, ct, pre, post
        t += ct[-1]
        x = post[-1]


def _skeleton_steps(p: PreparedModel, rng, horizon: float):
    """Skeleton path up to horizon, one substep or jump at a time.

    Yields (t, step, x0, x1, m) for a substep from time t to t + step that
    moves from x0 to x1 with maximum m: the sampled Brownian-bridge maximum,
    which draws one uniform per substep, or max(x0, x1) without a Gaussian
    part. Yields (t, None, x0, x1, None) for a jump at time t from x0 to x1.
    """
    b = p.drift
    sig2 = p.sigma2
    sig = math.sqrt(sig2)
    dt = p.cfg.dt
    t = x = 0.0
    next_jump = t + rng.exponential(1.0 / p.rate) if p.rate > 0.0 else math.inf
    while t < horizon:
        seg_end = min(next_jump, horizon)
        while t < seg_end:
            step = min(dt, seg_end - t)
            if t + step == t:   # step below float resolution at this t
                t = seg_end
                break
            if sig2 > 0.0:
                x1 = x + b * step + sig * math.sqrt(step) * rng.standard_normal()
                m = _bridge_max(x, x1, sig2 * step, math.log(rng.random()),
                                math.sqrt)
            else:
                x1 = x + b * step
                m = max(x, x1)
            yield t, step, x, x1, m
            t += step
            x = float(x1)
        if t >= horizon:
            break
        x0 = x
        x += float(p.draw(rng, 1)[0])
        yield t, None, x0, x, None
        next_jump = t + rng.exponential(1.0 / p.rate)


def _bridge_max(x0, x1, sig2dt, logu, sqrt=np.sqrt):
    """Exact maximum of a Brownian bridge over one substep.

    With q = -2 sig2 dt log U, the maximum is the larger root of
    (m - x0)(m - x1) = q/2, always at least max(x0, x1). Scalar callers
    pass math.sqrt: it rounds as np.sqrt does, at lower cost per call.
    """
    q = -sig2dt * logu
    disc = (x1 - x0) ** 2 + 2.0 * q
    return 0.5 * (x0 + x1 + sqrt(disc))


def _crossing_fraction(u, x0, x1):
    """Where in a substep from x0 to x1 the level u is placed, in [0, 1]."""
    frac = (u - x0) / (x1 - x0) if x1 > x0 else 0.5
    return min(max(frac, 0.0), 1.0)


def _interleave(pre, post, d):
    """Segment tops and jump tops in path order; segment tops can set
    records only with upward drift, so with d <= 0 they enter as -inf."""
    vals = np.empty(len(pre) + len(post))
    vals[0::2] = pre if d > 0.0 else -math.inf
    vals[1::2] = post
    return vals


def _scan_records(t, ct, pre, post, mx, g, d):
    """Update (last max time, max) over a block of events.

    Ties count as reattained maxima: the last-maximum time tracks the most
    recent visit to the maximum.
    """
    vals = _interleave(pre, post, d)
    prior = np.maximum.accumulate(np.concatenate(([mx], vals)))[:-1]
    rec = np.flatnonzero(vals >= prior)
    if rec.size:
        g = t + float(ct[rec[-1] // 2])
        mx = max(mx, float(np.max(vals)))
    return g, mx


# ---------------------------------------------------------------------------
# consumers


def _record(u, tau, horizon=math.inf, x=None, under=0.0, g=None):
    """Passage at tau that lands on x (on u itself by default, a creep), or
    a censored record when tau is infinite or past the horizon."""
    if math.isinf(tau) or tau > horizon:
        return PassageRecord(u, math.inf, False, math.nan, math.nan,
                             math.nan, math.nan)
    x = u if x is None else x
    return PassageRecord(u, tau, True, x, x - u, under,
                         tau if g is None else g)


def _first_passage(p: PreparedModel, u: float, rng) -> PassageRecord:
    """First passage over u along one path, censored at the horizon."""
    horizon = p.cfg.horizon
    d = p.drift
    mx = g = 0.0
    if p.rate == 0.0:
        return _record(u, u / d if d > 0.0 else math.inf, horizon) \
            if p.exact else _diffusion_passage(p, u, rng)
    if not p.exact:
        for t, step, x0, x1, m in _skeleton_steps(p, rng, horizon):
            if step is None:            # a jump at t from x0 to x1
                if x1 > u:
                    return _record(u, t, x=x1, under=u - max(mx, x0),
                                   g=t if x0 >= mx else g)
                if x1 >= mx:
                    mx, g = x1, t
            elif m > u:
                return _record(u, t + step * _crossing_fraction(u, x0, x1))
            elif m >= mx:
                mx, g = float(m), t + step
        return _record(u, math.inf)
    for t, x, ct, pre, post in _event_blocks(p, rng, horizon):
        cross_creep = pre > u if d > 0.0 else np.zeros(len(pre), bool)
        hit = np.flatnonzero(cross_creep | (post > u))
        if not hit.size:
            g, mx = _scan_records(t, ct, pre, post, mx, g, d)
            continue
        k = int(hit[0])
        if cross_creep[k]:
            # forward from the segment start: exact, and bitwise u/d on a
            # first-segment crossing from the origin
            x_seg = post[k - 1] if k else x
            return _record(u, t + (ct[k - 1] if k else 0.0)
                           + (u - x_seg) / d, horizon)
        tau = t + ct[k]
        g, mx = _scan_records(t, ct[:k + 1], pre[:k + 1], post[:k], mx, g, d)
        if pre[k] >= mx:
            g, mx = tau, pre[k]
        return _record(u, tau, horizon, float(post[k]), float(u - mx), g)
    return _record(u, math.inf)


def _diffusion_passage(p: PreparedModel, u: float, rng) -> PassageRecord:
    """Jump-free skeleton passage, drawing its substeps blockwise."""
    b = p.drift
    sig = math.sqrt(p.sigma2)
    dt = p.cfg.dt
    horizon = p.cfg.horizon
    nblock = min(max(int((u / b) / dt * 1.5) if b > 0 else 0, 256),
                 _DIFFUSION_BLOCK)
    t = x = mx = g = 0.0
    sqdt = sig * math.sqrt(dt)
    while t < horizon:
        z = rng.standard_normal(nblock)
        lu = np.log(rng.random(nblock))
        x1 = x + np.cumsum(b * dt + sqdt * z)
        x0 = np.concatenate(([x], x1[:-1]))
        m = _bridge_max(x0, x1, sig * sig * dt, lu)
        hit = np.flatnonzero(m > u)
        if hit.size:
            k = int(hit[0])
            return _record(u, t + dt * (k + _crossing_fraction(
                u, x0[k], x1[k])), horizon)
        prior = np.maximum.accumulate(np.concatenate(([mx], m)))[:-1]
        rec = np.flatnonzero(m >= prior)
        if rec.size:
            g = t + dt * (rec[-1] + 1)
            mx = float(np.max(m))
        t += nblock * dt
        x = float(x1[-1])
        nblock = _DIFFUSION_BLOCK
    return _record(u, math.inf)


def _fixed_time(p: PreparedModel, horizon: float, rng) -> tuple:
    """(X_t, running max, last max time) at t = horizon."""
    d = p.drift
    x = mx = g = 0.0
    if not p.exact:
        for t, step, _, x, m in _skeleton_steps(p, rng, horizon):
            top = x if step is None else m
            if top >= mx:
                mx, g = float(top), t if step is None else t + step
        return x, mx, g
    if p.rate == 0.0:
        x = d * horizon
        return (x, x, horizon) if d > 0.0 else (x, 0.0, 0.0)
    for t, x, ct, pre, post in _event_blocks(p, rng, horizon):
        k = int(np.searchsorted(t + ct, horizon, side="right"))
        g, mx = _scan_records(t, ct[:k], pre[:k], post[:k], mx, g, d)
        if k < _EVENT_BLOCK:    # the horizon falls inside this block
            x_end = (post[k - 1] if k else x) \
                + d * (horizon - (t + (ct[k - 1] if k else 0.0)))
            if d > 0.0 and x_end >= mx:
                mx, g = x_end, horizon
            return float(x_end), float(mx), g


def _coupled_levels(p: PreparedModel, levels: np.ndarray, rng) -> tuple:
    """Passage times over increasing levels along one path, with the
    running maximum just before each crossing; nan past the horizon."""
    horizon = p.cfg.horizon
    d = p.drift
    taus, maxima = np.full((2, len(levels)), math.nan)
    mx = 0.0
    nxt = 0  # first level not yet crossed
    if not p.exact:
        for t, step, x0, x1, m in _skeleton_steps(p, rng, horizon):
            top = x1 if step is None else m
            while nxt < len(levels) and levels[nxt] < top:
                u = levels[nxt]
                taus[nxt] = t if step is None \
                    else t + step * _crossing_fraction(u, x0, x1)
                maxima[nxt] = max(mx, x0) if step is None else u
                nxt += 1
            mx = max(mx, float(top))
            if nxt == len(levels):
                break
        return taus, maxima
    if p.rate == 0.0:
        if d > 0.0:
            tt = levels / d
            ok = tt <= horizon
            taus[ok] = tt[ok]
            maxima[ok] = levels[ok]
        return taus, maxima
    for t, x, ct, pre, post in _event_blocks(p, rng, horizon):
        vals = _interleave(pre, post, d)
        run = np.maximum.accumulate(np.concatenate(([mx], vals)))
        # vals index of each open level's first exceedance, if in this block
        i = np.searchsorted(run, levels[nxt:], side="right") - 1
        i = i[i < len(vals)]
        k = i // 2
        creep = i % 2 == 0
        lv = levels[nxt:nxt + len(i)]
        tau = t + ct[k]
        tau[creep] = (t + np.concatenate(([0.0], ct[:-1])))[k[creep]] + (
            lv[creep] - np.concatenate(([x], post[:-1]))[k[creep]]) / d
        late = np.flatnonzero(tau > horizon)
        done = late[0] if late.size else len(i)
        taus[nxt:nxt + done] = tau[:done]
        maxima[nxt:nxt + done] = np.where(
            creep, lv, np.maximum(run[i], pre[k]))[:done]
        nxt += done
        if late.size or nxt == len(levels):
            break
        mx = run[-1]
    return taus, maxima


def _ladder_records(p: PreparedModel, rng) -> tuple:
    """Times and height increments of strict new maxima up to the horizon,
    on an event-exact path."""
    horizon = p.cfg.horizon
    d = p.drift
    times, heights, mx = [], [], 0.0
    if p.rate == 0.0:
        return ([horizon], [d * horizon]) if d > 0.0 else ([], [])
    for t, x, ct, pre, post in _event_blocks(p, rng, horizon):
        tk = t + ct
        k = int(np.searchsorted(tk, horizon, side="right"))
        vals = _interleave(pre[:k], post[:k], d)
        run = np.maximum.accumulate(np.concatenate(([mx], vals)))
        rec = np.flatnonzero(vals > run[:-1])
        times.extend(tk[rec // 2].tolist())
        heights.extend((vals[rec] - run[rec]).tolist())
        if k < _EVENT_BLOCK:
            break
        mx = run[-1]
    return times, heights


# ---------------------------------------------------------------------------
# public entry points; model may be a LevyModel or a PreparedModel


def simulate_passage(model, u: float, rng: np.random.Generator,
                     cfg: Optional[SimConfig] = None) -> PassageRecord:
    """One passage attempt over level u > 0 with the natural engine."""
    if not u > 0.0:
        raise ValueError("level u must be positive")
    return _first_passage(prepare(model, cfg), u, rng)


def passage_sample(model, u: float, n: int,
                   seed: Optional[int] = None, level_index: int = 0,
                   cfg: Optional[SimConfig] = None) -> PassageBatch:
    """n independent passage attempts, one random stream per replication."""
    if not u > 0.0:
        raise ValueError("level u must be positive")
    p = prepare(model, cfg)
    seed = p.cfg.seed if seed is None else seed
    recs = [_first_passage(p, u, stream(seed, level_index, r))
            for r in range(n)]
    tau, x_at, ov, us, gl, ruined = np.array(
        [(r.tau, r.x_at_tau, r.overshoot, r.undershoot, r.g_last_max,
          r.ruined) for r in recs], dtype=float).reshape(n, 6).T.copy()
    return PassageBatch(u, tau, ruined.astype(bool), x_at, ov, us, gl,
                        p.engine, seed, level_index)


def sample_at_time(model, t: float, rng: np.random.Generator,
                   cfg: Optional[SimConfig] = None) -> tuple:
    """(X_t, running max, last max time) for one path."""
    return _fixed_time(prepare(model, cfg), t, rng)


def fixed_time_sample(model, t: float, n: int,
                      seed: Optional[int] = None, level_index: int = 0,
                      cfg: Optional[SimConfig] = None):
    """Arrays (X_t, running max, last max time) over n replications."""
    p = prepare(model, cfg)
    seed = p.cfg.seed if seed is None else seed
    xs, ms, gs = np.array([_fixed_time(p, t, stream(seed, level_index, r))
                           for r in range(n)],
                          dtype=float).reshape(n, 3).T.copy()
    return xs, ms, gs


def ratio_path(model, levels, rng: np.random.Generator,
               cfg: Optional[SimConfig] = None, with_max: bool = False):
    """Passage times over every level along one shared path.

    Levels must be sorted strictly increasing and positive; times are nan
    once the path was censored at the horizon before reaching a level.
    With with_max=True also returns the running maximum just before each
    crossing, which is nondecreasing in the level along the path.
    """
    levels = np.asarray(levels, dtype=float)
    if len(levels) == 0 or levels[0] <= 0.0:
        raise ValueError("levels must be positive")
    if np.any(np.diff(levels) <= 0.0):
        raise ValueError("levels must be strictly increasing")
    taus, maxima = _coupled_levels(prepare(model, cfg), levels, rng)
    return (taus, maxima) if with_max else taus


def ratio_paths(model, levels, n: int, seed: Optional[int] = None,
                level_index: int = 0,
                cfg: Optional[SimConfig] = None) -> np.ndarray:
    """Matrix of passage times, one coupled path per row."""
    p = prepare(model, cfg)
    seed = p.cfg.seed if seed is None else seed
    levels = np.asarray(levels, dtype=float)
    out = np.empty((n, len(levels)))
    for r in range(n):
        out[r] = ratio_path(p, levels, stream(seed, level_index, r))
    return out


def extract_ladder(model, cfg: Optional[SimConfig] = None,
                   rng: Optional[np.random.Generator] = None) -> list:
    """Walk one path to the horizon recording strict new-maximum epochs.

    Returns (elapsed real time since the previous record, height increment)
    pairs. Records are exact only on event-exact paths, where they fall at
    jumps or at segment ends; a skeleton path would record at substep ends,
    and its record count grows without limit as dt shrinks, so skeleton
    models are refused before any sampler is built.
    """
    base = model.model if isinstance(model, PreparedModel) else model
    if choose_engine(base) != "event-exact":
        raise ModelError(
            "ladder records need an event-exact model (no Gaussian part, "
            "finite jump activity); a skeleton path records at substep "
            "resolution")
    p = prepare(model, cfg)
    if rng is None:
        rng = stream(p.cfg.seed, 0, 0)
    times, heights = _ladder_records(p, rng)
    return list(zip(np.diff(times, prepend=0.0).tolist(), heights))
