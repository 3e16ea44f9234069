"""Path simulation and first-passage sampling.

Two engines cover all models:

* event-exact: bounded-variation finite-activity models (a drift line
  between Poisson jump events). Upward drift crossings (creep) hit the
  level with zero overshoot, and a first-segment creep from the origin
  returns tau = u/d bitwise.
* gaussian-skeleton: everything with a Gaussian component or infinite jump
  activity. Jumps of modulus above the cutoff epsilon are simulated exactly
  as a marked Poisson process; smaller jumps are folded into the drift and
  an effective Gaussian variance matching the truncated second moment.
  Between two jumps the path is a Brownian bridge, and its end, maximum,
  first hitting time of a level and time of maximum are sampled exactly,
  so the cutoff is the only approximation.

`prepare(model, cfg)` chooses the engine and builds its parts once. One
path generator serves both engines: blocks of segments (the motion between
two jumps) with their ends, jumps and maxima. Three consumers read it:
first passage, fixed time and coupled levels. Ladder records read only
event-exact paths, since a Gaussian part sets new maxima continuously.
Crossing times, overshoots, undershoots and last-maximum times are exact to
floating point on both engines.

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

_EVENT_BLOCK = 64          # segments drawn at once by the path generator


@dataclass
class SimConfig:
    """Simulation settings.

    epsilon: jump-size cutoff for infinite-activity measures.
    dt: unread; the skeleton samples Brownian bridges between jumps
        exactly, on no time grid. Kept so that existing configs load.
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
# the path generator


def _event_blocks(p: PreparedModel, rng, horizon: float):
    """The path in blocks of up to _EVENT_BLOCK segments, up to horizon.

    A segment is the motion between two jumps: a drift line without a
    Gaussian part, a Brownian bridge with one. Yields (t, x, te, pre, post,
    top): the block's start time and position, and for each segment its
    end time, the positions just before and just after the jump that ends
    it, and its maximum.

    Without a Gaussian part a segment's maximum is its end on upward drift
    and -inf otherwise, where it sets no record, and blocks run on until
    one ends past horizon. With one, the segment that holds horizon is cut
    there and ends the path, with no jump; after the waits and jumps the
    generator draws the segment ends, then their bridge maxima. A model
    without jumps is one segment to horizon.
    """
    d = p.drift
    sig2 = p.sigma2
    t = x = 0.0
    while True:
        if p.rate == 0.0:
            ct, j = np.array([horizon]), np.zeros(1)
        else:
            ct = np.cumsum(rng.exponential(1.0 / p.rate, _EVENT_BLOCK))
            j = p.draw(rng, _EVENT_BLOCK)
        te = t + ct
        last = te[-1] >= horizon
        if sig2 > 0.0 and last:
            n = int(np.searchsorted(te, horizon)) + 1
            te = np.append(te[:n - 1], horizon)
            ct, j = te - t, np.append(j[:n - 1], 0.0)
        pre = x + d * ct + np.concatenate(([0.0], np.cumsum(j)[:-1]))
        if sig2 > 0.0:
            s = np.diff(te, prepend=t)
            pre += np.cumsum(np.sqrt(sig2 * s) * rng.standard_normal(len(s)))
            post = pre + j
            top = _bridge_max(np.concatenate(([x], post[:-1])), pre, sig2 * s,
                              np.log(rng.random(len(s))))
        else:
            post = pre + j
            top = pre if d > 0.0 else np.full(len(pre), -math.inf)
        yield t, x, te, pre, post, top
        if last:
            return
        t = te[-1]
        x = post[-1]


def _bridge_max(x0, x1, var, logu):
    """Exact maximum of a Brownian bridge from x0 to x1 with variance var.

    With q = -var log U, the maximum is the larger root of
    (m - x0)(m - x1) = q/2, always at least max(x0, x1).
    """
    q = -var * logu
    disc = (x1 - x0) ** 2 + 2.0 * q
    return 0.5 * (x0 + x1 + np.sqrt(disc))


def _hit_time(p: PreparedModel, rng, u, t0, t1, a, b):
    """Time at which the segment from a at t0 to b at t1 first passes u,
    given that it does.

    On a drift line that is where the line meets u. On a Brownian bridge
    over s = t1 - t0 it is t0 + s Y/(1 + Y), with Y inverse Gaussian of
    mean (u - a)/|u - b| and shape (u - a)^2/(sigma2 s).
    """
    if p.sigma2 == 0.0:
        return t0 + (u - a) / p.drift
    s = t1 - t0
    shape = (u - a) ** 2 / (p.sigma2 * s)
    if b == u:      # infinite mean: the limit law is shape / Z^2
        y = shape / rng.standard_normal() ** 2
    else:
        y = rng.wald((u - a) / abs(u - b), shape)
    return t0 + s * y / (1.0 + y)


def _max_time(p: PreparedModel, rng, m, last):
    """Time at which the path attains its maximum m for the last time.

    last is that time, or (block, i) for entry i of the block's
    interleaved segment maxima and jump landings (see _scan_records). Only
    a bridge maximum strictly inside its segment draws a time: by Shepp
    (J. Appl. Prob. 1979) it is at t0 + s y/(1 + y), where with probability
    (m - b)/(2m - a - b) y is inverse Gaussian of mean (m - a)/(m - b) and
    shape (m - a)^2/(sigma2 s), and otherwise 1/y is inverse Gaussian with
    a and b swapped.
    """
    if not isinstance(last, tuple):
        return last
    (t, x, te, pre, post, _), i = last
    k = i // 2
    t1 = float(te[k])
    b = pre[k]
    if i % 2 or m <= b:
        return t1
    t0, a = (float(te[k - 1]), post[k - 1]) if k else (t, x)
    if m <= a:
        return t0
    s = t1 - t0
    if rng.random() * (2.0 * m - a - b) < m - b:
        y = rng.wald((m - a) / (m - b), (m - a) ** 2 / (p.sigma2 * s))
    else:
        y = 1.0 / rng.wald((m - b) / (m - a), (m - b) ** 2 / (p.sigma2 * s))
    return t0 + s * y / (1.0 + y)


def _interleave(top, post):
    """Segment maxima and jump landings in path order."""
    vals = np.empty(len(top) + len(post))
    vals[0::2] = top
    vals[1::2] = post
    return vals


def _scan_records(blk, n, mx, last):
    """Update (maximum, last record) over the first n entries of the
    block's interleaved segment maxima and jump landings.

    Ties count as reattained maxima: the last record tracks the most
    recent visit to the maximum. Its time is resolved by _max_time.
    """
    vals = _interleave(blk[5], blk[4])[:n]
    prior = np.maximum.accumulate(np.concatenate(([mx], vals)))[:-1]
    rec = np.flatnonzero(vals >= prior)
    if rec.size:
        return max(mx, float(np.max(vals))), (blk, int(rec[-1]))
    return mx, last


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
    mx, last = 0.0, 0.0
    for blk in _event_blocks(p, rng, horizon):
        t, x, te, pre, post, top = blk
        hit = np.flatnonzero((top > u) | (post > u))
        if not hit.size:
            mx, last = _scan_records(blk, 2 * len(te), mx, last)
            continue
        k = int(hit[0])
        if top[k] > u:
            # a continuous crossing: forward from the segment start, which
            # on a line from the origin is bitwise u/d
            t0, a = (te[k - 1], post[k - 1]) if k else (t, x)
            return _record(u, _hit_time(p, rng, u, t0, te[k], a, pre[k]),
                           horizon)
        mx, last = _scan_records(blk, 2 * k + 1, mx, last)
        if pre[k] >= mx:
            mx, last = pre[k], te[k]
        return _record(u, te[k], horizon, float(post[k]), float(u - mx),
                       _max_time(p, rng, mx, last))
    return _record(u, math.inf)


def _fixed_time(p: PreparedModel, horizon: float, rng) -> tuple:
    """(X_t, running max, last max time) at t = horizon."""
    d = p.drift
    mx, last, x_end = 0.0, 0.0, 0.0
    for blk in _event_blocks(p, rng, horizon):
        t, x, te, pre, post, top = blk
        k = int(np.searchsorted(te, horizon, side="right"))
        mx, last = _scan_records(blk, 2 * k, mx, last)
        x_end = post[-1]
        if k < len(te):     # the horizon falls inside drift line k
            x_end = (post[k - 1] if k else x) \
                + d * (horizon - (te[k - 1] if k else t))
            if d > 0.0 and x_end >= mx:
                mx, last = x_end, horizon
    return float(x_end), float(mx), _max_time(p, rng, mx, last)


def _coupled_levels(p: PreparedModel, levels: np.ndarray, rng) -> tuple:
    """Passage times over increasing levels along one path, with the
    running maximum just before each crossing; nan past the horizon.

    After a bridge crosses a level, the rest of it is a bridge from that
    level, whose maximum is drawn afresh for the next level.
    """
    horizon = p.cfg.horizon
    d = p.drift
    taus, maxima = np.full((2, len(levels)), math.nan)
    if p.rate == 0.0 and p.sigma2 == 0.0:
        # the drift line, which passes u = d horizon at the horizon itself
        if d > 0.0:
            tt = levels / d
            ok = tt <= horizon
            taus[ok] = tt[ok]
            maxima[ok] = levels[ok]
        return taus, maxima
    mx = 0.0
    nxt = 0  # first level not yet crossed
    for t, x, te, pre, post, top in _event_blocks(p, rng, horizon):
        vals = _interleave(top, post)
        i = 0   # first entry of vals not yet in mx
        while nxt < len(levels):
            ahead = np.flatnonzero(vals[i:] > levels[nxt])
            if not ahead.size:
                break
            j = i + int(ahead[0])
            mx = float(np.max(vals[i:j], initial=mx))
            k = j // 2
            if j % 2:   # the jump at te[k] passes every level below post[k]
                if te[k] > horizon:
                    return taus, maxima
                n = int(np.searchsorted(levels, post[k]))
                taus[nxt:n] = te[k]
                maxima[nxt:n] = max(mx, pre[k])
                nxt = n
            else:
                t0, a = (te[k - 1], post[k - 1]) if k else (t, x)
                while nxt < len(levels) and levels[nxt] < vals[j]:
                    u = levels[nxt]
                    tau = _hit_time(p, rng, u, t0, te[k], a, pre[k])
                    if tau > horizon:
                        return taus, maxima
                    taus[nxt] = tau
                    maxima[nxt] = u
                    nxt += 1
                    if p.sigma2 > 0.0:
                        t0, a = tau, u
                        vals[j] = _bridge_max(
                            u, pre[k], p.sigma2 * (te[k] - tau),
                            math.log(rng.random()))
            mx = max(mx, float(vals[j]))
            i = j + 1
        if nxt == len(levels):
            break
        mx = float(np.max(vals[i:], initial=mx))
    return taus, maxima


def _ladder_records(p: PreparedModel, rng) -> tuple:
    """Times and height increments of strict new maxima up to the horizon,
    on an event-exact path."""
    horizon = p.cfg.horizon
    times, heights, mx = [], [], 0.0
    for t, x, te, pre, post, top in _event_blocks(p, rng, horizon):
        k = int(np.searchsorted(te, horizon, side="right"))
        vals = _interleave(top[:k], post[:k])
        run = np.maximum.accumulate(np.concatenate(([mx], vals)))
        rec = np.flatnonzero(vals > run[:-1])
        times.extend(te[rec // 2].tolist())
        heights.extend((vals[rec] - run[rec]).tolist())
        mx = run[-1]
    return times, heights


# ---------------------------------------------------------------------------
# public entry points; model may be a LevyModel or a PreparedModel


def _replicate(p: PreparedModel, one: Callable, n: int,
               seed: Optional[int], level_index: int) -> tuple:
    """(seed, [one(rng) for each replication]) for a batch of n.

    Replication r of level level_index reads stream (seed, level_index, r),
    so a batch replays bitwise whatever its size or split. A seed of None
    means the prepared config's seed; the seed used comes back with the
    values.
    """
    seed = p.cfg.seed if seed is None else seed
    return seed, [one(stream(seed, level_index, r)) for r in range(n)]


def _check_levels(levels, increasing: bool = False) -> np.ndarray:
    """levels as a float array, refused unless nonempty, finite, positive
    and strictly monotone (strictly increasing when increasing is set)."""
    levels = np.asarray(levels, dtype=float)
    if len(levels) == 0:
        raise ValueError("levels must be nonempty")
    if not np.all(np.isfinite(levels) & (levels > 0.0)):
        raise ValueError("levels must be finite and positive")
    d = np.diff(levels)
    if not (np.all(d > 0.0) or (not increasing and np.all(d < 0.0))):
        raise ValueError("levels must be strictly "
                         + ("increasing" if increasing else "monotone"))
    return levels


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
    seed, recs = _replicate(p, lambda rng: _first_passage(p, u, rng), n,
                            seed, level_index)
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
    _, rows = _replicate(p, lambda rng: _fixed_time(p, t, rng), n, seed,
                         level_index)
    xs, ms, gs = np.array(rows, dtype=float).reshape(n, 3).T.copy()
    return xs, ms, gs


def ratio_path(model, levels, rng: np.random.Generator,
               cfg: Optional[SimConfig] = None, with_max: bool = False):
    """Passage times over every level along one shared path.

    Levels must be finite, positive and sorted strictly increasing; times
    are nan once the path was censored at the horizon before reaching a
    level. With with_max=True also returns the running maximum just before
    each crossing, which is nondecreasing in the level along the path.
    """
    levels = _check_levels(levels, increasing=True)
    taus, maxima = _coupled_levels(prepare(model, cfg), levels, rng)
    return (taus, maxima) if with_max else taus


def ratio_paths(model, levels, n: int, seed: Optional[int] = None,
                level_index: int = 0,
                cfg: Optional[SimConfig] = None) -> np.ndarray:
    """Matrix of passage times, one coupled path per row."""
    p = prepare(model, cfg)
    levels = _check_levels(levels, increasing=True)
    _, rows = _replicate(p, lambda rng: _coupled_levels(p, levels, rng)[0],
                         n, seed, level_index)
    return np.array(rows, dtype=float).reshape(n, len(levels))


def extract_ladder(model, cfg: Optional[SimConfig] = None,
                   rng: Optional[np.random.Generator] = None) -> list:
    """Walk one path to the horizon recording strict new-maximum epochs.

    Returns (elapsed real time since the previous record, height increment)
    pairs. Records are exact only on event-exact paths, where they fall at
    jumps or at segment ends; a Gaussian part sets new maxima continuously,
    so such a path has no discrete ladder epochs, and skeleton models are
    refused before any sampler is built.
    """
    base = model.model if isinstance(model, PreparedModel) else model
    if choose_engine(base) != "event-exact":
        raise ModelError(
            "ladder records need an event-exact model (no Gaussian part, "
            "finite jump activity); a Gaussian part sets new maxima "
            "continuously")
    p = prepare(model, cfg)
    if rng is None:
        rng = stream(p.cfg.seed, 0, 0)
    times, heights = _ladder_records(p, rng)
    return list(zip(np.diff(times, prepend=0.0).tolist(), heights))
