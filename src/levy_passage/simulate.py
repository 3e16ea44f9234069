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

`prepare(model, cfg)` chooses the engine and builds its parts once. A path
is read in blocks of segments (the motion between two jumps) with their
ends, jumps and maxima. Four consumers read it: first passage, fixed time,
coupled levels and ladder records; ladder records only on event-exact
paths, since a Gaussian part sets new maxima continuously. Crossing times,
overshoots, undershoots and last-maximum times are exact to floating point
on both engines.

The prepared Gaussian variance decides how a batch runs. Without one, a
segment is a drift line and a path draws nothing but its waits and jumps,
so the rows of a batch advance in lockstep as 2-D arrays (_lockstep),
each still reading its own stream in the order of a single path. With one,
a path generator walks one row at a time (_event_blocks). Either way row r
of level index k reads the stream (seed, k, r), so every batch is
reproducible independently of batching or execution order, and a
single-path call on that stream gives the same row bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .models import LevyModel, ModelError, signed_mean_between, small_jump_variance
from .rng import _RowStreams, stream

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
_CHUNK = 64                # rows advanced together by the lockstep driver
_TINY = np.nextafter(0.0, 1.0)


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
# Gaussian-free paths, all rows of a batch in lockstep


class _OneRow:
    """The caller's generator as the stream of a one-row batch: it keeps
    its own position between blocks."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def start(self, i: int) -> None:
        pass

    def save(self):
        return self.rng

    def restore(self, state) -> None:
        pass


def _rows(p: PreparedModel, n: int, seed: Optional[int],
          level_index: int) -> tuple:
    """(seed, streams) of a batch of n rows at level_index. A seed of None
    means the prepared config's seed."""
    if n < 0:
        raise ValueError(f"n: must be nonnegative, got {n}")
    seed = p.cfg.seed if seed is None else seed
    return seed, _RowStreams(seed, level_index, np.arange(n))


def _interleave(top, post):
    """Segment maxima and jump landings in path order, along the last
    axis."""
    vals = np.empty(top.shape[:-1] + (2 * top.shape[-1],))
    vals[..., 0::2] = top
    vals[..., 1::2] = post
    return vals


def _chunks(n: int):
    """The row indices of a batch of n in chunks of _CHUNK, which bounds
    the stream states, arrays and records that a lockstep walk holds."""
    for lo in range(0, n, _CHUNK):
        yield np.arange(lo, min(lo + _CHUNK, n))


def _lockstep(p: PreparedModel, rows, idx: np.ndarray, horizon: float,
              step, head: Optional[tuple] = None) -> None:
    """Walk the rows idx of a batch on a path without a Gaussian part, all
    live rows together, a block of up to _EVENT_BLOCK segments at a time.

    A segment is the drift line between two jumps. Each round every live
    row restores its stream, draws its waits and then its jump sizes, and
    saves its stream; then the blocks of all live rows advance at once as
    2-D arrays, one row per path, with each row's arithmetic in the order
    of a single path. step(idx, blk) gets the batch indices of the live
    rows and blk = (t, x, te, pre, post, top): each row's start time and
    position as columns, and for each segment its end time, the positions
    just before and just after the jump that ends it, and its maximum (the
    end on upward drift, else -inf, which sets no record). It returns a
    mask of the rows it is done with; a row also leaves after the block
    that ends past horizon. A model without jumps is one segment to
    horizon, with no draws.

    With head = (scale, out), each row r first draws out[r] =
    rng.exponential(scale).
    """
    d = p.drift
    jumpy = p.rate > 0.0
    width = _EVENT_BLOCK if jumpy else 1
    scale = 1.0 / p.rate if jumpy else math.inf
    rng, draw = rows.rng, p.draw
    states = [None] * len(idx)
    t = x = np.zeros((len(idx), 1))
    while idx.size:
        m = len(idx)
        if jumpy:
            waits, jumps = np.empty((2, m, width))
        else:
            waits, jumps = np.full((m, 1), horizon), np.zeros((m, 1))
        if jumpy or head is not None:
            for i, r in enumerate(idx):
                if states[i] is None:
                    rows.start(r)
                    if head is not None:
                        head[1][r] = rng.exponential(head[0])
                else:
                    rows.restore(states[i])
                if jumpy:
                    waits[i] = rng.exponential(scale, width)
                    jumps[i] = draw(rng, width)
                    states[i] = rows.save()
        ct = np.cumsum(waits, axis=1)
        te = t + ct
        shift = np.zeros((m, width))
        np.cumsum(jumps[:, :-1], axis=1, out=shift[:, 1:])
        pre = x + d * ct + shift
        post = pre + jumps
        top = pre if d > 0.0 else np.full((m, width), -math.inf)
        keep = ~(step(idx, (t, x, te, pre, post, top))
                 | (te[:, -1] >= horizon))
        idx, t, x = idx[keep], te[keep, -1:], post[keep, -1:]
        states = [s for s, k in zip(states, keep) if k]


def _records(te, top, post, lim, mx, last) -> tuple:
    """Per row of a lockstep block, (maximum, time of the last record) over
    its first lim entries of interleaved segment maxima and jump landings,
    from (mx, last). Ties count as reattained maxima, as in _scan_records;
    a record falls at the end time of its segment."""
    vals = _interleave(top, post)
    vals[np.arange(vals.shape[1]) >= lim[:, None]] = -math.inf
    prior = np.maximum.accumulate(
        np.concatenate((mx[:, None], vals), axis=1), axis=1)[:, :-1]
    rec = vals >= prior
    i = vals.shape[1] - 1 - np.argmax(rec[:, ::-1], axis=1)
    rr = np.arange(len(mx))
    return (np.maximum(mx, vals.max(axis=1)),
            np.where(rec.any(axis=1), te[rr, i // 2], last))


def _before(te, post, t, x, rr, k):
    """(time, position) at the start of segment k of row rr."""
    first = k == 0
    km1 = np.where(first, 0, k - 1)
    return (np.where(first, t[rr, 0], te[rr, km1]),
            np.where(first, x[rr, 0], post[rr, km1]))


def _passages(p: PreparedModel, rows, n: int, u: np.ndarray,
              head: Optional[tuple] = None) -> np.ndarray:
    """First passages of n rows over levels u[r], censored at the horizon,
    as the rows (tau, ruined, x_at_tau, overshoot, undershoot, g_last_max)
    of one array. head is passed to _lockstep; a drawn level of 0 is taken
    as the least positive float."""
    horizon = p.cfg.horizon
    d = p.drift
    out = np.full((6, n), math.nan)
    out[0], out[1] = math.inf, 0.0
    mx, last = np.zeros((2, n))

    def step(idx, blk):
        t, x, te, pre, post, top = blk
        lv = np.maximum(u[idx], _TINY)
        hitm = (top > lv[:, None]) | (post > lv[:, None])
        hit = hitm.any(axis=1)
        k = np.argmax(hitm, axis=1)
        # records up to the crossing jump, or through the whole block
        mx[idx], last[idx] = _records(
            te, top, post, np.where(hit, 2 * k + 1, 2 * te.shape[1]),
            mx[idx], last[idx])
        h = np.flatnonzero(hit)
        if not h.size:
            return hit
        k, lv = k[h], lv[h]
        tau = te[h, k]
        x_at = post[h, k]
        # a crossing jump: the position just before it may be the maximum
        m, g = mx[idx[h]], last[idx[h]]
        up = pre[h, k] >= m
        m[up], g[up] = pre[h, k][up], tau[up]
        # a continuous crossing, forward from the segment start: on a line
        # from the origin that is bitwise u/d
        c = np.flatnonzero(top[h, k] > lv)
        t0, a = _before(te, post, t, x, h[c], k[c])
        tau[c] = t0 + (lv[c] - a) / d
        x_at[c] = lv[c]
        m[c], g[c] = lv[c], tau[c]
        ok = tau <= horizon
        out[:, idx[h[ok]]] = np.stack(
            (tau, np.ones(len(h)), x_at, x_at - lv, lv - m, g))[:, ok]
        return hit

    for idx in _chunks(n):
        _lockstep(p, rows, idx, horizon, step, head)
    return out


def _fixed_times(p: PreparedModel, rows, n: int, horizon: float) -> tuple:
    """Arrays (X_t, running max, last max time) at t = horizon over n
    rows."""
    d = p.drift
    x_end, mx, last = np.zeros((3, n))

    def step(idx, blk):
        t, x, te, pre, post, top = blk
        k = np.count_nonzero(te <= horizon, axis=1)
        mx_r, last_r = _records(te, top, post, 2 * k, mx[idx], last[idx])
        xe = post[:, -1].copy()
        # rows whose horizon falls inside drift line k
        c = np.flatnonzero(k < te.shape[1])
        t0, a = _before(te, post, t, x, c, k[c])
        xe[c] = a + d * (horizon - t0)
        if d > 0.0:
            c = c[xe[c] >= mx_r[c]]
            mx_r[c], last_r[c] = xe[c], horizon
        x_end[idx], mx[idx], last[idx] = xe, mx_r, last_r
        return np.zeros(len(idx), dtype=bool)

    for idx in _chunks(n):
        _lockstep(p, rows, idx, horizon, step)
    return x_end, mx, last


def _coupled_rows(p: PreparedModel, rows, n: int,
                  levels: np.ndarray) -> tuple:
    """Passage times of n rows over increasing levels, each row one path,
    with the running maximum just before each crossing; nan past the
    horizon.

    A level's crossing is the first segment maximum or jump landing above
    it. A row stops at its first crossing past the horizon, leaving that
    level and every higher one nan.
    """
    horizon = p.cfg.horizon
    d = p.drift
    nl = len(levels)
    taus, maxima = np.full((2, n, nl), math.nan)
    if p.rate == 0.0:
        # the drift line, which passes u = d horizon at the horizon itself
        if d > 0.0:
            tt = levels / d
            ok = tt <= horizon
            taus[:, ok] = tt[ok]
            maxima[:, ok] = levels[ok]
        return taus, maxima
    mx = np.zeros(n)
    nxt = np.zeros(n, dtype=int)    # levels resolved per row

    def step(idx, blk):
        t, x, te, pre, post, top = blk
        vals = _interleave(top, post)
        run = np.maximum.accumulate(vals, axis=1)
        # the entry that first passes each level; the running maximum
        # before entry j is prior[:, j]
        first = np.count_nonzero(run[:, None, :] <= levels[:, None], axis=2)
        mxi = mx[idx][:, None]
        prior = np.concatenate((mxi, np.maximum(mxi, run[:, :-1])), axis=1)
        cross = (first < vals.shape[1]) \
            & (np.arange(nl) >= nxt[idx][:, None])
        rr, ll = np.nonzero(cross)
        j = first[rr, ll]
        k = j // 2
        tau = te[rr, k]
        top_k = np.maximum(prior[rr, j], pre[rr, k])
        c = np.flatnonzero(j % 2 == 0)     # continuous crossings
        t0, a = _before(te, post, t, x, rr[c], k[c])
        tau[c] = t0 + (levels[ll[c]] - a) / d
        top_k[c] = levels[ll[c]]
        stop = np.zeros(cross.shape, dtype=bool)
        stop[rr, ll] = tau > horizon
        stop = np.logical_or.accumulate(stop, axis=1)
        ok = ~stop[rr, ll]
        taus[idx[rr[ok]], ll[ok]] = tau[ok]
        maxima[idx[rr[ok]], ll[ok]] = top_k[ok]
        nxt[idx] += np.count_nonzero(cross, axis=1)
        mx[idx] = np.maximum(mx[idx], run[:, -1])
        return stop[:, -1] | (nxt[idx] == nl)

    for idx in _chunks(n):
        _lockstep(p, rows, idx, horizon, step)
    return taus, maxima


def _ladders(p: PreparedModel, rows, n: int):
    """Yields, row by row, the times and height increments of its strict
    new maxima up to the horizon, as a pair of arrays."""
    horizon = p.cfg.horizon
    mx = np.zeros(n)
    found = {}      # row -> its records so far, in pieces

    def step(idx, blk):
        t, x, te, pre, post, top = blk
        k = np.count_nonzero(te <= horizon, axis=1)
        vals = _interleave(top, post)
        vals[np.arange(vals.shape[1]) >= 2 * k[:, None]] = -math.inf
        run = np.maximum.accumulate(
            np.concatenate((mx[idx][:, None], vals), axis=1), axis=1)
        rr, cc = np.nonzero(vals > run[:, :-1])
        times, heights = te[rr, cc // 2], vals[rr, cc] - run[rr, cc]
        cuts = np.searchsorted(rr, np.arange(len(idx) + 1)).tolist()
        for r, a, b in zip(idx.tolist(), cuts, cuts[1:]):
            found[r].append((times[a:b], heights[a:b]))
        mx[idx] = run[:, -1]
        return np.zeros(len(idx), dtype=bool)

    for idx in _chunks(n):
        found.update((r, []) for r in idx.tolist())
        _lockstep(p, rows, idx, horizon, step)
        for r in idx.tolist():
            yield tuple(np.concatenate(c) for c in zip(*found.pop(r)))


# ---------------------------------------------------------------------------
# paths with a Gaussian part, one row at a time


def _event_blocks(p: PreparedModel, rng, horizon: float):
    """The path of a model with a Gaussian part in blocks of up to
    _EVENT_BLOCK segments, up to horizon.

    A segment is the Brownian bridge between two jumps. Yields (t, x, te,
    pre, post, top): the block's start time and position, and for each
    segment its end time, the positions just before and just after the
    jump that ends it, and its maximum. The segment that holds horizon is
    cut there and ends the path, with no jump; after the waits and jumps
    the generator draws the segment ends, then their bridge maxima. A model
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
        if last:
            n = int(np.searchsorted(te, horizon)) + 1
            te = np.append(te[:n - 1], horizon)
            ct, j = te - t, np.append(j[:n - 1], 0.0)
        pre = x + d * ct + np.concatenate(([0.0], np.cumsum(j)[:-1]))
        s = np.diff(te, prepend=t)
        pre += np.cumsum(np.sqrt(sig2 * s) * rng.standard_normal(len(s)))
        post = pre + j
        top = _bridge_max(np.concatenate(([x], post[:-1])), pre, sig2 * s,
                          np.log(rng.random(len(s))))
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
    """Time at which the bridge from a at t0 to b at t1 first passes u,
    given that it does.

    Over s = t1 - t0 it is t0 + s Y/(1 + Y), with Y inverse Gaussian of
    mean (u - a)/|u - b| and shape (u - a)^2/(sigma2 s).
    """
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
    """First passage over u along one bridge path, censored at the
    horizon."""
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
            # a continuous crossing, forward from the segment start
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
    """(X_t, running max, last max time) at t = horizon along one bridge
    path, whose last segment ends at horizon."""
    mx, last = 0.0, 0.0
    for blk in _event_blocks(p, rng, horizon):
        mx, last = _scan_records(blk, 2 * len(blk[2]), mx, last)
    return float(blk[4][-1]), float(mx), _max_time(p, rng, mx, last)


def _coupled_levels(p: PreparedModel, levels: np.ndarray, rng) -> tuple:
    """Passage times over increasing levels along one bridge path, with
    the running maximum just before each crossing; nan past the horizon.

    After a bridge crosses a level, the rest of it is a bridge from that
    level, whose maximum is drawn afresh for the next level.
    """
    horizon = p.cfg.horizon
    taus, maxima = np.full((2, len(levels)), math.nan)
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


def _replicate(p: PreparedModel, one: Callable, n: int,
               seed: Optional[int], level_index: int) -> tuple:
    """(seed, [one(rng) for each replication]) for a batch of n, one row
    at a time.

    Replication r of level level_index reads stream (seed, level_index, r),
    so a batch replays bitwise whatever its size or split. A seed of None
    means the prepared config's seed; the seed used comes back with the
    values.
    """
    seed, rows = _rows(p, n, seed, level_index)
    out = []
    for r in range(n):
        rows.start(r)
        out.append(one(rows.rng))
    return seed, out


# ---------------------------------------------------------------------------
# public entry points; model may be a LevyModel or a PreparedModel; a model
# without a Gaussian part runs in lockstep, one with one a row at a time


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
    p = prepare(model, cfg)
    if p.sigma2 > 0.0:
        return _first_passage(p, u, rng)
    tau, ruined, x_at, ov, us, gl = _passages(
        p, _OneRow(rng), 1, np.array([u]))[:, 0].tolist()
    return PassageRecord(u, tau, bool(ruined), x_at, ov, us, gl)


def passage_sample(model, u: float, n: int,
                   seed: Optional[int] = None, level_index: int = 0,
                   cfg: Optional[SimConfig] = None) -> PassageBatch:
    """n independent passage attempts, one random stream per replication."""
    if not u > 0.0:
        raise ValueError("level u must be positive")
    p = prepare(model, cfg)
    if p.sigma2 > 0.0:
        seed, recs = _replicate(p, lambda rng: _first_passage(p, u, rng), n,
                                seed, level_index)
        cols = np.array(
            [(r.tau, r.ruined, r.x_at_tau, r.overshoot, r.undershoot,
              r.g_last_max) for r in recs], dtype=float).reshape(n, 6).T
    else:
        seed, rows = _rows(p, n, seed, level_index)
        cols = _passages(p, rows, n, np.full(n, u))
    tau, ruined, x_at, ov, us, gl = cols.copy()
    return PassageBatch(u, tau, ruined.astype(bool), x_at, ov, us, gl,
                        p.engine, seed, level_index)


def sample_at_time(model, t: float, rng: np.random.Generator,
                   cfg: Optional[SimConfig] = None) -> tuple:
    """(X_t, running max, last max time) for one path."""
    p = prepare(model, cfg)
    if p.sigma2 > 0.0:
        return _fixed_time(p, t, rng)
    return tuple(float(v[0]) for v in _fixed_times(p, _OneRow(rng), 1, t))


def fixed_time_sample(model, t: float, n: int,
                      seed: Optional[int] = None, level_index: int = 0,
                      cfg: Optional[SimConfig] = None):
    """Arrays (X_t, running max, last max time) over n replications."""
    p = prepare(model, cfg)
    if p.sigma2 == 0.0:
        return _fixed_times(p, _rows(p, n, seed, level_index)[1], n, t)
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
    p = prepare(model, cfg)
    if p.sigma2 > 0.0:
        taus, maxima = _coupled_levels(p, levels, rng)
    else:
        taus, maxima = (a[0] for a in
                        _coupled_rows(p, _OneRow(rng), 1, levels))
    return (taus, maxima) if with_max else taus


def ratio_paths(model, levels, n: int, seed: Optional[int] = None,
                level_index: int = 0,
                cfg: Optional[SimConfig] = None) -> np.ndarray:
    """Matrix of passage times, one coupled path per row."""
    p = prepare(model, cfg)
    levels = _check_levels(levels, increasing=True)
    if p.sigma2 == 0.0:
        return _coupled_rows(p, _rows(p, n, seed, level_index)[1], n,
                             levels)[0]
    _, rows = _replicate(p, lambda rng: _coupled_levels(p, levels, rng)[0],
                         n, seed, level_index)
    return np.array(rows, dtype=float).reshape(n, len(levels))


def _ladder_batch(p: PreparedModel, n: int, seed: Optional[int],
                  level_index: int):
    """Yields, for each row of a batch of n, extract_ladder's epochs as two
    arrays: the times since the previous record and the height
    increments."""
    for times, heights in _ladders(p, _rows(p, n, seed, level_index)[1], n):
        yield np.diff(times, prepend=0.0), heights


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
    times, heights = next(_ladders(p, _OneRow(rng), 1))
    return list(zip(np.diff(times, prepend=0.0).tolist(), heights.tolist()))
