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

One driver (_lockstep) walks every batch: its rows advance together as
2-D arrays, a block of segments a round, each still reading its own stream
in the order of a single path. A path without a Gaussian part draws only
its waits and jumps, and its segments are drift lines. The prepared
Gaussian variance adds, per row and block, a normal for each segment end
and a uniform for each bridge maximum, and between blocks the scalar draws
of the consumers that need them: a hitting time, a time of the maximum, or
a fresh bridge maximum after a coupled level is passed. Row r of level
index k reads the stream (seed, k, r), so every batch is reproducible
independently of batching or execution order, and a single-path call on
that stream, a one-row batch, gives the same row bit for bit.
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
# the rows of a batch, walked in lockstep


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
    """Walk the rows idx of a batch, all live rows together, a block of up
    to _EVENT_BLOCK segments at a time.

    A segment is the motion between two jumps: a drift line, or a Brownian
    bridge when the prepared Gaussian variance is positive. Each round
    every live row restores its stream and draws its waits and then its
    jump sizes. With a Gaussian part it then cuts its block at horizon, if
    the block reaches it, and draws a standard normal for each segment end
    and a uniform for each bridge maximum. It saves its stream, and the
    blocks of all live rows advance at once as 2-D arrays, one row per
    path, with each row's draws and arithmetic in the order of a single
    path.

    step(idx, blk, rng_at) gets the batch indices of the live rows and
    blk = (t, x, te, pre, post, top): each row's start time and position as
    columns, and for each segment its end time, the positions just before
    and just after the jump that ends it, and its maximum (on a line, the
    end on upward drift, else -inf, which sets no record). rng_at(i) is the
    generator at live row i's place in its stream, for the draws that a
    consumer makes between blocks; rng_at(i, True) keeps the place the
    draws reach, for a row that goes on. step returns a mask of the rows
    it is done with; a row also leaves after the block that ends at or
    past horizon. The bridge that holds horizon ends there, with no jump,
    and the entries after it are padded with te = horizon and -inf
    positions. A model without jumps is one segment to horizon.

    With head = (scale, out), each row r first draws out[r] =
    rng.exponential(scale).
    """
    d, sig2 = p.drift, p.sigma2
    jumpy = p.rate > 0.0
    width = _EVENT_BLOCK if jumpy else 1
    scale = 1.0 / p.rate if jumpy else 1.0
    rng, draw = rows.rng, p.draw
    # an inverse-tail sampler turns each row's uniforms into jumps at once
    invert = getattr(draw, "from_uniforms", None)
    states = [None] * len(idx)
    held = [None, False]    # the live row whose place rng holds, and
                            # whether that place is kept when rng moves on

    def rng_at(i, keep=False):
        if held[0] != i:
            release()
            rows.restore(states[i])
            held[0] = i
        held[1] = keep
        return rng

    def release():
        if held[1]:
            states[held[0]] = rows.save()
        held[:] = [None, False]

    t = x = np.zeros((len(idx), 1))
    while idx.size:
        m = len(idx)
        if jumpy:
            waits = np.empty((m, width))
            jumps = np.empty((m, 2 * width if invert else width))
        else:
            waits, jumps = np.full((m, 1), horizon), np.zeros((m, 1))
        if sig2 > 0.0:
            ct, z, unif = np.empty((m, width)), np.zeros((m, width)), \
                np.ones((m, width))
            ends = np.full(m, width + 1)    # segments of a block cut short
        if jumpy or sig2 > 0.0 or head is not None:
            for i, r in enumerate(idx):
                if states[i] is None:
                    rows.start(r)
                    if head is not None:
                        head[1][r] = rng.exponential(head[0])
                else:
                    rows.restore(states[i])
                if jumpy:
                    # exponential(scale, width) is scale times these
                    rng.standard_exponential(out=waits[i])
                    if invert:
                        rng.random(out=jumps[i])
                    else:
                        jumps[i] = draw(rng, width)
                if sig2 > 0.0:
                    waits[i] *= scale
                    np.add.accumulate(waits[i], out=ct[i])
                    k = width
                    if t[i, 0] + ct[i, -1] >= horizon:
                        k = ends[i] = int(np.searchsorted(
                            t[i, 0] + ct[i], horizon)) + 1
                    rng.standard_normal(out=z[i, :k])
                    rng.random(out=unif[i, :k])
                if jumpy or sig2 > 0.0:
                    states[i] = rows.save()
        if invert:
            jumps = invert(jumps)
        if sig2 > 0.0:
            # the segment that holds horizon ends there, with no jump
            te = t + ct
            cut = np.arange(width) >= ends[:, None] - 1
            te[cut] = horizon
            c = np.flatnonzero(ends <= width)
            ct[c] = te[c] - t[c]
            jumps[cut] = 0.0
        else:
            ct = np.cumsum(scale * waits, axis=1)
            te = t + ct
        shift = np.zeros((m, width))
        np.cumsum(jumps[:, :-1], axis=1, out=shift[:, 1:])
        pre = x + d * ct + shift
        if sig2 > 0.0:
            var = sig2 * np.diff(te, axis=1, prepend=t)
            pre += np.cumsum(np.sqrt(var) * z, axis=1)
            post = pre + jumps
            top = _bridge_max(np.concatenate((x, post[:, :-1]), axis=1),
                              pre, var, np.log(unif))
            past = np.arange(width) >= ends[:, None]
            pre[past] = post[past] = top[past] = -math.inf
        else:
            post = pre + jumps
            top = pre if d > 0.0 else np.full((m, width), -math.inf)
        keep = ~(step(idx, (t, x, te, pre, post, top), rng_at)
                 | (te[:, -1] >= horizon))
        release()
        idx, t, x = idx[keep], te[keep, -1:], post[keep, -1:]
        states = [s for s, k in zip(states, keep) if k]


def _bridge_max(x0, x1, var, logu):
    """Exact maximum of a Brownian bridge from x0 to x1 with variance var.

    With q = -var log U, the maximum is the larger root of
    (m - x0)(m - x1) = q/2, always at least max(x0, x1).
    """
    q = -var * logu
    disc = (x1 - x0) ** 2 + 2.0 * q
    return 0.5 * (x0 + x1 + np.sqrt(disc))


def _last_record(top, post, lim, mx) -> tuple:
    """Per row of a block, over its first lim entries of interleaved
    segment maxima and jump landings, from the maximum mx: the new maximum,
    whether the block sets a record, and the entry of its last record.
    Ties count as reattained maxima, so the last record is the latest
    visit to the maximum."""
    vals = _interleave(top, post)
    vals[np.arange(vals.shape[1]) >= lim[:, None]] = -math.inf
    prior = np.maximum.accumulate(
        np.concatenate((mx[:, None], vals), axis=1), axis=1)[:, :-1]
    rec = vals >= prior
    return (np.maximum(mx, vals.max(axis=1)), rec.any(axis=1),
            vals.shape[1] - 1 - np.argmax(rec[:, ::-1], axis=1))


def _records(te, top, post, lim, mx, last) -> tuple:
    """Per row of a block of drift lines, (maximum, time of the last
    record) from (mx, last); a record falls at the end time of its
    segment."""
    mx, rec, i = _last_record(top, post, lim, mx)
    return mx, np.where(rec, te[np.arange(len(mx)), i // 2], last)


def _before(te, post, t, x, rr, k):
    """(time, position) at the start of segment k of row rr."""
    first = k == 0
    km1 = np.where(first, 0, k - 1)
    return (np.where(first, t[rr, 0], te[rr, km1]),
            np.where(first, x[rr, 0], post[rr, km1]))


def _record_segments(te, pre, post, t, x, rr, i) -> np.ndarray:
    """(t0, t1, a, b) of the record at entry i of rows rr: the bridge from
    a at t0 to b at t1 for a segment maximum, and the point (t1, b) for a
    jump landing, whose value b is the maximum itself."""
    k = i // 2
    t0, a = _before(te, post, t, x, rr, k)
    land = i % 2 == 1
    t1, b = te[rr, k], np.where(land, post[rr, k], pre[rr, k])
    return np.stack((np.where(land, t1, t0), t1, np.where(land, b, a), b))


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


def _max_time(p: PreparedModel, rng, m, t0, t1, a, b):
    """Time at which the path attains its maximum m for the last time, on
    its last record (t0, t1, a, b) (see _record_segments).

    Only a bridge maximum strictly inside its segment draws a time, from
    the generator rng() gives: by Shepp (J. Appl. Prob. 1979) it is at
    t0 + s y/(1 + y), where with probability (m - b)/(2m - a - b) y is
    inverse Gaussian of mean (m - a)/(m - b) and shape (m - a)^2/(sigma2 s),
    and otherwise 1/y is inverse Gaussian with a and b swapped.
    """
    if m <= b:
        return t1
    if m <= a:
        return t0
    rng = rng()
    s = t1 - t0
    if rng.random() * (2.0 * m - a - b) < m - b:
        y = rng.wald((m - a) / (m - b), (m - a) ** 2 / (p.sigma2 * s))
    else:
        y = 1.0 / rng.wald((m - b) / (m - a), (m - b) ** 2 / (p.sigma2 * s))
    return t0 + s * y / (1.0 + y)


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
    bridges = p.sigma2 > 0.0
    seg = np.zeros((4, n))      # on bridges, the last record's segment

    def step(idx, blk, rng_at):
        t, x, te, pre, post, top = blk
        lv = np.maximum(u[idx], _TINY)
        hitm = (top > lv[:, None]) | (post > lv[:, None])
        hit = hitm.any(axis=1)
        k = np.argmax(hitm, axis=1)
        # records up to the crossing jump, or through the whole block
        lim = np.where(hit, 2 * k + 1, 2 * te.shape[1])
        if bridges:
            mx[idx], rec, i = _last_record(top, post, lim, mx[idx])
            r = np.flatnonzero(rec)
            seg[:, idx[r]] = _record_segments(te, pre, post, t, x, r, i[r])
        else:
            mx[idx], last[idx] = _records(te, top, post, lim, mx[idx],
                                          last[idx])
        h = np.flatnonzero(hit)
        if not h.size:
            return hit
        k, lv = k[h], lv[h]
        tau = te[h, k]
        x_at = post[h, k]
        # a crossing jump: the position just before it may be the maximum
        m, g = mx[idx[h]], last[idx[h]]
        up = pre[h, k] >= m
        cont = top[h, k] > lv
        if bridges:
            for j in np.flatnonzero(~(up | cont)).tolist():
                g[j] = _max_time(p, lambda: rng_at(h[j]), m[j],
                                 *seg[:, idx[h[j]]])
        m[up], g[up] = pre[h, k][up], tau[up]
        # a continuous crossing, forward from the segment start: on a line
        # from the origin that is bitwise u/d, on a bridge an inverse
        # Gaussian time
        c = np.flatnonzero(cont)
        t0, a = _before(te, post, t, x, h[c], k[c])
        if bridges:
            tau[c] = [_hit_time(p, rng_at(h[j]), lv[j], t0_j, tau[j], a_j,
                                pre[h[j], k[j]])
                      for j, t0_j, a_j in zip(c.tolist(), t0, a)]
        else:
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
    seg = np.zeros((4, n))      # on bridges, the last record's segment

    def step(idx, blk, rng_at):
        t, x, te, pre, post, top = blk
        if p.sigma2 > 0.0:
            mx[idx], rec, i = _last_record(
                top, post, np.full(len(idx), 2 * te.shape[1]), mx[idx])
            r = np.flatnonzero(rec)
            seg[:, idx[r]] = _record_segments(te, pre, post, t, x, r, i[r])
            # a path ends with the bridge that ends at horizon
            end = np.flatnonzero(te[:, -1] >= horizon)
            r = idx[end]
            x_end[r] = post[end, np.argmax(te[end] >= horizon, axis=1)]
            last[r] = [_max_time(p, lambda: rng_at(h), m_h, *seg_h)
                       for h, m_h, seg_h in zip(end.tolist(), mx[r],
                                                seg[:, r].T)]
            return np.zeros(len(idx), dtype=bool)
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
    level and every higher one nan. Rows whose block crosses a level inside
    a bridge walk that block on their own (_bridge_levels).
    """
    horizon = p.cfg.horizon
    d = p.drift
    nl = len(levels)
    taus, maxima = np.full((2, n, nl), math.nan)
    mx = np.zeros(n)
    nxt = np.zeros(n, dtype=int)    # levels resolved per row

    def step(idx, blk, rng_at):
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
        own = np.flatnonzero((cross & (first % 2 == 0)).any(axis=1)) \
            if p.sigma2 > 0.0 else np.array([], dtype=int)
        walked = [_bridge_levels(p, lambda: rng_at(h, True), levels, t[h, 0],
                                 x[h, 0], te[h], pre[h], post[h], vals[h],
                                 mx[idx[h]], nxt[idx[h]], taus[idx[h]],
                                 maxima[idx[h]])
                  for h in own.tolist()]
        cross[own] = False
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
        done = stop[:, -1]
        for h, (mx_h, nxt_h, stop_h) in zip(own.tolist(), walked):
            mx[idx[h]], nxt[idx[h]], done[h] = mx_h, nxt_h, stop_h
        return done | (nxt[idx] == nl)

    for idx in _chunks(n):
        _lockstep(p, rows, idx, horizon, step)
    return taus, maxima


def _bridge_levels(p: PreparedModel, rng, levels, t, x, te, pre, post,
                   vals, mx, nxt, taus, maxima) -> tuple:
    """One row's walk of a bridge block, from its running maximum mx, over
    levels[nxt:]; writes taus and maxima and returns (mx, nxt, stopped).

    vals are the block's interleaved segment maxima and jump landings.
    After a bridge crosses a level, the rest of it is a bridge from that
    level, whose maximum is drawn afresh from rng() for the next level.
    """
    horizon = p.cfg.horizon
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
                return mx, nxt, True
            n = int(np.searchsorted(levels, post[k]))
            taus[nxt:n] = te[k]
            maxima[nxt:n] = max(mx, pre[k])
            nxt = n
        else:
            t0, a = (te[k - 1], post[k - 1]) if k else (t, x)
            while nxt < len(levels) and levels[nxt] < vals[j]:
                u = levels[nxt]
                tau = _hit_time(p, rng(), u, t0, te[k], a, pre[k])
                if tau > horizon:
                    return mx, nxt, True
                taus[nxt] = tau
                maxima[nxt] = u
                nxt += 1
                t0, a = tau, u
                vals[j] = _bridge_max(
                    u, pre[k], p.sigma2 * (te[k] - tau),
                    math.log(rng().random()))
        mx = max(mx, float(vals[j]))
        i = j + 1
    if nxt < len(levels):
        mx = float(np.max(vals[i:], initial=mx))
    return mx, nxt, False


def _ladders(p: PreparedModel, rows, n: int):
    """Yields, row by row, the times and height increments of its strict
    new maxima up to the horizon, as a pair of arrays."""
    horizon = p.cfg.horizon
    mx = np.zeros(n)
    found = {}      # row -> its records so far, in pieces

    def step(idx, blk, rng_at):
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
# public entry points; model may be a LevyModel or a PreparedModel


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


def _check_time(t) -> None:
    """Refuses a fixed time unless it is finite and positive."""
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"t: must be finite and positive, got {t!r}")


def simulate_passage(model, u: float, rng: np.random.Generator,
                     cfg: Optional[SimConfig] = None) -> PassageRecord:
    """One passage attempt over level u > 0 with the natural engine."""
    if not u > 0.0:
        raise ValueError("level u must be positive")
    p = prepare(model, cfg)
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
    seed, rows = _rows(p, n, seed, level_index)
    tau, ruined, x_at, ov, us, gl = _passages(p, rows, n, np.full(n, u))
    return PassageBatch(u, tau, ruined.astype(bool), x_at, ov, us, gl,
                        p.engine, seed, level_index)


def sample_at_time(model, t: float, rng: np.random.Generator,
                   cfg: Optional[SimConfig] = None) -> tuple:
    """(X_t, running max, last max time) for one path."""
    _check_time(t)
    p = prepare(model, cfg)
    return tuple(float(v[0]) for v in _fixed_times(p, _OneRow(rng), 1, t))


def fixed_time_sample(model, t: float, n: int,
                      seed: Optional[int] = None, level_index: int = 0,
                      cfg: Optional[SimConfig] = None):
    """Arrays (X_t, running max, last max time) over n replications."""
    _check_time(t)
    p = prepare(model, cfg)
    return _fixed_times(p, _rows(p, n, seed, level_index)[1], n, t)


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
    taus, maxima = (a[0] for a in _coupled_rows(p, _OneRow(rng), 1, levels))
    return (taus, maxima) if with_max else taus


def ratio_paths(model, levels, n: int, seed: Optional[int] = None,
                level_index: int = 0,
                cfg: Optional[SimConfig] = None) -> np.ndarray:
    """Matrix of passage times, one coupled path per row."""
    p = prepare(model, cfg)
    levels = _check_levels(levels, increasing=True)
    return _coupled_rows(p, _rows(p, n, seed, level_index)[1], n, levels)[0]


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
