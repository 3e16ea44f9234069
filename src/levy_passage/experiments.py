"""Passage-ratio experiments over level grids.

Everything here reduces to summaries of passage batches: means and standard
errors of tau_u/u and G/u over ruined replications, overshoot histograms
with the creep atom kept separate, exponentially weighted ratio means, and
pass/fail verdicts against the classifier's limiting constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .models import (LevyModel, ModelError, Regime, StabilityVerdict,
                     classify_stability)
from .simulate import SimConfig, _check_levels, cutoff_for_rate, \
    fixed_time_sample, passage_sample, prepare, ratio_paths

__all__ = [
    "RunningStat",
    "OvershootHist",
    "ExperimentResult",
    "StabilityReport",
    "ASReport",
    "DemoRow",
    "tau_stability_experiment",
    "g_stability_experiment",
    "mean_exit_experiment",
    "overshoot_law_experiment",
    "as_stability_experiment",
    "appendix_demo",
]

_BAND_REL = 0.02          # relative slack added to 3 standard errors
_CENSOR_LIMIT = 0.01      # tolerated censoring for upward-drifting models
# geometric bins for positive overshoots, wide enough for every model
_HIST_EDGES = np.geomspace(1e-6, 1e6, 49)
_HIST_EDGES.setflags(write=False)


@dataclass
class RunningStat:
    """Mean and centered second moment of a sample."""

    n: int = 0
    mean: float = 0.0
    m2: float = 0.0

    @classmethod
    def from_values(cls, values: np.ndarray) -> "RunningStat":
        values = np.asarray(values, dtype=float)
        n = len(values)
        if n == 0:
            return cls()
        mu = float(np.mean(values))
        return cls(n=n, mean=mu, m2=float(np.sum((values - mu) ** 2)))

    @property
    def sd(self) -> float:
        if self.n < 2:
            return math.nan
        return math.sqrt(self.m2 / (self.n - 1))

    @property
    def se(self) -> float:
        if self.n < 2:
            return math.nan
        return self.sd / math.sqrt(self.n)


@dataclass
class OvershootHist:
    """Histogram of overshoots with the exact-zero creep atom separate."""

    zero_mass: int
    edges: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_values(cls, overshoots: np.ndarray) -> "OvershootHist":
        edges = _HIST_EDGES
        overshoots = np.asarray(overshoots, dtype=float)
        zero = int(np.sum(overshoots == 0.0))
        pos = overshoots[overshoots > 0.0]
        clipped = np.clip(pos, edges[0], np.nextafter(edges[-1], 0.0))
        counts, _ = np.histogram(clipped, bins=edges)
        return cls(zero_mass=zero, edges=edges, counts=counts)

    @property
    def total_mass(self) -> int:
        return self.zero_mass + int(self.counts.sum())


@dataclass
class ExperimentResult:
    """Per-level summary of a passage batch.

    Ratio statistics are over ruined replications only; n_censored counts
    the rest. weighted_tau / weighted_g map each weight exponent rho to the
    statistic of (ratio) * exp(-rho * overshoot); rho = 0 reproduces the
    plain ratio mean bit for bit because the weights are exactly one.
    """

    u: float
    n: int
    n_censored: int
    tau_ratio: RunningStat
    g_ratio: RunningStat
    overshoot_hist: OvershootHist
    weighted_tau: dict = field(default_factory=dict)
    weighted_g: dict = field(default_factory=dict)

    @property
    def n_ruined(self) -> int:
        return self.n - self.n_censored

    @property
    def mean_tau_ratio(self) -> float:
        return self.tau_ratio.mean

    @property
    def se_tau_ratio(self) -> float:
        return self.tau_ratio.se

    @property
    def mean_g_ratio(self) -> float:
        return self.g_ratio.mean

    @property
    def se_g_ratio(self) -> float:
        return self.g_ratio.se

    @classmethod
    def from_batch(cls, batch,
                   rho_list: Sequence[float] = ()) -> "ExperimentResult":
        ru = batch.ruined
        tr = batch.tau[ru] / batch.u
        gr = batch.g_last_max[ru] / batch.u
        ov = batch.overshoot[ru]
        wt = {}
        wg = {}
        for rho in rho_list:
            w = np.exp(-float(rho) * ov)
            wt[float(rho)] = RunningStat.from_values(tr * w)
            wg[float(rho)] = RunningStat.from_values(gr * w)
        return cls(u=batch.u, n=batch.n, n_censored=batch.n - int(ru.sum()),
                   tau_ratio=RunningStat.from_values(tr),
                   g_ratio=RunningStat.from_values(gr),
                   overshoot_hist=OvershootHist.from_values(ov),
                   weighted_tau=wt, weighted_g=wg)


# ---------------------------------------------------------------------------
# verdicts


def _within_band(est: float, se: float, target: float) -> bool:
    slack = 3.0 * se + _BAND_REL * max(abs(target), 1e-300)
    return abs(est - target) <= slack


def _verdict_for(stat: RunningStat, target: float) -> str:
    if not math.isfinite(target):
        return "inconclusive"
    if stat.n < 2 or not math.isfinite(stat.se):
        return "inconclusive"
    return "pass" if _within_band(stat.mean, stat.se, target) else "fail"


@dataclass
class StabilityReport:
    """Grid of per-level results with verdicts against a limiting value.

    Verdicts compare the per-level sample mean against the expected limit.
    For heavy-tailed ratio laws the mean converges more slowly than the law
    concentrates (or not at all), so the per-level medians are carried as
    diagnostics alongside.
    """

    kind: str
    regime: str
    classifier: StabilityVerdict = field(
        metadata={"json_fields": ("holds", "c", "detail")})
    target: float            # expected limit of the ratio, 1/c
    results: list
    verdicts: list
    verdict: str             # verdict at the grid point nearest the limit
    medians: list = field(default_factory=list)   # (tau, g) ratio medians


def _infer_regime(u_grid: np.ndarray, small: Regime, large: Regime) -> Regime:
    gm = float(np.exp(np.mean(np.log(u_grid))))
    return small if gm < 1.0 else large


def _check_preconditions(model: LevyModel, regime: Regime) -> None:
    h = model.hooks
    if not regime.small_time:
        if h.drifts_to == -1:
            raise ModelError(
                "passage over every level is defective for a model drifting "
                "to -inf; large-level ratio experiments need lim sup X = inf")
    else:
        if h.regular_upward is False:
            raise ModelError(
                "small-level ratio experiments need 0 regular for (0, inf)")


def _check_censoring(model: LevyModel, results) -> None:
    if model.hooks.drifts_to == 1:
        for r in results:
            if r.n and r.n_censored / r.n > _CENSOR_LIMIT:
                raise ModelError(
                    f"{r.n_censored}/{r.n} paths censored at u={r.u:g} for a "
                    "model drifting to +inf; the horizon is too short")


def _passage_grid(model, cfg, u_grid, n, rho_list, seed):
    results = []
    medians = []
    prepared = prepare(model, cfg)
    for i, u in enumerate(u_grid):
        batch = passage_sample(prepared, float(u), n, seed=seed,
                               level_index=i)
        results.append(ExperimentResult.from_batch(batch, rho_list))
        ru = batch.ruined
        medians.append((float(np.median(batch.tau[ru] / batch.u))
                        if ru.any() else math.nan,
                        float(np.median(batch.g_last_max[ru] / batch.u))
                        if ru.any() else math.nan))
    return results, medians


def _ratio_report(kind, model, cfg, u_grid, n, rho_list, seed, regime):
    """Per-level means of G/u for kind "g", else of tau/u, against the
    classifier limit; "mean-exit" infers a mean regime, the others a
    probability regime."""
    u_grid = _check_levels(u_grid)
    if n < 100:
        raise ValueError("ratio experiments need n >= 100")
    if regime is None:
        regime = _infer_regime(u_grid, Regime.MEAN_SMALL, Regime.MEAN_LARGE) \
            if kind == "mean-exit" else \
            _infer_regime(u_grid, Regime.PROB_SMALL, Regime.PROB_LARGE)
    _check_preconditions(model, regime)
    cls = classify_stability(model, regime)
    stable = cls.holds == "yes"
    target = 1.0 / cls.c if stable and cls.c > 0.0 else math.nan
    results, medians = _passage_grid(model, cfg, u_grid, n, rho_list, seed)
    _check_censoring(model, results)
    stats = [r.g_ratio if kind == "g" else r.tau_ratio for r in results]
    verdicts = [_verdict_for(s, target) for s in stats]
    # the grid point nearest the limit decides; for an unstable model the
    # experiment is evidence, not a hypothesis test
    overall = verdicts[-1] if stable else "inconclusive"
    return StabilityReport(kind=kind, regime=regime.value, classifier=cls,
                           target=target, results=results,
                           verdicts=verdicts, verdict=overall,
                           medians=medians)


def tau_stability_experiment(model: LevyModel, cfg: Optional[SimConfig],
                             u_grid, n: int, rho_list: Sequence[float] = (),
                             seed: Optional[int] = None,
                             regime: Optional[Regime] = None) -> StabilityReport:
    """Means of tau_u/u across a level grid against the classifier limit."""
    return _ratio_report("tau", model, cfg, u_grid, n, rho_list, seed, regime)


def g_stability_experiment(model: LevyModel, cfg: Optional[SimConfig],
                           u_grid, n: int, rho_list: Sequence[float] = (),
                           seed: Optional[int] = None,
                           regime: Optional[Regime] = None) -> StabilityReport:
    """Means of G/u (last maximum time over level) across a level grid."""
    return _ratio_report("g", model, cfg, u_grid, n, rho_list, seed, regime)


def mean_exit_experiment(model: LevyModel, cfg: Optional[SimConfig],
                         u_grid, n: int, seed: Optional[int] = None,
                         regime: Optional[Regime] = None) -> StabilityReport:
    """E tau_u / u across a level grid against the first-moment limit."""
    if model.hooks.drifts_to is not None and model.hooks.drifts_to != 1:
        raise ModelError(
            "expected exit times are finite only for models drifting to "
            "+inf; mean-exit experiments are not defined here")
    return _ratio_report("mean-exit", model, cfg, u_grid, n, (), seed,
                         regime)


def overshoot_law_experiment(model: LevyModel, cfg: Optional[SimConfig],
                             u: float, n: int, rho_list: Sequence[float],
                             seed: Optional[int] = None) -> ExperimentResult:
    """Weighted ratio means (tau/u and G/u against exp(-rho overshoot)).

    Refused for lattice jump models: the overshoot law does not settle on a
    lattice, so the weighted limits are not defined there.
    """
    if model.measure.is_lattice:
        raise ModelError(
            "overshoot-weighted limits are not defined for lattice jump "
            "models; use a spread-out jump law")
    if n < 100:
        raise ValueError("ratio experiments need n >= 100")
    batch = passage_sample(model, float(u), n, seed=seed, cfg=cfg)
    result = ExperimentResult.from_batch(batch, rho_list)
    _check_censoring(model, [result])
    return result


# ---------------------------------------------------------------------------
# almost-sure ratio paths


@dataclass
class ASReport:
    """Coupled per-path ratio convergence over a geometric level grid."""

    levels: np.ndarray
    target: float
    band: float
    tail_window: int
    fraction_pass: float
    median_ratio: np.ndarray     # per level, over paths that reached it
    n_paths: int
    verdict: str


def as_stability_experiment(model: LevyModel, cfg: Optional[SimConfig],
                            levels, n: int, seed: Optional[int] = None,
                            regime: Optional[Regime] = None,
                            band: float = 0.15, tail_window: int = 3,
                            min_fraction: float = 0.9) -> ASReport:
    """Pathwise tau_u/u along one path per replication.

    A path passes when its ratios at the last tail_window grid levels all
    sit within the band around the expected limit. The overall verdict
    needs at least min_fraction of paths to pass.
    """
    levels = _check_levels(levels)
    if not 1 <= tail_window <= len(levels):
        raise ValueError(f"tail_window: must be from 1 to the number of "
                         f"levels ({len(levels)}), got {tail_window!r}")
    if not (math.isfinite(band) and band > 0.0):
        raise ValueError(f"band: must be finite and positive, got {band!r}")
    if not 0.0 < min_fraction <= 1.0:
        raise ValueError(f"min_fraction: must be in (0, 1], got "
                         f"{min_fraction!r}")
    if np.any(np.diff(levels) < 0.0):
        levels = levels[::-1].copy()
    if regime is None:
        regime = _infer_regime(levels, Regime.AS_SMALL, Regime.AS_LARGE)
    _check_preconditions(model, regime)
    cls = classify_stability(model, regime)
    stable = cls.holds == "yes"
    target = 1.0 / cls.c if stable and cls.c > 0.0 else math.nan
    taus = ratio_paths(model, levels, n, seed=seed, cfg=cfg)
    ratios = taus / levels[None, :]
    if regime.small_time:
        tail = ratios[:, :tail_window]       # levels sorted increasing
    else:
        tail = ratios[:, -tail_window:]
    if math.isfinite(target):
        ok = np.all(np.abs(tail - target) <= band * max(target, 1e-300), axis=1)
        ok &= ~np.any(np.isnan(tail), axis=1)
        frac = float(np.mean(ok))
        verdict = "pass" if frac >= min_fraction else "fail"
    else:
        frac = math.nan
        verdict = "inconclusive"
    med = np.nanmedian(ratios, axis=0)
    return ASReport(levels=levels, target=target, band=band,
                    tail_window=tail_window, fraction_pass=frac,
                    median_ratio=med, n_paths=n, verdict=verdict)


# ---------------------------------------------------------------------------
# fixed-time ratio tables (small and large time demos)


@dataclass
class DemoRow:
    """Quantiles of X_t/t and max X/t at one time point."""

    t: float
    n: int
    epsilon: float
    x_q10: float
    x_med: float
    x_q90: float
    max_q10: float
    max_med: float


def appendix_demo(model: LevyModel, times, n: int,
                  cfg: Optional[SimConfig] = None,
                  seed: Optional[int] = None,
                  events_per_path: float = 50.0) -> list:
    """Fixed-time ratio quantiles across a time grid.

    For infinite-activity models the jump cutoff is re-chosen per time
    point so each path sees a bounded number of resolved jumps.
    """
    cfg = cfg or SimConfig()
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times) & (times > 0.0)):
        raise ValueError(
            f"times: must be finite and positive, got {times.tolist()!r}")
    rows = []
    for i, t in enumerate(times):
        eps = cutoff_for_rate(model, min(events_per_path / t,
                                         0.99 * cfg.rate_cap))
        prepared = prepare(model, SimConfig(
            epsilon=eps, horizon=cfg.horizon, seed=cfg.seed,
            rate_cap=cfg.rate_cap))
        if prepared.exact:
            # the event-exact engine uses no cutoff
            eps = 0.0
        xs, ms, _ = fixed_time_sample(prepared, float(t), n, seed=seed,
                                      level_index=i)
        xr = xs / t
        mr = ms / t
        rows.append(DemoRow(
            t=float(t), n=n, epsilon=eps,
            x_q10=float(np.quantile(xr, 0.10)),
            x_med=float(np.median(xr)),
            x_q90=float(np.quantile(xr, 0.90)),
            max_q10=float(np.quantile(mr, 0.10)),
            max_med=float(np.median(mr))))
    return rows
