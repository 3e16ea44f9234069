"""Traced pass: spans around each layer's public calls, and layer metrics.

Spans are recorded only from the benchmark's own code. An operation first
runs as in the untraced pass, through `cli.main` (or the library call),
inside one top-level span. The benchmark then feeds the same inputs (same
configs, seeds, levels and stream keys) through the public functions of the
layers that call bundles, each in a *replay* span whose parent is the span
of the call that did that work internally. For example `passage_sample`
creates its streams internally, so `rng.stream` is replayed over the same
(seed, level, replication) keys as a replay child of the `passage_sample`
span.

Self time of a span is its duration minus the part of its interval covered
by nested children, minus the whole duration of its replay children (their
work happened inside the parent, only timed again here). A layer's self
time is the sum over its spans. It is the difference of two timings of the
same work, so for a thin layer such as `cli` it carries the noise of the
replayed work and can come out negative. Per-call costs that no operation
times on its own (cumulant, tail expressions, jump draws, integrate_tail)
are probed on each operation's model outside any span.

Counts that the program does not report are derived from its outputs and
labelled as computed: drift-minus-poisson passages take exactly
N_tau = a tau - u events; other event-exact passages about rate x tau;
skeleton passages about sum(ceil(tau/dt)) substeps plus rate x tau jumps.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import ops as ops_mod


@dataclass
class Span:
    id: int
    name: str
    layer: str
    workload: str
    experiment: str
    parent: int | None
    replay: bool
    start: float
    end: float = math.nan

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one traced pass, kept in memory until the run ends."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list = []
        self._open: list = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str, experiment: str,
             parent: Span | None = None, replay: bool = False):
        if parent is None and self._open:
            parent = self._open[-1]
        s = Span(len(self.spans), name, layer, self.workload, experiment,
                 None if parent is None else parent.id, replay,
                 time.perf_counter())
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def self_seconds(self, s: Span) -> float:
        nested = []
        replayed = 0.0
        for c in self.spans:
            if c.parent != s.id:
                continue
            if c.replay:
                replayed += c.seconds
            else:
                nested.append((c.start, c.end))
        covered = 0.0
        edge = -math.inf
        for a, b in sorted(nested):
            a = max(a, edge)
            if b > a:
                covered += b - a
                edge = b
        return s.seconds - covered - replayed

    def layer_self(self) -> dict:
        out: dict = {}
        for s in self.spans:
            out[s.layer] = out.get(s.layer, 0.0) + self.self_seconds(s)
        return out

    def to_dicts(self) -> list:
        return [dataclasses.asdict(s) for s in self.spans]


@dataclass
class Work:
    """Counts of one traced pass; keys ending in _computed are derived."""

    n: dict = field(default_factory=dict)
    t: dict = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.n[key] = self.n.get(key, 0.0) + value

    def time(self, key: str, seconds: float) -> None:
        self.t[key] = self.t.get(key, 0.0) + seconds


# ---------------------------------------------------------------------------
# replays of the inner layers


def _replay_streams(tr, parent, exp, seed, level, n, work) -> None:
    from levy_passage.rng import stream
    with tr.span("rng.stream", "rng", exp, parent, replay=True) as s:
        for r in range(n):
            stream(seed, level, r)
    work.add("rng.streams", n)
    work.time("rng.stream", s.seconds)


def _counting(tail, counter):
    def f(x):
        counter[0] += 1
        v = tail(x)
        if v != 0.0:
            counter[1] += 1
        return v
    return f


def replay_spec(tr, parent, exp, model, cfg, work):
    """The skeleton spec's parts, the jump sampler and the folded moments,
    as replay children of parent; then the sampler's one-jump draw cost.
    Returns the sampler."""
    from levy_passage.models import signed_mean_between, small_jump_variance
    from levy_passage.rng import stream
    m = model.measure
    finite = m.is_finite_activity and m.law is not None
    eps = 0.0 if finite else cfg.epsilon
    counter = [0, 0]
    counted = dataclasses.replace(m, pos_tail=_counting(m.pos_tail, counter),
                                  neg_tail=_counting(m.neg_tail, counter))
    with tr.span("measures.sampler", "measures", exp, parent,
                 replay=True) as s:
        sampler = counted.sampler(eps)
    work.time("measures.sampler_build", s.seconds)
    work.add("measures.tail_evals", counter[0])
    if m.law is None:
        # nonzero tilted-tail values each cost one integrate_tail call
        work.add("quadrature.calls_computed",
                 counter[1] if model.params.get("nu0") else 0)
    with tr.span("models.spec_parts", "models", exp, parent,
                 replay=True) as s:
        if not finite:
            small_jump_variance(model, eps)
        signed_mean_between(model, eps, 1.0)
    work.time("models.spec_parts", s.seconds)
    rng = stream(cfg.seed, 0, 0)
    k = 200
    t0 = time.perf_counter()
    for _ in range(k):
        sampler.draw(rng, 1)
    work.time("measures.draw", time.perf_counter() - t0)
    work.add("measures.draws", k)
    return sampler


def _is_exact(model) -> bool:
    from levy_passage.simulate import choose_engine
    return choose_engine(model) == "event-exact"


def _account_walk(tr, span, kind, reps, steps, censored, work) -> None:
    """Walk time of one simulate span: its duration less replayed set-up.

    Stream creation stays in, as it is part of each replication's cost.
    kind is exact | ratio_path | skeleton | fixed_time; steps are events
    for the first two and substeps plus jumps for the others (computed).
    """
    setup = sum(c.seconds for c in tr.spans
                if c.parent == span.id and c.layer != "rng")
    walk = span.seconds - setup
    work.time("simulate.walk", walk)
    work.time(f"simulate.{kind}", walk)
    work.add("simulate.reps", reps)
    work.add(f"simulate.{kind}.reps", reps)
    work.add("simulate.steps_computed", steps)
    work.add(f"simulate.{kind}.steps_computed", steps)
    work.add("simulate.censored", censored)


def _dmp_events(model, tau, u) -> float:
    """Events of drift-minus-poisson passages: exactly a tau - u each."""
    return float(np.sum(model.params["a"] * tau - u))


def _replay_passage(tr, parent, exp, model, u, n, seed, level, cfg, work):
    from levy_passage.models import Family
    from levy_passage.simulate import passage_sample
    with tr.span("simulate.passage_sample", "simulate", exp, parent,
                 replay=True) as s:
        batch = passage_sample(model, u, n, seed=seed, level_index=level,
                               cfg=cfg)
    _replay_streams(tr, s, exp, seed, level, n, work)
    ru = batch.ruined
    tau = np.where(ru, batch.tau, cfg.horizon)
    if _is_exact(model):
        kind = "exact"
        if model.family == Family.DRIFT_MINUS_POISSON and ru.all():
            steps = _dmp_events(model, tau, u)
            work.time("simulate.exact.dmp", s.seconds)
            work.add("simulate.exact.dmp_events", steps)
        else:
            steps = model.measure.total_rate * float(np.sum(tau))
    else:
        kind = "skeleton"
        sampler = replay_spec(tr, s, exp, model, cfg, work)
        steps = float(np.sum(np.ceil(tau / cfg.dt))) \
            + sampler.rate * float(np.sum(tau))
    _account_walk(tr, s, kind, n, steps, int((~ru).sum()), work)
    return batch, s


def _replay_classify(tr, parent, exp, model, grid, kind, work) -> None:
    from levy_passage.models import Regime, classify_stability
    small = math.exp(float(np.mean(np.log(grid)))) < 1.0
    regime = {("prob", False): Regime.PROB_LARGE,
              ("prob", True): Regime.PROB_SMALL,
              ("as", False): Regime.AS_LARGE,
              ("as", True): Regime.AS_SMALL}[(kind, small)]
    with tr.span("models.classify", "models", exp, parent, replay=True) as s:
        classify_stability(model, regime)
    work.time("models.classify", s.seconds)


def _replay_tilt(tr, parent, exp, model, work) -> tuple:
    """(tilted model, seconds) from the Lundberg root and the Esscher tilt."""
    from levy_passage.cramer import esscher_tilt, solve_lundberg
    with tr.span("cramer.solve_lundberg", "cramer", exp, parent,
                 replay=True) as root:
        nu0 = solve_lundberg(model)
    with tr.span("cramer.esscher_tilt", "cramer", exp, parent,
                 replay=True) as s:
        tilt = esscher_tilt(model, nu0)
    work.time("cramer.lundberg", root.seconds)
    work.time("cramer.tilt", s.seconds)
    return tilt, root.seconds + s.seconds


def _ruin_levels(tr, top, exp, model, cfg, sim, once, work, result) -> None:
    """ruin_is per level: Lundberg root and tilt, then tilted passages.

    The conditional experiment tilts once for all levels, the ruin CLI path
    once per level; a level's time is its share of the tilts plus its
    tilted passage_sample.
    """
    tilt = _replay_tilt(tr, top, exp, model, work) if once else None
    for i, u in enumerate(cfg["u_grid"]):
        tilted, secs = tilt or _replay_tilt(tr, top, exp, model, work)
        _, s = _replay_passage(tr, top, exp, tilted.tilted, float(u),
                               cfg["n"], sim.seed + i, 0, sim, work)
        work.time("cramer.ruin_level", s.seconds + (0.0 if once else secs))
        work.add("cramer.levels", 1)
    if once:
        work.time("cramer.ruin_level", tilt[1])
    n = cfg["n"]
    for e in result["estimates"]:
        # (sum w)^2 / (n sum w^2) from psi_hat and its s.e. (ddof=1)
        mean, se = e["psi_hat"], e["se"]
        sum_w2 = (n - 1) * se * se * n + n * mean * mean
        work.add("cramer.ess_frac_sum", n * mean * mean / sum_w2)
        work.add("cramer.ess_levels", 1)


def _probe_model(cfg, model, work) -> None:
    """Small probes on one op's model: cumulant and tail expressions."""
    from levy_passage.models import cumulant
    from levy_passage.tail_expr import parse_tail_expr
    k = 50
    t0 = time.perf_counter()
    for _ in range(k):
        cumulant(model, 0.5)
    work.time("models.cumulant_probe", time.perf_counter() - t0)
    work.add("models.cumulant_calls", k)
    spec = cfg["model"]
    if spec["family"] == "custom":
        fn = parse_tail_expr(spec["pos_tail"])
        xs = np.geomspace(1e-3, 50.0, 400).tolist()
        t0 = time.perf_counter()
        for x in xs:
            fn(x)
        work.time("tail_expr.eval", time.perf_counter() - t0)
        work.add("tail_expr.evals", len(xs))


def _probe_quadrature(nu0, model, work) -> None:
    """integrate_tail on the integrand the general tilt integrates per node."""
    from levy_passage.quadrature import integrate_tail
    pos = model.measure.pos_tail

    def w(y):
        t = float(pos(y))
        return math.exp(nu0 * y) * t if t > 0.0 else 0.0

    xs = np.geomspace(1e-3, 100.0, 32)
    t0 = time.perf_counter()
    for x in xs:
        integrate_tail(w, float(x), max(10.0 * x, 50.0 / nu0))
    work.time("quadrature.integrate_tail", time.perf_counter() - t0)
    work.add("quadrature.probe_calls", len(xs))


# ---------------------------------------------------------------------------
# one traced operation


def trace_op(tr: Tracer, op, paths, work: Work):
    from levy_passage import output
    from levy_passage.config import load_config, model_from_config, \
        sim_from_config
    exp = op.name
    top_name, top_layer = ("cli.main", "cli") if op.is_cli \
        else ("ladder.renewal_estimate", "ladder")
    with tr.span(top_name, top_layer, exp) as top:
        outcome = ops_mod.run_op(op, paths)
    if outcome.rc != 0 or outcome.result is None:
        return outcome
    with tr.span("config.load", "config", exp, top, replay=True) as s:
        cfg = load_config(paths.config(op))
        model = model_from_config(cfg)
        sim = sim_from_config(cfg)
    work.time("config.load", s.seconds)
    result = outcome.result
    cmd = op.command
    batches = []
    if cmd in ("stability", "simulate"):
        from levy_passage.experiments import ExperimentResult
        grid = cfg["u_grid"]
        if cmd == "stability":
            _replay_classify(tr, top, exp, model, grid, "prob", work)
        for i, u in enumerate(grid):
            batches.append(_replay_passage(
                tr, top, exp, model, float(u), cfg["n"], sim.seed,
                i if cmd == "stability" else 0, sim, work)[0])
        if cmd == "stability":
            with tr.span("experiments.from_batch", "experiments", exp, top,
                         replay=True) as s:
                for b in batches:
                    ExperimentResult.from_batch(b, ())
                    np.median(b.tau[b.ruined] / b.u)
                    np.median(b.g_last_max[b.ruined] / b.u)
            work.time("experiments.summary", s.seconds)
    elif cmd == "as-stability":
        from levy_passage.simulate import ratio_paths
        levels = np.asarray(cfg["levels"], dtype=float)
        _replay_classify(tr, top, exp, model, levels, "as", work)
        with tr.span("simulate.ratio_paths", "simulate", exp, top,
                     replay=True) as s:
            taus = ratio_paths(model, levels, cfg["n"], seed=sim.seed,
                               cfg=sim)
        _replay_streams(tr, s, exp, sim.seed, 0, cfg["n"], work)
        # a path walks until it passes the top level: a tau - u events
        top_tau = taus[:, -1]
        done = ~np.isnan(top_tau)
        _account_walk(tr, s, "ratio_path", cfg["n"],
                      _dmp_events(model, top_tau[done], levels[-1]),
                      int((~done).sum()), work)
    elif cmd == "lt-identity":
        from levy_passage.ladder import exponent_for, verify_lt_identity
        with tr.span("ladder.exponent_for", "ladder", exp, top,
                     replay=True) as s:
            kappa = exponent_for(model, cfg=sim)
        work.time("ladder.exponent", s.seconds)
        tr_cfg = cfg["transform"]
        with tr.span("ladder.verify_lt_identity", "ladder", exp, top,
                     replay=True) as s:
            verify_lt_identity(model, kappa, mu=tr_cfg["mu"],
                               nu=tr_cfg.get("nu", 0.0), n=cfg["n"],
                               seed=sim.seed, cfg=sim)
        _replay_streams(tr, s, exp, sim.seed, 0, cfg["n"], work)
        work.time("ladder.lt_identity", s.seconds)
        work.add("ladder.lt_identity_reps", cfg["n"])
    elif cmd in ("conditional", "ruin"):
        _ruin_levels(tr, top, exp, model, cfg, sim, cmd == "conditional",
                     work, result)
        if cmd == "ruin" and model.measure.law is None:
            from levy_passage.cramer import solve_lundberg
            _probe_quadrature(solve_lundberg(model), model, work)
    elif cmd == "appendix-demo":
        from levy_passage.simulate import SimConfig, cutoff_for_rate, \
            fixed_time_sample
        n = cfg["n"]
        for i, t in enumerate(cfg["times"]):
            eps = cutoff_for_rate(model, min(50.0 / t, 0.99 * sim.rate_cap))
            run_cfg = SimConfig(epsilon=eps, dt=t / 64.0, horizon=sim.horizon,
                                seed=sim.seed, rate_cap=sim.rate_cap)
            with tr.span("simulate.fixed_time_sample", "simulate", exp, top,
                         replay=True) as s:
                fixed_time_sample(model, float(t), n, seed=sim.seed,
                                  level_index=i, cfg=run_cfg)
            _replay_streams(tr, s, exp, sim.seed, i, n, work)
            sampler = replay_spec(tr, s, exp, model, run_cfg, work)
            _account_walk(tr, s, "fixed_time", n,
                          (64 + sampler.rate * t) * n, 0, work)
    elif cmd == "renewal":
        _replay_streams(tr, top, exp, sim.seed, 0, cfg["n"], work)
        work.time("ladder.renewal", top.seconds)
        work.add("ladder.renewal_paths", cfg["n"])
    _probe_model(cfg, model, work)
    if op.is_cli:
        tmp = paths.result(op) + ".replay"
        with tr.span("output.write", "output", exp, top, replay=True) as s:
            if op.fmt == "json":
                output.write_json(tmp, result)
            else:
                output.write_csv(tmp, output.RECORD_COLUMNS,
                                 output.record_rows(batches[0]))
        work.time("output.write", s.seconds)
        work.add("output.bytes", os.path.getsize(tmp))
        if ops_mod.file_digest(tmp) != outcome.digest:
            work.add("output.replay_mismatch", 1)
    return outcome


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass


# counts derived from outputs rather than counted (module docstring)
COMPUTED = ("simulate.steps", "simulate.exact.events",
            "simulate.skeleton.substeps", "quadrature.calls")


def _per(t, n, scale=1.0):
    return t * scale / n if n else None


def layer_metrics(tr: Tracer, work: Work) -> dict:
    """Every per-layer figure of one traced pass; None where absent.

    Per-unit costs come with their counts; counts named *.steps, .events,
    .substeps and quadrature.calls are computed, not counted (module doc).
    """
    n, t = work.n, work.t
    g = lambda d, k: d.get(k, 0.0)
    skel_t = g(t, "simulate.skeleton") + g(t, "simulate.fixed_time")
    skel_n = g(n, "simulate.skeleton.steps_computed") \
        + g(n, "simulate.fixed_time.steps_computed")
    m = {
        "config.load_s": t.get("config.load"),
        "rng.stream_us": _per(g(t, "rng.stream"), g(n, "rng.streams"), 1e6),
        "rng.streams": n.get("rng.streams"),
        "simulate.reps": n.get("simulate.reps"),
        "simulate.steps": n.get("simulate.steps_computed"),
        "simulate.us_per_rep": _per(g(t, "simulate.walk"),
                                    g(n, "simulate.reps"), 1e6),
        "simulate.us_per_step": _per(g(t, "simulate.walk"),
                                     g(n, "simulate.steps_computed"), 1e6),
        "simulate.censored_frac": _per(g(n, "simulate.censored"),
                                       g(n, "simulate.reps")),
        "simulate.exact.reps": n.get("simulate.exact.reps"),
        "simulate.exact.us_per_rep": _per(
            g(t, "simulate.exact"), g(n, "simulate.exact.reps"), 1e6),
        "simulate.exact.events": n.get("simulate.exact.dmp_events"),
        "simulate.exact.us_per_event": _per(
            g(t, "simulate.exact.dmp"), g(n, "simulate.exact.dmp_events"),
            1e6),
        "simulate.ratio_path.us_per_path": _per(
            g(t, "simulate.ratio_path"), g(n, "simulate.ratio_path.reps"),
            1e6),
        "simulate.skeleton.substeps": skel_n or None,
        "simulate.skeleton.us_per_substep": _per(skel_t, skel_n, 1e6),
        "simulate.fixed_time.us_per_rep": _per(
            g(t, "simulate.fixed_time"), g(n, "simulate.fixed_time.reps"),
            1e6),
        "measures.sampler_build_s": t.get("measures.sampler_build"),
        "measures.tail_evals": n.get("measures.tail_evals"),
        "measures.draw_us": _per(g(t, "measures.draw"), g(n, "measures.draws"),
                                 1e6),
        "tail_expr.eval_us": _per(g(t, "tail_expr.eval"),
                                  g(n, "tail_expr.evals"), 1e6),
        "quadrature.integrate_tail_ms": _per(
            g(t, "quadrature.integrate_tail"), g(n, "quadrature.probe_calls"),
            1e3),
        "quadrature.calls": n.get("quadrature.calls_computed") or None,
        "models.spec_parts_s": t.get("models.spec_parts"),
        "models.classify_s": t.get("models.classify"),
        "models.cumulant_us": _per(g(t, "models.cumulant_probe"),
                                   g(n, "models.cumulant_calls"), 1e6),
        "cramer.lundberg_s": t.get("cramer.lundberg"),
        "cramer.tilt_s": t.get("cramer.tilt"),
        "cramer.ruin_level_s": _per(g(t, "cramer.ruin_level"),
                                    g(n, "cramer.levels")),
        "cramer.ess_frac": _per(g(n, "cramer.ess_frac_sum"),
                                g(n, "cramer.ess_levels")),
        "ladder.lt_identity.us_per_rep": _per(
            g(t, "ladder.lt_identity"), g(n, "ladder.lt_identity_reps"), 1e6),
        "ladder.exponent_s": t.get("ladder.exponent"),
        "ladder.renewal.us_per_path": _per(
            g(t, "ladder.renewal"), g(n, "ladder.renewal_paths"), 1e6),
        "experiments.summary_s": t.get("experiments.summary"),
        "output.write_s": t.get("output.write"),
        "output.bytes": n.get("output.bytes"),
        "output.replay_mismatch": n.get("output.replay_mismatch", 0),
    }
    for layer, secs in tr.layer_self().items():
        m[f"{layer}.self_s"] = secs
    return m


def median_metrics(passes: list) -> dict:
    keys = {k for p in passes for k, v in p.items() if v is not None}
    return {k: statistics.median(p[k] for p in passes
                                 if p.get(k) is not None)
            for k in sorted(keys)}
