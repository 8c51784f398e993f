"""The traced run: spans around the calls into each layer of the package.

Spans (name, start, end, parent) are kept in memory in flat arrays and
written out as one gzipped CSV when the run ends.  ``sim._run`` calls private
kernels that cannot be wrapped from outside, so the per-step phases come from
replaying the same trials through the public API (``select``,
``noise_for_size`` + ``sample_observation``, ``bayes_update_*``,
``max_mass``/``argmax``) and checking that the replay reaches the same
stopping time and estimate as ``run_episode``.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import math
import statistics
import time
from array import array
from bisect import bisect_right

import numpy as np

import checks
import workloads as W
from hostspeed import HostClock
from noisysearch import (
    PosteriorDense,
    PosteriorPartition,
    StrategyKind,
    bayes_update_dense,
    bayes_update_partition,
    noise_for_size,
    run_episode,
    run_monte_carlo,
    sample_observation,
    select,
    tau_upper_bound,
    trial_rng,
)
from noisysearch.cli import execute, parse_args

# Replayed trials per round, per (strategy, L): about 0.1-0.3 s of replay each.
TRACE_TRIALS = {
    "median.L12": 6, "dya.L12": 24, "hie.L12": 24,
    "median.L20": 3, "dya.L20": 16, "hie.L20": 16,
    "sort.L12": 8, "sort.L16": 2,
}
TRACE_FL_TRIALS = 200
# Share of sort trials whose replay may differ from the engine: a near-tie at
# the sorted cut can flip once the engine leaves the dense path.
SORT_MISMATCH_SHARE = 0.01
STEP_CAP = 10**5


class Tracer:
    """Spans in flat arrays; a span's parent is the innermost open span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(math.nan)
        self._open.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def finish(self, sid: int) -> float:
        t = time.perf_counter()
        self.end[sid] = t
        self._open.pop()
        return t - self.start[sid]

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield sid
        finally:
            self.finish(sid)

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (span count, total seconds)."""
        count = [0] * len(self.names)
        total = [0.0] * len(self.names)
        for nid, a, b in zip(self.name, self.start, self.end):
            count[nid] += 1
            total[nid] += b - a
        return {n: (count[i], total[i]) for i, n in enumerate(self.names)}

    def write(self, path) -> None:
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("span,parent,name,start_us,end_us\n")
            for sid, (nid, par, a, b) in enumerate(zip(self.name, self.parent, self.start, self.end)):
                fh.write(f"{sid},{par},{self.names[nid]},{(a - t0) * 1e6:.3f},{(b - t0) * 1e6:.3f}\n")


def dense_runs(mass: np.ndarray) -> int:
    """Maximal runs of equal mass: the intervals a partition would need."""
    return int(np.count_nonzero(mass[1:] != mass[:-1])) + 1


def replay(tr: Tracer, config, rng, label: str) -> tuple[int, int, list[int]]:
    """One episode through the public API; returns (tau, estimate, intervals per step)."""
    n = config.n_bins
    kind = config.strategy
    profile = config.profile
    dense = kind is StrategyKind.SORT_PM
    threshold = 1.0 - config.stopping.epsilon
    truth = int(rng.integers(1, n + 1))
    post = PosteriorDense.uniform(n) if dense else PosteriorPartition.uniform(n)
    update = bayes_update_dense if dense else bayes_update_partition
    names = [f"{layer}.{label}" for layer in ("select", "observe", "update", "stop")]
    counts = []
    for t in range(1, STEP_CAP + 1):
        s = tr.begin(names[0])
        q = select(kind, post)
        tr.finish(s)
        runs = q.runs
        j = bisect_right(runs, (truth, math.inf)) - 1
        member = j >= 0 and runs[j][0] <= truth <= runs[j][1]
        frac = q.size_fraction(n)
        s = tr.begin(names[1])
        noise_for_size(profile, frac)
        y = sample_observation(profile, member, frac, rng)
        tr.finish(s)
        s = tr.begin(names[2])
        post = update(post, q, y, profile)
        tr.finish(s)
        s = tr.begin(names[3])
        peak = post.max_mass
        estimate = post.argmax
        tr.finish(s)
        counts.append(dense_runs(post.mass) if dense else post.n_intervals)
        if peak > threshold:
            return t, estimate, counts
    raise RuntimeError(f"{label}: replay exceeded {STEP_CAP} steps")


class TraceStats:
    """Counts recorded next to the spans, pooled over the run's rounds."""

    def __init__(self) -> None:
        self.untraced_s = 0.0
        self.traced_engine_s = 0.0
        self.taus = {t: 0 for t in TRACE_TRIALS}
        self.ops = {t: 0 for t in TRACE_TRIALS}
        self.episodes = {t: 0 for t in TRACE_TRIALS}
        self.steps = {t: 0 for t in TRACE_TRIALS}
        self.intervals = {t: 0 for t in TRACE_TRIALS}
        # (tau, estimate) per trial, from run_episode and from the replay
        self.engine: dict[str, list] = {t: [] for t in TRACE_TRIALS}
        self.replayed: dict[str, list] = {t: [] for t in TRACE_TRIALS}


def trace_config(tr: Tracer, st: TraceStats, config, label: str) -> list[str]:
    k = TRACE_TRIALS[label]
    problems: list[str] = []
    with tr.span(f"config.{label}"):
        t0 = time.perf_counter()
        with tr.span(f"sim.run_monte_carlo.{label}"):
            summary = run_monte_carlo(config, k, workers=1)
        t1 = time.perf_counter()
        engine = []
        errors = 0
        for i in range(k):
            with tr.span(f"sim.run_episode.{label}"):
                rec = run_episode(config, trial_rng(config.seed, i))
            engine.append((rec.tau, rec.estimate))
            errors += not rec.correct
            st.ops[label] += rec.ops
        t2 = time.perf_counter()
        for i in range(k):
            with tr.span(f"replay.{label}"):
                tau, est, counts = replay(tr, config, trial_rng(config.seed, i), label)
            st.replayed[label].append((tau, est))
            st.steps[label] += tau
            st.intervals[label] += sum(counts)
            if config.strategy is not StrategyKind.SORT_PM:
                problems += checks.partition_bound(counts, f"{label} trial {i}")
    st.untraced_s += t1 - t0
    st.traced_engine_s += t2 - t1
    st.episodes[label] += k
    st.taus[label] += sum(tau for tau, _ in engine)
    st.engine[label] += engine
    problems += checks.estimates_in_range([e for _, e in engine], config.n_bins, label)
    problems += checks.summary_matches_episodes(
        summary.errors, summary.mean_tau, errors, [t for t, _ in engine], label)
    return problems


def trace_cli(tr: Tracer, seed: int) -> tuple[list[str], float, float]:
    """Each strategy's sweep through parse_args + execute, serial then on two
    workers; returns (problems, serial seconds, pooled seconds)."""
    problems: list[str] = []
    serial = pooled = 0.0
    for kind in W.FL_STRATEGIES:
        outputs = []
        for workers in (1, W.FL_WORKERS):
            out = W.fl_out(kind, f".trace.w{workers}")
            argv = W.fl_argv(kind, seed, out, workers=workers, trials=TRACE_FL_TRIALS)
            with tr.span(f"cli.main.{kind}.w{workers}"):
                with tr.span("cli.parse_args"):
                    manifest = parse_args(argv)
                s = tr.begin(f"cli.execute.w{workers}")
                with contextlib.redirect_stdout(io.StringIO()):
                    status = execute(manifest)
                dt = tr.finish(s)
            problems += checks.equal(status, 0, f"{kind} workers={workers} exit status")
            outputs.append(out.read_bytes())
            if workers == 1:
                serial += dt
            else:
                pooled += dt
        problems += checks.equal(outputs[0], outputs[1],
                                 f"{kind}: sweep bytes, workers 1 vs {W.FL_WORKERS}")
    return problems, serial, pooled


def run_traced(workload: str, seed: int, seconds: float) -> tuple[dict, int, list[str]]:
    """Whole rounds of the traced sample until `seconds` have passed.

    Returns (per-layer metrics, operations attempted, problems)."""
    tr = Tracer()
    st = TraceStats()
    problems: list[str] = []
    serial = pooled = 0.0
    attempted = 0
    specs = W.VL_CONNECTED + W.VL_SORT
    deadline = time.perf_counter() + seconds
    r = 0
    while r == 0 or time.perf_counter() < deadline:
        with tr.span("round"):
            for (config, _), (kind, L, _) in zip(W.vl_inputs(specs, seed, r), specs):
                problems += trace_config(tr, st, config, W.tag(kind, L))
                attempted += 2 * TRACE_TRIALS[W.tag(kind, L)]
            for kind in ("sort", "dya", "hie"):
                with tr.span(f"theory.tau_upper_bound.{kind}"):
                    tau_upper_bound(StrategyKind(kind), W.PROFILE, 2.0**-W.FL_L, W.EPS, W.ALPHA)
            p, s, q = trace_cli(tr, W.input_seed(seed, r))
            problems += p
            serial += s
            pooled += q
            attempted += 2 * len(W.FL_STRATEGIES)
        r += 1
    for label in TRACE_TRIALS:
        allowed = math.floor(SORT_MISMATCH_SHARE * st.episodes[label]) if label.startswith("sort") else 0
        problems += checks.replay_agrees(st.engine[label], st.replayed[label], allowed, label)
    W.RESULTS.mkdir(parents=True, exist_ok=True)
    tr.write(W.RESULTS / f"{workload}.seed{seed}.trace.csv.gz")
    clock = HostClock("python")
    for _ in range(9):
        clock.read()
    host_ref_s = statistics.median(clock.readings)
    return layer_metrics(tr.totals(), st, serial, pooled, host_ref_s), attempted, problems


def _mean_us(totals, name: str) -> float:
    count, total = totals[name]
    return total / count * 1e6


def layer_metrics(totals, st: TraceStats, serial: float, pooled: float, host_ref_s: float) -> dict:
    m: dict[str, tuple[float, str]] = {}
    replay_steps_s = engine_s = 0.0
    for label in TRACE_TRIALS:
        episode_us = _mean_us(totals, f"sim.run_episode.{label}")
        m[f"sim.episode_us.{label}"] = (episode_us, "us")
        m[f"sim.step_us.{label}"] = (episode_us * st.episodes[label] / st.taus[label], "us")
        m[f"strategies.select_us.{label}"] = (_mean_us(totals, f"select.{label}"), "us")
        m[f"posterior.update_us.{label}"] = (_mean_us(totals, f"update.{label}"), "us")
        m[f"posterior.stop_us.{label}"] = (_mean_us(totals, f"stop.{label}"), "us")
        m[f"posterior.intervals_mean.{label}"] = (st.intervals[label] / st.steps[label], "intervals")
        m[f"posterior.ops_per_episode.{label}"] = (st.ops[label] / st.episodes[label], "count")
        replay_steps_s += sum(totals[f"{p}.{label}"][1] for p in ("select", "observe", "update", "stop"))
        engine_s += totals[f"sim.run_episode.{label}"][1]
    observe = [totals[f"observe.{label}"] for label in TRACE_TRIALS]
    m["sim.pool_efficiency"] = (serial / (W.FL_WORKERS * pooled), "ratio")
    m["channel.observe_us"] = (sum(t for _, t in observe) / sum(c for c, _ in observe) * 1e6, "us")
    m["cli.parse_ms"] = (_mean_us(totals, "cli.parse_args") / 1e3, "ms")
    m["cli.execute_ms"] = (_mean_us(totals, f"cli.execute.w{W.FL_WORKERS}") / 1e3, "ms")
    for kind in ("sort", "dya", "hie"):
        m[f"theory.bound_ms.{kind}"] = (_mean_us(totals, f"theory.tau_upper_bound.{kind}") / 1e3, "ms")
    m["bench.trace_overhead_pct"] = ((st.traced_engine_s / st.untraced_s - 1.0) * 100.0, "%")
    m["bench.replay_ratio"] = (replay_steps_s / engine_s, "ratio")
    m["bench.host_ref_us"] = (host_ref_s * 1e6, "us")
    return m
