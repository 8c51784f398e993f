"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the workload's inputs from the seed,
runs whole rounds of it until S seconds have passed, checks the outputs, and
prints one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run is the separate
traced run and the metrics are the per-layer ones.  The result is also
written to ``perfbench/results/`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostClock, Timings

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("vl-connected", "vl-sort", "fl-sweep-cli")
SETUP_PROBES = 9
# Passes (variable-length) and rounds (sweep) every timed run completes,
# however long it takes.  Every pass or round of a run repeats the same
# seed-built inputs, so repeats differ only in how fast the host ran them.
MIN_PASSES = 3
MIN_FL_ROUNDS = 3
FL_PREFIX_CHECK = 20


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)])
    env.pop("NS_WORKERS", None)
    return env


class SetupProbes:
    """Times a fresh interpreter importing the package and building the
    workload's inputs.  The probes are spread over the timed phase, between
    rounds, so that their median does not hang on one busy moment."""

    CODE = "import sys, workloads; workloads.build_inputs(sys.argv[1], int(sys.argv[2]))"

    def __init__(self, clock: HostClock, workload: str, seed: int, seconds: float) -> None:
        self.args = [sys.executable, "-c", self.CODE, workload, str(seed)]
        self.every = seconds / SETUP_PROBES
        self.due = time.perf_counter()
        self.timings = Timings(clock)

    def probe(self) -> None:
        self.timings.time(subprocess.run, self.args, cwd=ROOT, env=program_env(), check=True,
                          stdout=subprocess.DEVNULL)

    def between_rounds(self) -> None:
        if len(self.timings.raw) < SETUP_PROBES and time.perf_counter() >= self.due:
            self.probe()
            self.due += self.every

    def finish(self) -> Timings:
        while len(self.timings.raw) < SETUP_PROBES:
            self.probe()
        return self.timings


def run_vl(workload: str, seed: int, seconds: float):
    import checks
    import workloads as W
    from noisysearch import StrategyKind, run_episode, run_monte_carlo, tau_upper_bound, trial_rng

    spec = W.VL_CONNECTED if workload == "vl-connected" else W.VL_SORT
    clock = HostClock("python" if workload == "vl-connected" else "numpy")
    setup = SetupProbes(clock, workload, seed, seconds)
    slots = W.build_inputs(workload, seed)
    per_slot = sum(k for _, _, k in spec)
    # one timed call per (slot, config), repeated once per pass
    timings = [[Timings(clock) for _ in inputs] for inputs in slots]
    summaries: list[list] = [[None] * len(spec) for _ in slots]
    passes = attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        for i, inputs in enumerate(slots):
            setup.between_rounds()
            for j, (config, k) in enumerate(inputs):
                try:
                    result = timings[i][j].time(run_monte_carlo, config, k, workers=1)
                except Exception as exc:  # counted as failed; the run goes on
                    print(f"perfbench: {workload}: {exc!r}", file=sys.stderr)
                    failed += k
                    continue
                if passes == 0:
                    summaries[i][j] = result
        passes += 1
        attempted += per_slot * len(slots)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    steps = 0
    for j, (kind, L, k) in enumerate(spec):
        label = W.tag(kind, L)
        done = [slot[j] for slot in summaries if slot[j] is not None]
        if not done:
            continue
        tau_sum = sum(round(s.mean_tau * k) for s in done)
        steps += tau_sum
        problems += checks.error_rate_within(sum(s.errors for s in done), k * len(done), W.EPS, label)
        upper = None
        if kind != "median":
            upper = tau_upper_bound(StrategyKind(kind), W.PROFILE, 2.0**-L, W.EPS, W.ALPHA).tau_upper
        problems += checks.mean_tau_within(tau_sum / (k * len(done)),
                                           checks.converse_tau(L, W.EPS, W.P0), upper, label)
        config, s = slots[0][j][0], summaries[0][j]
        if s is None:
            continue
        recs = [run_episode(config, trial_rng(config.seed, t)) for t in range(k)]
        problems += checks.estimates_in_range([x.estimate for x in recs], config.n_bins, label)
        problems += checks.summary_matches_episodes(
            s.errors, s.mean_tau, sum(not x.correct for x in recs), [x.tau for x in recs], label)
    calls = [t for slot in timings for t in slot if t.raw]
    # a pass's time: the sum over its calls of each call's median
    wall_s = sum(t.median() for t in calls)
    episodes = per_slot * len(slots)
    setup_t = setup.finish()
    metrics = {
        "episodes_per_s": (episodes / wall_s, "episodes/s"),
        "steps_per_s": (steps / wall_s, "queries/s"),
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_t.median(), "s"),
        "peak_rss_mb": (peak_rss, "MiB"),
        "mean_tau": (steps / episodes, "queries"),
    }
    raw = {"wall_s": sum(t.raw_median() for t in calls), "setup_s": setup_t.raw_median(),
           "ref_loop_ms": statistics.median(clock.readings) * 1e3,
           "passes": passes}
    return metrics, attempted, failed, problems, raw


def run_cli(argv: list[str], stderr_path: Path) -> tuple[int, float]:
    """One CLI process, from its start to its exit.  Returns (exit status,
    peak RSS in MiB of it and the workers it waited for)."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "noisysearch.cli", *argv], cwd=ROOT,
                                env=program_env(), stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_fl(seed: int, seconds: float):
    import checks
    import workloads as W
    from noisysearch import FixedLength, SearchConfig, StrategyKind, run_monte_carlo

    clock = HostClock("python")
    setup = SetupProbes(clock, "fl-sweep-cli", seed, seconds)
    (W.RESULTS / "fl").mkdir(parents=True, exist_ok=True)
    seed0 = W.input_seed(seed)
    timings = {kind: Timings(clock) for kind in W.FL_STRATEGIES}
    outputs: dict[str, bytes] = {}
    peak_rss = 0.0
    attempted = failed = 0
    problems: list[str] = []
    deadline = time.perf_counter() + seconds
    r = 0
    while r < MIN_FL_ROUNDS or time.perf_counter() < deadline:
        setup.between_rounds()
        for kind in W.FL_STRATEGIES:
            out = W.fl_out(kind)
            status, rss = timings[kind].time(run_cli, W.fl_argv(kind, seed0, out),
                                             W.RESULTS / "fl" / f"{kind}.stderr")
            attempted += 1
            peak_rss = max(peak_rss, rss)
            if status != 0:
                failed += 1
                print(f"perfbench: round {r} {kind}: exit status {status}", file=sys.stderr)
                continue
            data = out.read_bytes()
            problems += checks.equal(data, outputs.setdefault(kind, data),
                                     f"{kind}: round {r} output vs the first round's")
        r += 1

    curves = {}
    for kind, data in outputs.items():
        rows = list(csv.DictReader(data.decode().splitlines()))
        incomplete = checks.sweep_rows_complete(rows, W.FL_BUDGETS, W.FL_TRIALS, kind)
        problems += incomplete
        if incomplete:
            continue
        curves[kind] = checks.curve(rows, W.FL_TRIALS)
        problems += checks.above_fano(curves[kind], W.FL_TRIALS, (10, 20), W.FL_L, W.P0, kind)
        if kind != "median":
            problems += checks.non_increasing_after(curves[kind], W.FL_TRIALS, 20, kind)
        # a length-n episode is a prefix of the longer one
        config = SearchConfig(L=W.FL_L, strategy=StrategyKind(kind), profile=W.PROFILE,
                              stopping=FixedLength(FL_PREFIX_CHECK), seed=seed0)
        alone = run_monte_carlo(config, W.FL_TRIALS, workers=1)
        problems += checks.equal(curves[kind][FL_PREFIX_CHECK], alone.errors,
                                 f"{kind}: sweep errors at n={FL_PREFIX_CHECK} vs a fixed-length run")
    if len(curves) == len(W.FL_STRATEGIES):
        problems += checks.median_dominated(curves, 30)
    if "dya" in outputs:
        out = W.fl_out("dya", ".w1")
        status, _ = run_cli(W.fl_argv("dya", seed0, out, workers=1), W.RESULTS / "fl" / "dya.w1.stderr")
        problems += checks.equal(status, 0, "dya workers=1 exit status")
        problems += checks.equal(out.read_bytes() if status == 0 else b"", outputs["dya"],
                                 f"dya: sweep bytes, workers 1 vs {W.FL_WORKERS}")
    # a round's time: the sum over strategies of each CLI process's median
    wall_s = sum(t.median() for t in timings.values())
    episodes = len(W.FL_STRATEGIES) * W.FL_TRIALS
    setup_t = setup.finish()
    metrics = {
        "episodes_per_s": (episodes / wall_s, "episodes/s"),
        "steps_per_s": (episodes * max(W.FL_BUDGETS) / wall_s, "queries/s"),
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_t.median(), "s"),
        "peak_rss_mb": (peak_rss, "MiB"),
        # every sweep episode runs to the largest budget
        "mean_tau": (float(max(W.FL_BUDGETS)), "queries"),
    }
    raw = {"wall_s": sum(t.raw_median() for t in timings.values()), "setup_s": setup_t.raw_median(),
           "ref_loop_ms": statistics.median(clock.readings) * 1e3,
           "rounds": r}
    return metrics, attempted, failed, problems, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "noisysearch" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: the package source {package} is missing; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import noisysearch
    import workloads as W

    if Path(noisysearch.__file__).resolve() != package.resolve():
        print(f"perfbench: imported {noisysearch.__file__}, not {package}", file=sys.stderr)
        return 2
    W.RESULTS.mkdir(parents=True, exist_ok=True)
    if args.trace:
        import tracing
        metrics, attempted, problems = tracing.run_traced(args.workload, args.seed, args.seconds)
        failed, raw = 0, {}
    elif args.workload == "fl-sweep-cli":
        metrics, attempted, failed, problems, raw = run_fl(args.seed, args.seconds)
    else:
        metrics, attempted, failed, problems, raw = run_vl(args.workload, args.seed, args.seconds)
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "raw": raw, "result": result}
    name = f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    (W.RESULTS / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
