"""The benchmark's workloads: their inputs, built from the seed, and one round
of each.

Importing this module imports the package under test, so ``run.py`` puts the
checkout's ``src`` on ``sys.path`` first.  Set-up probes import it in a fresh
interpreter and call :func:`build_inputs`.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from noisysearch import (
    AffineNoise,
    SearchConfig,
    StrategyKind,
    VariableLength,
)
from noisysearch.cli import parse_args

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

NOISE = "affine:0.1:0.5"
PROFILE = AffineNoise(0.1, 0.5)
P0 = 0.1  # p(0) of the profile: the crossover of the smallest queries
EPS = 1e-3
ALPHA = 2.0**-5  # query-fraction scale of the assembled search-time bounds

# (strategy, L, episodes per slot).  Episode counts balance a slot's time
# between the long median episodes and the short dyadic ones.
VL_CONNECTED = (
    ("median", 12, 8), ("dya", 12, 32), ("hie", 12, 32),
    ("median", 20, 4), ("dya", 20, 24), ("hie", 20, 24),
)
VL_SORT = (("sort", 12, 16), ("sort", 16, 4))
# A variable-length run's inputs are this many slots, each with its own seed;
# a pass runs every slot once.  One slot is too small a sample of stopping
# times: its work varies by about 7% from seed to seed.
VL_SLOTS = 24

FL_STRATEGIES = ("median", "sort", "dya", "hie")
FL_L = 12
FL_BUDGETS = tuple(range(10, 61, 5))
FL_N_SPEC = "10:60:5"
FL_TRIALS = 300
FL_WORKERS = 2


def input_seed(seed: int, slot: int = 0) -> int:
    """The package's seed for one slot (or traced round) of the run seeded
    with `seed`; 63 bits, so every tool that takes it as a signed integer
    accepts it."""
    return int(np.random.SeedSequence([seed, slot]).generate_state(1, np.uint64)[0] >> 1)


def tag(kind: str, L: int) -> str:
    return f"{kind}.L{L}"


def vl_inputs(spec, seed: int, slot: int) -> list[tuple[SearchConfig, int]]:
    s = input_seed(seed, slot)
    return [
        (SearchConfig(L=L, strategy=StrategyKind(kind), profile=PROFILE,
                      stopping=VariableLength(EPS), seed=s), k)
        for kind, L, k in spec
    ]


def fl_argv(kind: str, seed: int, out: Path, workers: int = FL_WORKERS,
            trials: int = FL_TRIALS) -> list[str]:
    return [
        "sweep", "--strategy", kind, "--L", str(FL_L), "--noise", NOISE,
        "--n", FL_N_SPEC, "--trials", str(trials), "--seed", str(seed),
        "--workers", str(workers), "--out", str(out),
    ]


def fl_out(kind: str, suffix: str = "") -> Path:
    return RESULTS / "fl" / f"{kind}{suffix}.csv"


def build_inputs(workload: str, seed: int):
    """The inputs of a timed run: per slot, (config, episodes) for a
    variable-length workload; the CLI manifests for the sweep."""
    if workload == "vl-connected":
        return [vl_inputs(VL_CONNECTED, seed, s) for s in range(VL_SLOTS)]
    if workload == "vl-sort":
        return [vl_inputs(VL_SORT, seed, s) for s in range(VL_SLOTS)]
    if workload == "fl-sweep-cli":
        return [parse_args(fl_argv(k, input_seed(seed), fl_out(k))) for k in FL_STRATEGIES]
    raise ValueError(f"unknown workload {workload!r}")


def trace_tags() -> list[str]:
    return [tag(kind, L) for kind, L, _ in VL_CONNECTED + VL_SORT]


END_TO_END = ("episodes_per_s", "steps_per_s", "wall_s", "setup_s", "peak_rss_mb", "mean_tau")

# per-layer metric (prefix, unit, better) taken once per (strategy, L)
PER_CONFIG_LAYER = (
    ("sim.episode_us", "us", "lower"),
    ("sim.step_us", "us", "lower"),
    ("strategies.select_us", "us", "lower"),
    ("posterior.update_us", "us", "lower"),
    ("posterior.stop_us", "us", "lower"),
    ("posterior.intervals_mean", "intervals", "lower"),
    ("posterior.ops_per_episode", "count", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric the traced run reports."""
    out = [(f"{m}.{t}", unit, better) for t in trace_tags() for m, unit, better in PER_CONFIG_LAYER]
    out += [
        ("sim.pool_efficiency", "ratio", "higher"),
        ("channel.observe_us", "us", "lower"),
        ("cli.parse_ms", "ms", "lower"),
        ("cli.execute_ms", "ms", "lower"),
    ]
    out += [(f"theory.bound_ms.{k}", "ms", "lower") for k in ("sort", "dya", "hie")]
    out += [
        ("bench.trace_overhead_pct", "%", "lower"),
        ("bench.replay_ratio", "ratio", "lower"),
        ("bench.host_ref_us", "us", "lower"),
    ]
    return out
