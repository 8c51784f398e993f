"""Command-line front end.

Subcommands::

    simulate   Monte Carlo error/stopping-time estimate for one configuration
    sweep      fixed-length error rates over a grid of query budgets
    bounds     closed-form expected-search-time upper bounds
    frontier   achievable rate-reliability segments

Noise profiles are single-token flags (``affine:0.1:0.5``, ``constant:0.3``)
so they compose with shell scripting.  A JSON config file (``--config``) can
supply any long flag; explicit flags win.  Outputs are CSV (default) or JSON
and are byte-identical across runs with the same manifest, including under
different ``--workers`` values.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TextIO

from .channel import AffineNoise, ConstantNoise, NoiseProfile, _check_informative, _coefficients
from .errors import NoisySearchError
from .sim import (
    STEP_CAP,
    FixedLength,
    MonteCarloSummary,
    SearchConfig,
    VariableLength,
    _check_run,
    episode_final_posterior,
    run_monte_carlo,
    sweep_error_vs_queries,
)
from .strategies import StrategyKind
from .theory import FrontierClass, rate_reliability_frontier, tau_upper_bound

__all__ = ["RunManifest", "parse_args", "execute", "main"]

_STRATEGY_NAMES = tuple(k.value for k in StrategyKind)
_BOUND_STRATEGY_NAMES = ("sort", "dya", "hie")
# float64 holds bin counts up to 2**53 exactly; no CLI path does 2**L work
_MAX_L = 53
_DEFAULT_ALPHA = 2.0**-6


@dataclass(frozen=True)
class RunManifest:
    """A fully-resolved CLI invocation; serializes losslessly to JSON."""

    subcommand: str
    noise: str
    out: str
    strategy: Optional[str] = None
    L: Optional[int] = None
    fl: Optional[int] = None
    vl: Optional[float] = None
    n_spec: Optional[str] = None
    alpha: Optional[float] = None
    trials: int = 1000
    seed: int = 0
    workers: int = 1
    format: str = "csv"
    dump_partition: Optional[str] = None

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls(**json.loads(text))


def parse_noise(spec: str) -> NoiseProfile:
    """Parse the ``affine:a:b`` / ``constant:p`` flag grammar."""
    parts = spec.split(":")
    try:
        if parts[0] == "affine" and len(parts) == 3:
            return AffineNoise(a=float(parts[1]), b=float(parts[2]))
        if parts[0] == "constant" and len(parts) == 2:
            return ConstantNoise(p=float(parts[1]))
    except ValueError as exc:
        raise ValueError(f"bad noise spec {spec!r}: {exc}") from exc
    raise ValueError(f"bad noise spec {spec!r}; expected affine:A:B or constant:P")


def parse_n_values(spec: str) -> list[int]:
    """``lo:hi:step`` (inclusive range), comma list, or a single integer, all in 1..STEP_CAP."""
    sep = ":" if ":" in spec else ","
    try:
        values = [int(x) for x in spec.split(sep)]
    except ValueError:
        values = None
    if values is None or (sep == ":" and len(values) != 3):
        raise ValueError(f"bad --n spec {spec!r}; expected LO:HI:STEP, N,N,... or N (integers)")
    if sep == ":":
        lo, hi, step = values
        if step < 1 or not (1 <= lo <= hi <= STEP_CAP):
            raise ValueError(f"bad --n range {spec!r}; expected LO:HI:STEP with STEP >= 1 "
                             f"and 1 <= LO <= HI <= {STEP_CAP}")
        return list(range(lo, hi + 1, step))
    if not all(1 <= v <= STEP_CAP for v in values):
        raise ValueError(f"budgets must be in 1..{STEP_CAP}, got {spec!r}")
    return values


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr, exit status 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache  # parse_args and _plan both read it; neither changes it
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(
        prog="noisysearch",
        description="Sequential target search under size-dependent measurement noise.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, with_strategy: bool, strategy_choices) -> None:
        if with_strategy:
            p.add_argument("--strategy", choices=strategy_choices, default=None)
        p.add_argument("--noise", default=None, help="affine:A:B or constant:P")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--config", default=None, help="JSON file with flag defaults")

    sim = sub.add_parser("simulate", help="Monte Carlo run of one configuration")
    add_common(sim, True, _STRATEGY_NAMES)
    sim.add_argument("--L", type=int, default=None, help="resolution exponent (2**L bins)")
    sim.add_argument("--fl", type=int, default=None, help="fixed-length stop after N queries")
    sim.add_argument("--vl", type=float, default=None, help="variable-length threshold epsilon")
    sim.add_argument("--trials", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--workers", type=int, default=None)
    sim.add_argument("--dump-partition", default=None, metavar="PATH",
                     help="also dump trial 0's final posterior partition as CSV")

    swp = sub.add_parser("sweep", help="fixed-length error curve over query budgets")
    add_common(swp, True, _STRATEGY_NAMES)
    swp.add_argument("--L", type=int, default=None)
    swp.add_argument("--n", dest="n_spec", default=None, help="budgets: LO:HI:STEP or comma list")
    swp.add_argument("--trials", type=int, default=None)
    swp.add_argument("--seed", type=int, default=None)
    swp.add_argument("--workers", type=int, default=None)

    bnd = sub.add_parser("bounds", help="expected-search-time upper bounds")
    add_common(bnd, True, _BOUND_STRATEGY_NAMES)
    bnd.add_argument("--L", type=int, default=None, help="resolution exponent (delta = 2**-L)")
    bnd.add_argument("--vl", type=float, default=None, help="reliability target epsilon")
    bnd.add_argument("--alpha", type=float, default=None,
                     help="query-fraction scale (default 2**-6)")

    fro = sub.add_parser("frontier", help="achievable rate-reliability segments")
    add_common(fro, False, None)

    return parser, sub.choices


def _flag_value(action: argparse.Action, val) -> None:
    """Refuse ``val`` unless it has the type of the flag ``action`` parses
    ("12" is not an int) and is one of the flag's choices."""
    typ = action.type or str
    allowed = (int, float) if typ is float else typ
    if isinstance(val, bool) or not isinstance(val, allowed) or (
        action.choices is not None and val not in action.choices
    ):
        raise TypeError(
            f"value {action.dest!r}: {val!r} is not valid for {action.option_strings[0]}"
        )


def _option(dest: str) -> str:
    """The option string of the flag that sets the manifest field ``dest``."""
    for subparser in _build_parser()[1].values():
        for action in subparser._actions:
            if action.dest == dest:
                return action.option_strings[0]
    raise KeyError(dest)


def parse_args(argv: Sequence[str]) -> RunManifest:
    """Parse and validate argv into a manifest; config-file values fill any
    flag not given explicitly, then ``NS_WORKERS`` fills ``--workers``."""
    parser, subparsers = _build_parser()
    values = vars(parser.parse_args(list(argv)))

    config_path = values.pop("config", None)
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                overrides = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config file {config_path!r}: {exc}")
        if not isinstance(overrides, dict):
            parser.error(f"config file {config_path!r} must hold a JSON object")
        flags = {a.dest for a in subparsers[values["subcommand"]]._actions}
        for key, val in overrides.items():  # _plan checks the values
            if key not in values or key not in flags:
                parser.error(f"config file key {key!r} is not a flag of {values['subcommand']}")
            if values[key] is None:
                values[key] = val

    env = os.environ.get("NS_WORKERS")
    if env is not None and "workers" in values and values["workers"] is None:
        try:
            values["workers"] = int(env)
        except ValueError:
            parser.error(f"NS_WORKERS: invalid int value: {env!r}")

    fields = {f.name for f in dataclasses.fields(RunManifest)}
    given = {k: v for k, v in values.items() if k in fields and v is not None}
    manifest = RunManifest(**{"noise": None, "out": None, **given})  # _plan names a missing one
    try:
        _plan(manifest)
    except (ValueError, TypeError) as exc:
        parser.error(str(exc))
    return manifest


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows(fh: TextIO, fmt: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        fh.write(json.dumps(payload, indent=2) + "\n")
        return
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])


_SIM_HEADER = (
    "strategy", "L", "noise_a", "noise_b", "stopping", "param", "trials",
    "error_rate", "error_lo", "error_hi", "mean_tau", "empirical_rate",
    "empirical_reliability", "seed",
)


def _summary_row(
    manifest: RunManifest, profile: NoiseProfile, stopping: str, param, summary: MonteCarloSummary
) -> tuple:
    a, b = _coefficients(profile)
    return (
        manifest.strategy, manifest.L, a, b, stopping, param, summary.trials,
        summary.error_rate, summary.error_lo, summary.error_hi, summary.mean_tau,
        summary.empirical_rate, summary.empirical_reliability, manifest.seed,
    )


def _print_summary(summary: MonteCarloSummary) -> None:
    print(
        f"error_rate={summary.error_rate:.6g} "
        f"ci95=[{summary.error_lo:.6g},{summary.error_hi:.6g}] "
        f"mean_tau={summary.mean_tau:.6g}"
    )


def _plan(m: RunManifest) -> Callable[[TextIO, Optional[TextIO]], None]:
    """Check a manifest and return the job that runs it, writing ``out`` and,
    with ``--dump-partition``, ``dump``.  A bad manifest raises ValueError or
    TypeError with a one-line reason."""
    sub = m.subcommand
    subparsers = _build_parser()[1]
    if sub not in subparsers:
        raise ValueError(f"unknown subcommand {sub!r}")
    actions = {a.dest: a for a in subparsers[sub]._actions}
    for field in dataclasses.fields(RunManifest):
        val = getattr(m, field.name)
        if field.name in actions:  # None stands for a flag not given, if it has no default
            if val is not None or field.default not in (None, dataclasses.MISSING):
                _flag_value(actions[field.name], val)
        elif field.name != "subcommand" and val != field.default:
            raise ValueError(f"{sub} takes no {_option(field.name)}")

    def require(field: str) -> None:
        if getattr(m, field) is None:
            raise ValueError(f"{sub} requires {_option(field)}")

    require("noise")
    require("out")
    profile = parse_noise(m.noise)
    _check_informative(profile)

    if sub == "frontier":
        def frontier(out: TextIO, dump: Optional[TextIO]) -> None:
            rows = [(cls.value, r, e) for cls in FrontierClass
                    for r, e in rate_reliability_frontier(profile, cls)]
            _write_rows(out, m.format, ("class", "R", "E"), rows)
            print(f"wrote {len(rows)} frontier points to {m.out}")
        return frontier

    require("L")
    if not (1 <= m.L <= _MAX_L):
        raise ValueError(f"--L must be in 1..{_MAX_L}, got {m.L}")

    if sub == "bounds":
        require("vl")
        alpha = _DEFAULT_ALPHA if m.alpha is None else m.alpha
        # built here so that tau_upper_bound's checks of --vl and --alpha run
        # before the job opens --out
        reports = [
            tau_upper_bound(StrategyKind(name), profile, 2.0 ** -m.L, m.vl, alpha)
            for name in ([m.strategy] if m.strategy else _BOUND_STRATEGY_NAMES)
        ]

        def bounds(out: TextIO, dump: Optional[TextIO]) -> None:
            header = (
                "strategy", "delta", "epsilon", "alpha", "K", "rate_term",
                "reliability_term", "residual", "tau_upper",
            )
            rows = [
                (rep.strategy.value, rep.delta, rep.epsilon, rep.alpha, rep.constant,
                 rep.rate_term, rep.reliability_term, rep.residual, rep.tau_upper)
                for rep in reports
            ]
            _write_rows(out, m.format, header, rows)
            print(f"wrote {len(rows)} bound reports to {m.out}")
        return bounds

    require("strategy")
    search = functools.partial(SearchConfig, L=m.L, strategy=StrategyKind(m.strategy),
                               profile=profile, seed=m.seed)

    if sub == "sweep":
        require("n_spec")
        budgets = parse_n_values(m.n_spec)
        config = search(stopping=FixedLength(max(budgets)))
        _check_run(config, m.trials, m.workers)

        def sweep(out: TextIO, dump: Optional[TextIO]) -> None:
            results = sweep_error_vs_queries(config, budgets, m.trials, workers=m.workers)
            rows = [_summary_row(m, profile, "fl", n, summary) for n, summary in results]
            _write_rows(out, m.format, _SIM_HEADER, rows)
            print(f"wrote {len(rows)} budgets; at n={results[-1][0]}: ", end="")
            _print_summary(results[-1][1])
        return sweep

    if (m.fl is None) == (m.vl is None):
        raise ValueError("simulate requires exactly one of --fl or --vl")
    kind, param = ("fl", m.fl) if m.fl is not None else ("vl", m.vl)
    try:  # the stopping rule checks its own parameter
        config = search(stopping=FixedLength(m.fl) if kind == "fl" else VariableLength(m.vl))
    except ValueError as exc:
        raise ValueError(f"--{kind}: {exc}") from None
    _check_run(config, m.trials, m.workers)
    if m.dump_partition is not None:
        if m.strategy == "sort":
            raise ValueError("--dump-partition needs a connected-geometry strategy")
        if os.path.realpath(m.dump_partition) == os.path.realpath(m.out):
            raise ValueError("--dump-partition must name a file other than --out")

    def simulate(out: TextIO, dump: Optional[TextIO]) -> None:
        summary = run_monte_carlo(config, m.trials, workers=m.workers)
        _write_rows(out, m.format, _SIM_HEADER, [_summary_row(m, profile, kind, param, summary)])
        if dump is not None:
            post = episode_final_posterior(config)
            _write_rows(dump, "csv", ("lo", "hi", "mass"), post.intervals)
        _print_summary(summary)
    return simulate


def execute(manifest: RunManifest) -> int:
    """Check and run the manifest; returns the process exit status."""
    try:
        job = _plan(manifest)
    except (ValueError, TypeError) as exc:
        print(f"noisysearch: error: {exc}", file=sys.stderr)
        return 2
    try:
        # opened before any computation, so an unwritable path costs no run
        with open(manifest.out, "w", encoding="utf-8", newline="") as out, (
            open(manifest.dump_partition, "w", encoding="utf-8", newline="")
            if manifest.dump_partition is not None
            else contextlib.nullcontext()
        ) as dump:
            job(out, dump)
    except OSError as exc:
        print(f"noisysearch: i/o error: {exc}", file=sys.stderr)
        return 2
    except (NoisySearchError, AssertionError) as exc:
        print(f"noisysearch: internal error: {exc}", file=sys.stderr)
        return 3
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    return execute(parse_args(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    sys.exit(main())
