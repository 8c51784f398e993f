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
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, TextIO

from .channel import AffineNoise, ConstantNoise, NoiseProfile
from .errors import NoisySearchError
from .posterior import PosteriorPartition
from .sim import (
    STEP_CAP,
    FixedLength,
    MonteCarloSummary,
    SearchConfig,
    VariableLength,
    episode_final_posterior,
    run_monte_carlo,
    sweep_error_vs_queries,
)
from .strategies import StrategyKind
from .theory import FrontierClass, rate_reliability_frontier, tau_upper_bound

__all__ = ["RunManifest", "parse_args", "execute", "main"]

_STRATEGY_NAMES = tuple(k.value for k in StrategyKind)
_BOUND_STRATEGY_NAMES = ("sort", "dya", "hie")
_MAX_L = 30
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
    if ":" in spec:
        lo, hi, step = (int(x) for x in spec.split(":"))
        if step < 1 or not (1 <= lo <= hi <= STEP_CAP):
            raise ValueError(f"bad range {spec!r}: need STEP >= 1, 1 <= LO <= HI <= {STEP_CAP}")
        return list(range(lo, hi + 1, step))
    values = [int(x) for x in spec.split(",")]
    if not all(1 <= v <= STEP_CAP for v in values):
        raise ValueError(f"budgets must be in 1..{STEP_CAP}, got {spec!r}")
    return values


def _default_workers() -> int:
    env = os.environ.get("NS_WORKERS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr, exit status 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


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
    bnd.add_argument("--alpha", type=float, default=None, help="query-fraction scale")

    fro = sub.add_parser("frontier", help="achievable rate-reliability segments")
    add_common(fro, False, None)

    return parser, sub.choices


def parse_args(argv: Sequence[str]) -> RunManifest:
    """Parse and validate argv into a manifest; config-file values fill any
    flag not given explicitly."""
    parser, subparsers = _build_parser()
    ns = parser.parse_args(list(argv))
    values = vars(ns)

    config_path = values.pop("config", None)
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config file {config_path!r}: {exc}")
        if not isinstance(overrides, dict):
            parser.error(f"config file {config_path!r} must hold a JSON object")
        actions = {a.dest: a for a in subparsers[ns.subcommand]._actions}
        for key, val in overrides.items():
            if key not in values or key not in actions:
                parser.error(f"config file key {key!r} is not a flag of {ns.subcommand}")
            # a value must already have the flag's type: "12" is not an int
            typ = actions[key].type or str
            allowed = (int, float) if typ is float else typ
            choices = actions[key].choices
            if isinstance(val, bool) or not isinstance(val, allowed) or (
                choices is not None and val not in choices
            ):
                parser.error(f"config file value {key!r}: {val!r} is not valid for --{key}")
            if values[key] is None:
                values[key] = typ(val)

    sub = values["subcommand"]
    defaults = {
        f.name: f.default for f in dataclasses.fields(RunManifest)
        if f.default is not dataclasses.MISSING
    }
    defaults["workers"] = _default_workers()
    if sub == "bounds":
        defaults["alpha"] = _DEFAULT_ALPHA
    for key, val in defaults.items():
        if key in values and values[key] is None:
            values[key] = val

    def require(flag: str) -> None:
        if values.get(flag) is None:
            parser.error(f"{sub} requires --{flag.replace('_', '-')}")

    require("noise")
    require("out")
    try:
        a, b = _noise_columns(parse_noise(values["noise"]))
    except ValueError as exc:
        parser.error(str(exc))
    if not (a + 0.5 * b < 0.5):
        parser.error(f"noise {values['noise']!r} is uninformative: p(1/2) must be < 0.5")

    if sub in ("simulate", "sweep", "bounds"):
        require("L")
        if not (1 <= values["L"] <= _MAX_L):
            parser.error(f"--L must be in 1..{_MAX_L}, got {values['L']}")
    if sub in ("simulate", "sweep"):
        require("strategy")
        if values["trials"] < 1:
            parser.error("--trials must be >= 1")
        if values["workers"] < 1:
            parser.error("--workers must be >= 1")
    if sub == "simulate":
        fl, vl = values["fl"], values["vl"]
        if (fl is None) == (vl is None):
            parser.error("simulate requires exactly one of --fl or --vl")
        try:  # the stopping rule checks its own parameter
            FixedLength(fl) if fl is not None else VariableLength(vl)
        except ValueError as exc:
            parser.error(f"--{'fl' if fl is not None else 'vl'}: {exc}")
        if values["dump_partition"] is not None and values["strategy"] == "sort":
            parser.error("--dump-partition needs a connected-geometry strategy")
    if sub == "sweep":
        require("n_spec")
        try:
            parse_n_values(values["n_spec"])
        except ValueError as exc:
            parser.error(str(exc))
    if sub == "bounds":
        require("vl")
        if not (0.0 < values["vl"] < 1.0):
            parser.error(f"--vl must be in (0, 1), got {values['vl']}")
        if not (0.0 < values["alpha"] <= 0.5):
            parser.error(f"--alpha must be in (0, 0.5], got {values['alpha']}")

    fields = {f.name for f in dataclasses.fields(RunManifest)}
    return RunManifest(**{k: v for k, v in values.items() if k in fields})


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


def _noise_columns(profile: NoiseProfile) -> tuple[float, float]:
    if isinstance(profile, AffineNoise):
        return profile.a, profile.b
    return profile.p, 0.0


def _summary_row(
    manifest: RunManifest, profile: NoiseProfile, stopping: str, param, summary: MonteCarloSummary
) -> tuple:
    a, b = _noise_columns(profile)
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


def _run_manifest(manifest: RunManifest, out: TextIO, dump: Optional[TextIO]) -> None:
    profile = parse_noise(manifest.noise)
    if manifest.subcommand in ("simulate", "sweep"):
        budgets = parse_n_values(manifest.n_spec) if manifest.subcommand == "sweep" else None
        fl = max(budgets) if budgets else manifest.fl
        config = SearchConfig(
            L=manifest.L,
            strategy=StrategyKind(manifest.strategy),
            profile=profile,
            stopping=FixedLength(fl) if fl is not None else VariableLength(manifest.vl),
            seed=manifest.seed,
        )
    if manifest.subcommand == "simulate":
        summary = run_monte_carlo(config, manifest.trials, workers=manifest.workers)
        kind = "fl" if manifest.fl is not None else "vl"
        param = manifest.fl if manifest.fl is not None else manifest.vl
        rows = [_summary_row(manifest, profile, kind, param, summary)]
        _write_rows(out, manifest.format, _SIM_HEADER, rows)
        if manifest.dump_partition is not None:
            post = episode_final_posterior(config)
            if not isinstance(post, PosteriorPartition):
                raise NoisySearchError(
                    "--dump-partition needs a connected-geometry strategy"
                )
            _write_rows(dump, "csv", ("lo", "hi", "mass"), post.intervals)
        _print_summary(summary)
    elif manifest.subcommand == "sweep":
        results = sweep_error_vs_queries(
            config, budgets, manifest.trials, workers=manifest.workers
        )
        rows = [
            _summary_row(manifest, profile, "fl", n, summary)
            for n, summary in results
        ]
        _write_rows(out, manifest.format, _SIM_HEADER, rows)
        print(f"wrote {len(rows)} budgets; at n={results[-1][0]}: ", end="")
        _print_summary(results[-1][1])
    elif manifest.subcommand == "bounds":
        names = [manifest.strategy] if manifest.strategy else list(_BOUND_STRATEGY_NAMES)
        delta = 2.0 ** -manifest.L
        header = (
            "strategy", "delta", "epsilon", "alpha", "K", "rate_term",
            "reliability_term", "residual", "tau_upper",
        )
        rows = []
        for name in names:
            rep = tau_upper_bound(
                StrategyKind(name), profile, delta, manifest.vl, manifest.alpha
            )
            rows.append((
                name, rep.delta, rep.epsilon, rep.alpha, rep.constant,
                rep.rate_term, rep.reliability_term, rep.residual, rep.tau_upper,
            ))
        _write_rows(out, manifest.format, header, rows)
        print(f"wrote {len(rows)} bound reports to {manifest.out}")
    elif manifest.subcommand == "frontier":
        rows = []
        for cls in FrontierClass:
            for r, e in rate_reliability_frontier(profile, cls):
                rows.append((cls.value, r, e))
        _write_rows(out, manifest.format, ("class", "R", "E"), rows)
        print(f"wrote {len(rows)} frontier points to {manifest.out}")
    else:
        raise NoisySearchError(f"unknown subcommand {manifest.subcommand!r}")


def execute(manifest: RunManifest) -> int:
    """Run the manifest; returns the process exit status."""
    try:
        # opened before any computation, so an unwritable path costs no run
        with open(manifest.out, "w", encoding="utf-8", newline="") as out, (
            open(manifest.dump_partition, "w", encoding="utf-8", newline="")
            if manifest.dump_partition is not None
            else contextlib.nullcontext()
        ) as dump:
            _run_manifest(manifest, out, dump)
    except OSError as exc:
        print(f"noisysearch: i/o error: {exc}", file=sys.stderr)
        return 2
    except (NoisySearchError, AssertionError) as exc:
        print(f"noisysearch: internal error: {exc}", file=sys.stderr)
        return 3
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    manifest = parse_args(sys.argv[1:] if argv is None else argv)
    return execute(manifest)


if __name__ == "__main__":
    sys.exit(main())
