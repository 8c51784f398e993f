"""Correctness checks on the benchmark's outputs.

Every check returns a list of failure messages; an empty list means the check
passed.  The checks compare against arithmetic done here, apart from the
package (Wilson intervals, binomial tails, the converse and Fano bounds), or against
properties the method must have (estimates in range, prefix-consistent
fixed-length runs, worker-count independence).  None compares against a
stored copy of earlier output.
"""

from __future__ import annotations

import math

# Significance of the exact binomial test that gates variable-length error
# rates.  The stopping rule guarantees an average error of at most eps, and the
# median rule's error sits near 0.8*eps.  A 95% Wilson bound would reject a
# correct program in a few percent of runs, and at a few hundred trials even a
# wide Wilson bound is anti-conservative, so the gate rejects only when the
# observed count is less likely than GATE_ALPHA under an error rate of eps.
GATE_ALPHA = 1e-6
Z95 = 1.959963984540054


def wilson(errors: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval of a binomial proportion."""
    if trials < 1 or not (0 <= errors <= trials):
        raise ValueError(f"bad counts: {errors} of {trials}")
    p = errors / trials
    z2n = z * z / trials
    center = (p + z2n / 2.0) / (1.0 + z2n)
    half = z * math.sqrt(p * (1.0 - p) / trials + z2n / (4.0 * trials)) / (1.0 + z2n)
    lo = 0.0 if errors == 0 else max(center - half, 0.0)
    hi = 1.0 if errors == trials else min(center + half, 1.0)
    return lo, hi


def binomial_tail(x: int, n: int, p: float) -> float:
    """P(Binomial(n, p) >= x), summed term by term in log space."""
    if x <= 0:
        return 1.0
    total = 0.0
    for j in range(x, n + 1):
        log_term = (math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                    + j * math.log(p) + (n - j) * math.log1p(-p))
        term = math.exp(log_term)
        total += term
        if j > n * p and term < total * 1e-17:
            break
    return min(total, 1.0)


def capacity_half(p: float) -> float:
    """I(1/2, p) = 1 - H(p) in bits: the most one query can tell."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"crossover must be in (0, 1), got {p}")
    return 1.0 + p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p)


def converse_tau(L: int, eps: float, p0: float) -> float:
    """Lower bound on E[tau] at error eps: ((1 - eps) L - 1) / I(1/2, p(0))."""
    return ((1.0 - eps) * L - 1.0) / capacity_half(p0)


def fano_error(n: int, L: int, p0: float) -> float:
    """Fano lower bound on the error after n queries: 1 - (n I(1/2, p(0)) + 1) / L."""
    return 1.0 - (n * capacity_half(p0) + 1.0) / L


def estimates_in_range(estimates, n_bins: int, label: str) -> list[str]:
    bad = [e for e in estimates if not (1 <= e <= n_bins)]
    return [f"{label}: estimates outside 1..{n_bins}: {bad[:5]}"] if bad else []


def error_rate_within(errors: int, trials: int, eps: float, label: str) -> list[str]:
    """The stopping rule's average error is at most eps under the uniform prior:
    reject when `errors` or more in `trials` has probability < GATE_ALPHA at eps."""
    p_value = binomial_tail(errors, trials, eps)
    if p_value < GATE_ALPHA:
        return [f"{label}: {errors}/{trials} errors, P(>= {errors} | eps={eps}) = "
                f"{p_value:.3g} < {GATE_ALPHA}"]
    return []


def mean_tau_within(mean_tau: float, lower: float, upper, label: str) -> list[str]:
    """lower <= mean_tau, and mean_tau <= upper when an upper bound is given."""
    out = []
    if mean_tau < lower:
        out.append(f"{label}: mean tau {mean_tau:.4g} below the converse bound {lower:.4g}")
    if upper is not None and mean_tau > upper:
        out.append(f"{label}: mean tau {mean_tau:.4g} above the upper bound {upper:.4g}")
    return out


def summary_matches_episodes(summary_errors: int, summary_mean_tau: float,
                             episode_errors: int, episode_taus, label: str) -> list[str]:
    """A Monte Carlo summary agrees with the same trials run one episode at a time."""
    mean = sum(episode_taus) / len(episode_taus)
    if summary_errors != episode_errors or abs(summary_mean_tau - mean) > 1e-9 * max(mean, 1.0):
        return [f"{label}: summary ({summary_errors} errors, tau {summary_mean_tau!r}) != "
                f"episodes ({episode_errors} errors, tau {mean!r})"]
    return []


def sweep_rows_complete(rows, budgets, trials: int, label: str) -> list[str]:
    """One CSV row per budget, in order, each with the requested trial count."""
    got = [int(r["param"]) for r in rows]
    if got != list(budgets):
        return [f"{label}: budgets {got} != {list(budgets)}"]
    bad = [r["param"] for r in rows if int(r["trials"]) != trials]
    return [f"{label}: trials != {trials} at budgets {bad}"] if bad else []


def curve(rows, trials: int) -> dict[int, int]:
    """Budget -> error count, recovered from the CSV's error rate."""
    return {int(r["param"]): round(float(r["error_rate"]) * trials) for r in rows}


def non_increasing_after(errs: dict[int, int], trials: int, start: int, label: str) -> list[str]:
    """Error does not rise from one budget to the next beyond `start`, within
    95% Wilson intervals."""
    out = []
    ns = [n for n in sorted(errs) if n >= start]
    for n1, n2 in zip(ns, ns[1:]):
        if errs[n2] > errs[n1]:
            lo1, hi1 = wilson(errs[n1], trials)
            lo2, hi2 = wilson(errs[n2], trials)
            if lo2 > hi1 or lo1 > hi2:
                out.append(f"{label}: error rises from n={n1} ({errs[n1]}) to n={n2} ({errs[n2]})")
    return out


def median_dominated(curves: dict[str, dict[int, int]], start: int) -> list[str]:
    """The median rule's error is above every other rule's from budget `start` on."""
    med = curves["median"]
    return [
        f"median error {med[n]} <= {kind} error {errs[n]} at n={n}"
        for kind, errs in curves.items() if kind != "median"
        for n in sorted(errs) if n >= start and med[n] <= errs[n]
    ]


def above_fano(errs: dict[int, int], trials: int, budgets, L: int, p0: float,
               label: str) -> list[str]:
    return [
        f"{label}: error {errs[n] / trials:.4g} at n={n} below the Fano bound {fano_error(n, L, p0):.4g}"
        for n in budgets if errs[n] / trials < fano_error(n, L, p0)
    ]


def equal(a, b, label: str) -> list[str]:
    return [] if a == b else [f"{label}: {a!r} != {b!r}"]


def replay_agrees(engine, replay, allowed: int, label: str) -> list[str]:
    """engine/replay: lists of (tau, estimate) per trial; at most `allowed` may differ."""
    mismatched = sum(e != r for e, r in zip(engine, replay))
    if len(engine) != len(replay) or mismatched > allowed:
        return [f"{label}: replay differs from run_episode on {mismatched} of {len(engine)} "
                f"trials (allowed {allowed})"]
    return []


def partition_bound(counts, label: str) -> list[str]:
    """counts[t-1] = intervals after t connected queries; at most 2t+1."""
    bad = [(t, c) for t, c in enumerate(counts, start=1) if c > 2 * t + 1]
    return [f"{label}: more than 2t+1 intervals at (t, count) {bad[:3]}"] if bad else []
