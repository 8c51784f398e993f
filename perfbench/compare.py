"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``run.py``
(``<workload>.seed<n>.trace<0|1>.json``).  For each workload and metric the
command prints each side's median and quartiles, the change of the new median
against the base one (positive = worse), and, for end-to-end metrics, that
change against the metric's bound in BENCHMARK.json.  It also prints the
operations attempted and failed on each side.  It exits with 1 when an
end-to-end metric got worse by more than its bound or the failed share
differs, and with 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """(workload, trace) -> list of result objects."""
    runs = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        runs[(record["workload"], record["trace"])].append(record["result"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(base: float, new: float, better: str) -> float:
    """Relative worsening of new against base; negative when new is better."""
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def compare(base: dict, new: dict, spec: dict) -> tuple[list[str], bool]:
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lines: list[str] = []
    ok = True
    for key in sorted(set(base) | set(new)):
        workload, trace = key
        b_runs, n_runs = base.get(key, []), new.get(key, [])
        lines.append(f"== {workload} (trace {trace}): base {len(b_runs)} runs, new {len(n_runs)} runs")
        shares = []
        for side, runs in (("base", b_runs), ("new", n_runs)):
            att = sum(r["attempted"] for r in runs)
            fail = sum(r["failed"] for r in runs)
            bad = sum(not r["correct"] for r in runs)
            share = [r["failed"] / r["attempted"] for r in runs]
            shares.append(sorted(set(share)))
            lines.append(f"   {side}: attempted {att}, failed {fail}, failed share per run "
                         f"{shares[-1]}, runs with a failed check {bad}")
        if b_runs and n_runs and shares[0] != shares[1]:
            ok = False
            lines.append("   FAILED SHARE DIFFERS")
        if not (b_runs and n_runs):
            continue
        lines.append(f"   {'metric':42s} {'unit':>10s} {'base median [q1, q3]':>34s} "
                     f"{'new median [q1, q3]':>34s} {'worse by':>9s} {'bound':>6s}  verdict")
        names = [n for n in metrics if n in b_runs[0]["metrics"] and n in n_runs[0]["metrics"]]
        for name in names:
            bq = quartiles([r["metrics"][name]["value"] for r in b_runs])
            nq = quartiles([r["metrics"][name]["value"] for r in n_runs])
            change = worse_by(bq[1], nq[1], metrics[name]["better"]) if bq[1] else 0.0
            bound = bounds.get(name)
            if bound is None:
                verdict, bound_text = "-", "-"
            else:
                spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (bq, nq))
                verdict = "ok" if change <= bound else "REGRESSION"
                if change > bound:
                    ok = False
                if spread > bound:
                    verdict += f" (spread {spread:.1%} > bound: unresolved)"
                bound_text = f"{bound:.0%}"
            unit = metrics[name]["unit"]
            lines.append(f"   {name:42s} {unit:>10s} {_fmt(bq):>34s} {_fmt(nq):>34s} "
                         f"{change:>+9.1%} {bound_text:>6s}  {verdict}")
    return lines, ok


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lines, ok = compare(load(Path(args[0])), load(Path(args[1])), spec)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
