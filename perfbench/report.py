"""Summarise saved benchmark records across seeds.

Usage, from the root of the repository, after some runs of run.py:

    python3 perfbench/report.py [RECORD.json ...]

With no arguments it reads every record in ``.perfbench/``.  For each
workload it prints every end-to-end metric with its unit: the median over
seeds, the quartiles, and the spread (q3 - q1) / median next to the bound
in BENCHMARK.json; then fail_rate with its counts, each scaling sweep
(per-size median times and RSS, and the log-log slope), and the median of
every per-layer metric over the traced records.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles(n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(paths: list[str]) -> int:
    files = [Path(p) for p in paths] or sorted((ROOT / ".perfbench").glob("*.json"))
    records = [json.loads(f.read_text()) for f in files]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["unit"], m["bound"]) for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    by = defaultdict(list)
    for r in records:
        by[r["workload"], r["trace"]].append(r)
    for w in spec["workloads"]:
        name = w["name"]
        runs = sorted(by[name, 0], key=lambda r: r["seed"])
        traced = by[name, 1]
        if not runs and not traced:
            continue
        print(f"== {name}: {w['why']}")
        if runs:
            jobs = len(runs[0]["jobs"])
            print(f"   {len(runs)} runs (seeds {[r['seed'] for r in runs]}), {jobs} jobs per pass, "
                  f"passes per run {[r['passes'] for r in runs]}")
            print(f"   {'metric':14s} {'unit':5s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
                  f"{'spread':>7s} {'bound':>6s}")
            for metric, (unit, bound) in bounds.items():
                med, q1, q3, s = spread([r["metrics"][metric] for r in runs])
                flag = "" if metric == "setup_s" or s <= bound / 3 else "  > bound/3"
                print(f"   {metric:14s} {unit:5s} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                      f"{s:7.3f} {bound:6.2f}{flag}")
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            print(f"   fail_rate      {failed}/{attempted} = {failed / attempted:.4f}; "
                  f"wrong values: {sum(r['wrong'] for r in runs)}")
            errors = sorted({e for r in runs for j in r["jobs"] for e in j["error"]})
            for e in errors:
                print(f"     error line: {e}")
            print("   scaling (median over seeds; time s, RSS MB, slope of log time vs log size):")
            for sweep in runs[0]["scaling"]:
                curves = [r["scaling"][sweep] for r in runs]
                sizes = curves[0]["sizes"]
                times = [statistics.median(c["time_s"][i] for c in curves)
                         for i in range(len(sizes))]
                rss = [statistics.median(c["rss_mb"][i] for c in curves)
                       for i in range(len(sizes))]
                slopes = [c["slope"] for c in curves if c["slope"] is not None]
                slope = f"{statistics.median(slopes):.2f}" if slopes else "-"
                print(f"     {sweep:26s} slope {slope:>5s}  sizes {sizes} (seed {runs[0]['seed']})")
                print(f"     {'':26s} time_s {[round(t, 3) for t in times]}")
                print(f"     {'':26s} rss_mb {rss}")
        if traced:
            print(f"   per layer, median over {len(traced)} traced runs:")
            for metric in traced[0]["metrics"]:
                med = statistics.median(r["metrics"][metric] for r in traced)
                print(f"     {metric:42s} {med:14.6g} {layer_units[metric]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
