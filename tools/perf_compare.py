#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and flag regressions.

Usage:
    tools/perf_compare.py BASELINE.json CANDIDATE.json [--threshold PCT]

Benchmarks are matched by name; aggregate entries (mean/median/stddev
rows emitted with --benchmark_repetitions) are ignored in favour of the
plain run. For every benchmark present in both files the real-time
delta is printed, and the script exits non-zero if any shared benchmark
slowed down by more than the threshold (default 20%, chosen above
typical run-to-run noise on an unpinned machine so callers such as the
bench-compare target can gate on the exit status). Benchmarks present in
only one file are listed but never fail the comparison, so adding or
retiring a benchmark does not break CI.

Latency percentiles: benchmarks that stamp latency_p50_ns /
latency_p95_ns / latency_p99_ns counters (the fleet benches do) get a
per-percentile comparison too. Tail latency is far noisier than mean
rate, so percentiles gate on their own --percentile-threshold (default
50%, p99 only); p50/p95 deltas are always printed but informational.

Capture inputs with:
    bench_micro_runtime --benchmark_min_time=0.5 \
        --benchmark_out=out.json --benchmark_out_format=json

Only the python3 standard library is used.
"""

import argparse
import json
import sys

PERCENTILE_KEYS = ("latency_p50_ns", "latency_p95_ns", "latency_p99_ns")


def load_benchmarks(path):
    """(name -> real_time ns, name -> {percentile counter -> ns})."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    pcts = {}
    for b in doc.get("benchmarks", []):
        # Skip mean/median/stddev aggregates from repetition runs.
        if b.get("run_type") == "aggregate":
            continue
        unit = b.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
        if scale is None:
            print(f"warning: {b['name']}: unknown unit {unit}, skipped",
                  file=sys.stderr)
            continue
        out[b["name"]] = float(b["real_time"]) * scale
        # Percentile counters are stamped in ns regardless of time_unit.
        p = {k: float(b[k]) for k in PERCENTILE_KEYS
             if k in b and float(b[k]) > 0.0}
        if p:
            pcts[b["name"]] = p
    return out, pcts


def fmt_ns(ns):
    for limit, unit in ((1e9, "s"), (1e6, "ms"), (1e3, "us")):
        if ns >= limit:
            return f"{ns / limit:.3g} {unit}"
    return f"{ns:.3g} ns"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument("--threshold", type=float, default=20.0,
                    help="regression threshold in percent (default 20)")
    ap.add_argument("--percentile-threshold", type=float, default=50.0,
                    help="p99 latency regression threshold in percent "
                         "(default 50; p50/p95 are informational)")
    args = ap.parse_args()

    base, base_pcts = load_benchmarks(args.baseline)
    cand, cand_pcts = load_benchmarks(args.candidate)
    shared = sorted(set(base) & set(cand))
    if not shared:
        print("error: no benchmarks in common", file=sys.stderr)
        return 2

    width = max(len(n) for n in shared)
    regressions = []
    for name in shared:
        b, c = base[name], cand[name]
        delta = 100.0 * (c - b) / b if b > 0 else 0.0
        marker = ""
        if delta > args.threshold:
            marker = "  REGRESSION"
            regressions.append((name, delta))
        elif delta < -args.threshold:
            marker = "  improved"
        print(f"{name:<{width}}  {fmt_ns(b):>9} -> {fmt_ns(c):>9} "
              f"{delta:+7.1f}%{marker}")

    for name in sorted(set(base) - set(cand)):
        print(f"{name:<{width}}  only in baseline")
    for name in sorted(set(cand) - set(base)):
        print(f"{name:<{width}}  only in candidate")

    pct_shared = sorted(set(base_pcts) & set(cand_pcts) & set(shared))
    if pct_shared:
        print("\nlatency percentiles:")
        for name in pct_shared:
            for key in PERCENTILE_KEYS:
                if key not in base_pcts[name] or \
                        key not in cand_pcts[name]:
                    continue
                b, c = base_pcts[name][key], cand_pcts[name][key]
                delta = 100.0 * (c - b) / b
                marker = ""
                if key == "latency_p99_ns" and \
                        delta > args.percentile_threshold:
                    marker = "  REGRESSION"
                    regressions.append((f"{name}:{key}", delta))
                elif delta < -args.percentile_threshold:
                    marker = "  improved"
                label = key.replace("latency_", "").replace("_ns", "")
                print(f"{name:<{width}}  {label}  "
                      f"{fmt_ns(b):>9} -> {fmt_ns(c):>9} "
                      f"{delta:+7.1f}%{marker}")

    if regressions:
        # Name every offender with its own delta so a CI log tail is
        # enough to see what regressed and by how much - percentile
        # offenders carry their :latency_pNN_ns suffix and gated on
        # --percentile-threshold rather than --threshold.
        offenders = ", ".join(f"{name} ({delta:+.1f}%)"
                              for name, delta in regressions)
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{args.threshold:.0f}%: {offenders}",
              file=sys.stderr)
        return 1
    print(f"\nno regressions beyond {args.threshold:.0f}% "
          f"across {len(shared)} shared benchmark(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
