#!/usr/bin/env python3
"""Merge google-benchmark JSON outputs and gate CI on perf regressions.

Two modes:

  bench_compare.py merge OUT.json IN1.json [IN2.json ...]
      Concatenate the `benchmarks` arrays of several --benchmark_format=json
      outputs into one file. Each entry's name is prefixed with the source
      binary's basename ("bench_e7_storage_txn/BM_Commit/...") so names stay
      unique across binaries.

  bench_compare.py compare BASELINE.json CURRENT.json [--tolerance 0.25]
                   [--ratio-tolerance 0.25]
      Compare per-benchmark cpu_time against the committed baseline. Exits
      non-zero when any benchmark regressed by more than the tolerance
      (default +25%). Benchmarks present on only one side are reported but
      never fail the gate — adding or retiring a benchmark must not require
      touching the baseline in the same commit.

      Benchmarks listed in RATIO_PAIRS are gated on a *ratio* instead: their
      absolute times track machine speed and fsync cost (a laptop and a CI
      runner disagree by 10x), but the ratio between the two halves of a
      pair is a property of the code. The gate fails when the numerator got
      slower relative to the denominator by more than --ratio-tolerance
      versus the baseline's ratio. Pair members are excluded from the
      absolute gate.

Baselines are regenerated by re-running the merge on a quiet machine and
committing the result as bench/baseline.json (see docs/OBSERVABILITY.md).
"""

import argparse
import json
import os
import sys

# (label, numerator, denominator[, tol_scale]) — gated on real_time (the
# paired benchmarks are multithreaded, where per-thread cpu_time hides the
# wall clock win). Ratio = numerator / denominator; a rising ratio means
# the numerator's code path lost ground, so the gate is one-sided. The
# optional tol_scale multiplies --ratio-tolerance for pairs whose workloads
# are inherently noisier (fsync-bound paths).
RATIO_PAIRS = [
    ("group_commit_speedup_t16",
     "bench_group_commit/BM_GroupCommit_Grouped/real_time/threads:16",
     "bench_group_commit/BM_GroupCommit_Direct/real_time/threads:16"),
    ("group_commit_speedup_t4",
     "bench_group_commit/BM_GroupCommit_Grouped/real_time/threads:4",
     "bench_group_commit/BM_GroupCommit_Direct/real_time/threads:4"),
    ("sentry_overhead",
     "bench_fig1_sentry_overhead/BM_SentryUselessOverhead",
     "bench_fig1_sentry_overhead/BM_UnmonitoredDirectCall"),
    # Durable event history (docs/EVENTS.md "Durability & recovery"): Signal
    # cost with per-occurrence WAL logging over the same path with logging
    # off. Rising ratio = the history append got more expensive relative to
    # the bare dispatch hot path.
    ("event_history_logging_overhead",
     "bench_event_history/BM_SignalHistoryOn",
     "bench_event_history/BM_SignalHistoryOff"),
    # Lock-free event dispatch (docs/EVENTS.md). Signal scaling: per-
    # iteration wall clock at 8 detecting threads over 1 — rising ratio =
    # the multicore dispatch path lost ground.
    ("event_signal_scaling_t8",
     "bench_event_pipeline/BM_SignalFanout/comp:4/real_time/threads:8",
     "bench_event_pipeline/BM_SignalFanout/comp:4/real_time/threads:1"),
    ("event_signal_scaling_t4",
     "bench_event_pipeline/BM_SignalFanout/comp:0/real_time/threads:4",
     "bench_event_pipeline/BM_SignalFanout/comp:0/real_time/threads:1"),
    # Morsel-parallel extent scans (docs/QUERY.md): parallel query wall
    # clock at 8 workers over the serial executor on the same 50%-
    # selectivity scan. The baseline ratio records the parallel speedup on
    # the baseline machine (near 1 on single-core runners); rising = the
    # parallel path lost ground against serial execution.
    ("query_parallel_scan_t8",
     "bench_query_scan/BM_QueryParallelScan/workers:8/sel:50/real_time",
     "bench_query_scan/BM_QueryParallelScan/workers:0/sel:50/real_time"),
]


def _load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def _to_ns(value, unit):
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    return float(value) * scale.get(unit, 1.0)


def _entries(doc, field="cpu_time"):
    """name -> `field` in ns, skipping aggregate rows (mean/median/stddev)."""
    fallback = "real_time" if field == "cpu_time" else "cpu_time"
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b["name"]
        out[name] = _to_ns(b.get(field, b.get(fallback, 0.0)),
                           b.get("time_unit", "ns"))
    return out


def cmd_merge(args):
    merged = {"benchmarks": []}
    for path in args.inputs:
        doc = _load(path)
        prefix = os.path.basename(path)
        for suffix in (".json", ".out"):
            if prefix.endswith(suffix):
                prefix = prefix[: -len(suffix)]
        for b in doc.get("benchmarks", []):
            entry = dict(b)
            entry["name"] = f"{prefix}/{b['name']}"
            merged["benchmarks"].append(entry)
        # Keep one context block (host info) for the record.
        if "context" in doc and "context" not in merged:
            merged["context"] = doc["context"]
    with open(args.output, "w", encoding="utf-8") as f:
        json.dump(merged, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"merged {len(merged['benchmarks'])} benchmarks from "
          f"{len(args.inputs)} files into {args.output}")
    return 0


def _write_step_summary(abs_rows, ratio_rows, tolerance, ratio_tolerance):
    """Markdown delta table for the GitHub job summary page. No-op outside
    Actions (GITHUB_STEP_SUMMARY unset)."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = ["## Benchmark comparison", ""]
    if ratio_rows:
        lines += [f"### Ratio pairs (tolerance +{ratio_tolerance * 100:.0f}%)",
                  "", "| pair | baseline | current | drift | status |",
                  "|---|---|---|---|---|"]
        for label, base_ratio, cur_ratio, drift, ok in ratio_rows:
            status = ":white_check_mark: ok" if ok else ":x: regressed"
            lines.append(f"| {label} | {base_ratio:.3f} | {cur_ratio:.3f} | "
                         f"{(drift - 1) * 100:+.1f}% | {status} |")
        lines.append("")
    lines += [f"### Absolute times (tolerance +{tolerance * 100:.0f}%)", "",
              "| benchmark | baseline | current | delta | status |",
              "|---|---|---|---|---|"]
    for name, base, cur, ratio in abs_rows:
        if ratio > 1.0 + tolerance:
            status = ":x: regressed"
        elif ratio < 1.0 - tolerance:
            status = ":white_check_mark: improved"
        else:
            status = ":white_check_mark: ok"
        lines.append(f"| `{name}` | {base:.1f}ns | {cur:.1f}ns | "
                     f"{(ratio - 1) * 100:+.1f}% | {status} |")
    lines.append("")
    with open(path, "a", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def cmd_compare(args):
    base_doc = _load(args.baseline)
    cur_doc = _load(args.current)
    baseline = _entries(base_doc)
    current = _entries(cur_doc)
    paired = {name for pair in RATIO_PAIRS for name in pair[1:3]}

    regressions = []
    improvements = []
    abs_rows = []
    for name in sorted(baseline.keys() & current.keys()):
        if name in paired:
            continue
        base, cur = baseline[name], current[name]
        if base <= 0:
            continue
        ratio = cur / base
        abs_rows.append((name, base, cur, ratio))
        if ratio > 1.0 + args.tolerance:
            regressions.append((name, base, cur, ratio))
        elif ratio < 1.0 - args.tolerance:
            improvements.append((name, base, cur, ratio))

    only_base = sorted(baseline.keys() - current.keys())
    only_cur = sorted(current.keys() - baseline.keys())
    if only_base:
        print(f"note: {len(only_base)} baseline benchmarks missing from "
              f"current run (first: {only_base[0]})")
    if only_cur:
        print(f"note: {len(only_cur)} new benchmarks with no baseline "
              f"(first: {only_cur[0]}) — regenerate bench/baseline.json")

    for name, base, cur, ratio in improvements:
        print(f"IMPROVED  {name}: {base:.1f}ns -> {cur:.1f}ns "
              f"({(ratio - 1) * 100:+.1f}%)")
    for name, base, cur, ratio in regressions:
        print(f"REGRESSED {name}: {base:.1f}ns -> {cur:.1f}ns "
              f"({(ratio - 1) * 100:+.1f}%)")

    base_rt = _entries(base_doc, "real_time")
    cur_rt = _entries(cur_doc, "real_time")
    ratio_failures = []
    ratio_rows = []
    ratios_checked = 0
    for pair in RATIO_PAIRS:
        label, num, den = pair[0], pair[1], pair[2]
        tol = args.ratio_tolerance * (pair[3] if len(pair) > 3 else 1.0)
        missing = [n for n in (num, den)
                   if n not in base_rt or n not in cur_rt]
        if missing:
            print(f"note: ratio pair {label} skipped "
                  f"(no data for {missing[0]})")
            continue
        if base_rt[den] <= 0 or cur_rt[den] <= 0 or base_rt[num] <= 0:
            continue
        ratios_checked += 1
        base_ratio = base_rt[num] / base_rt[den]
        cur_ratio = cur_rt[num] / cur_rt[den]
        drift = cur_ratio / base_ratio
        verdict = "REGRESSED" if drift > 1.0 + tol else "ok"
        print(f"RATIO {label}: baseline {base_ratio:.3f}, current "
              f"{cur_ratio:.3f} ({(drift - 1) * 100:+.1f}%, "
              f"tolerance +{tol * 100:.0f}%) {verdict}")
        ratio_rows.append((label, base_ratio, cur_ratio, drift,
                           verdict == "ok"))
        if verdict == "REGRESSED":
            ratio_failures.append(label)

    _write_step_summary(abs_rows, ratio_rows, args.tolerance,
                        args.ratio_tolerance)

    compared = len((baseline.keys() & current.keys()) - paired)
    print(f"compared {compared} benchmarks (tolerance "
          f"+{args.tolerance * 100:.0f}%) and {ratios_checked} ratio pairs "
          f"(tolerance +{args.ratio_tolerance * 100:.0f}%): "
          f"{len(regressions)} regressed, {len(improvements)} improved, "
          f"{len(ratio_failures)} ratio failures")
    return 1 if regressions or ratio_failures else 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)

    p_merge = sub.add_parser("merge")
    p_merge.add_argument("output")
    p_merge.add_argument("inputs", nargs="+")
    p_merge.set_defaults(func=cmd_merge)

    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("baseline")
    p_cmp.add_argument("current")
    p_cmp.add_argument("--tolerance", type=float, default=0.25,
                       help="allowed fractional slowdown (default 0.25)")
    p_cmp.add_argument("--ratio-tolerance", type=float, default=0.25,
                       help="allowed fractional worsening of a RATIO_PAIRS "
                            "ratio versus the baseline (default 0.25)")
    p_cmp.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
