#!/usr/bin/env python3
"""End-to-end REACH benchmark: the one command.

Builds bench/e2e (Release, into build-bench/), unsets every REACH_*
variable, runs the workloads in the reach_e2e binary, checks their
outputs, and prints every metric as `workload metric value unit n=N`.
A results JSON (machine, build, seed, flush policy, every run) is written
to build-bench/out/. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics named
in BENCHMARK.json, or with --trace its per-layer metrics.

    python3 bench/e2e/run.py                      # all workloads, seed 1
    python3 bench/e2e/run.py --workload powerplant --seed 2 --seconds 10
    python3 bench/e2e/run.py --repeat 5           # median, IQR, range
    python3 bench/e2e/run.py --trace              # + traced rerun
    python3 bench/e2e/run.py --smoke              # ~2 s per workload
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-bench"
OUT = BUILD / "out"
WORKLOADS = ["powerplant", "sensor_burst", "plant_report", "mixed"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build reach_e2e; returns its path or None."""
    BUILD.mkdir(exist_ok=True)
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    for cmd in (configure, ["cmake", "--build", str(BUILD), "-j", jobs]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("run.py: build failed: " + " ".join(cmd))
            return None
    return BUILD / "reach_e2e"


def run_workload(binary, workload, seed, seconds, trace, smoke):
    """One reach_e2e run; returns its result document or None."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0",
           "--work-dir", str(BUILD / "run"), "--out-dir", str(OUT)]
    if seconds:
        cmd += ["--seconds", str(seconds)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} timed out after {RUN_TIMEOUT_S}s")
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"run.py: {workload} exited {proc.returncode} without a result")
        return None
    doc = json.loads(lines[-1])
    for check in doc["checks"]:
        if not check["ok"]:
            log(f"run.py: {workload}: check {check['name']} FAILED: "
                f"{check['detail']}")
    return doc


def value(doc, name):
    m = doc["metrics"].get(name)
    return None if m is None else m["value"]


def fmt(v):
    return "n/a" if v is None else f"{v:.6g}"


def merged_metrics(untraced, traced):
    """A run's metrics: every metric the untraced run measures, plus those
    only the traced run measures and the tracing overhead."""
    if traced is None:
        return dict(untraced["metrics"])
    metrics = dict(traced["metrics"])
    metrics.update(untraced["metrics"])
    base, with_trace = value(untraced, "throughput_tps"), value(traced, "throughput_tps")
    overhead = None
    if base and with_trace is not None:
        overhead = (base - with_trace) / base * 100.0
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%", "n": 1}
    return metrics


def summarize(runs):
    """Per metric over repeated runs: median, IQR and (max-min)/median."""
    names = sorted({n for r in runs for n in r["metrics"]})
    out = {}
    for name in names:
        vals = [r["metrics"][name]["value"] for r in runs
                if name in r["metrics"] and r["metrics"][name]["value"] is not None]
        unit = next(r["metrics"][name]["unit"] for r in runs if name in r["metrics"])
        if not vals:
            out[name] = {"median": None, "iqr": None, "range_rel": None, "unit": unit}
            continue
        med = statistics.median(vals)
        if len(vals) >= 2:
            q = statistics.quantiles(vals, n=4)
            iqr = q[2] - q[0]
        else:
            iqr = 0.0
        rng = (max(vals) - min(vals)) / med if med else None
        out[name] = {"median": med, "iqr": iqr, "range_rel": rng, "unit": unit,
                     "values": vals}
    return out


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all four)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0,
                    help="measured seconds per workload (default: each "
                         "workload's own phase lengths)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1], help="also run traced for per-layer metrics")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        log(f"run.py: cannot read {spec_path}: {e}")
        return 2
    for var in [v for v in os.environ if v.startswith("REACH_")]:
        del os.environ[var]

    binary = build()
    if binary is None:
        return 1
    OUT.mkdir(parents=True, exist_ok=True)
    workloads = [args.workload] if args.workload else WORKLOADS
    results = {"nproc": os.cpu_count(), "git_sha": git_sha(), "seed": args.seed,
               "seconds": args.seconds, "trace": bool(args.trace),
               "repeat": args.repeat, "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
               "workloads": {}}
    correct, attempted, failed = True, 0, 0
    final = {}
    for workload in workloads:
        runs = []
        for _ in range(args.repeat):
            untraced = run_workload(binary, workload, args.seed, args.seconds,
                                    False, args.smoke)
            traced = None
            if untraced is not None and args.trace:
                traced = run_workload(binary, workload, args.seed,
                                      args.seconds, True, args.smoke)
            if untraced is None or (args.trace and traced is None):
                return 1
            results.setdefault("build_type", untraced["config"]["build_type"])
            results.setdefault("compiler", untraced["config"]["compiler"])
            results.setdefault("config", untraced["config"])
            runs.append({"correct": untraced["correct"] and
                         (traced is None or traced["correct"]),
                         "attempted": untraced["attempted"],
                         "failed": untraced["failed"],
                         "checks": untraced["checks"] + (traced["checks"] if traced else []),
                         "metrics": merged_metrics(untraced, traced),
                         "spans": traced["spans"] if traced else []})
        summary = summarize(runs)
        results["workloads"][workload] = {"runs": runs, "summary": summary}
        correct = correct and all(r["correct"] for r in runs)
        attempted += sum(r["attempted"] for r in runs)
        failed += sum(r["failed"] for r in runs)

        for name, s in summary.items():
            n = max(r["metrics"][name]["n"] for r in runs if name in r["metrics"])
            line = f"{workload} {name} {fmt(s['median'])} {s['unit']} n={n}"
            if args.repeat > 1:
                line += f" iqr={fmt(s['iqr'])} range/median={fmt(s['range_rel'])}"
            print(line)
        if args.trace and runs[-1]["spans"]:
            print(f"{workload} self-time table (traced run; self = span - children)")
            for row in sorted(runs[-1]["spans"], key=lambda r: -r["self_ms"]):
                print(f"  {row['name']:<28} count={row['count']:<9} "
                      f"total_ms={row['total_ms']:.1f} self_ms={row['self_ms']:.1f}")

        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        for m in wanted:
            med = summary.get(m["name"], {}).get("median")
            key = m["name"] if len(workloads) == 1 else f"{workload}/{m['name']}"
            final[key] = {"value": 0.0 if med is None else med, "unit": m["unit"]}

    path = OUT / f"results-{int(time.time())}.json"
    path.write_text(json.dumps(results, indent=1))
    log(f"run.py: results written to {path}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
