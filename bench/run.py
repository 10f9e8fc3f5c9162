"""The syscat benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {behavior,glue,emergence,laws} --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The run generates the workload's inputs from
the seed (``generate.py``), computes the reference answers with sympy
(``reference.py``) before any timing, then starts a fresh worker process
(``worker.py``) that times a closed loop of in-process CLI calls. Every
output is checked against the reference; an operation fails if it raises,
exits non-zero or disagrees. The last line of standard output is one JSON
object. With ``--trace 0`` it holds the end-to-end metrics, measured untraced.

The worker runs as many whole cycles of the workload's inputs as fit in
``--seconds``, and at least 40 operations, so every run holds the same mix.
Every time in the JSON is scaled to reference speed (``calibration.py``): an
operation's time is the worker's CPU time during it, times the reference
calibration time over the calibrations timed just before and just after it.
The worker runs nothing else and the operation is single-threaded, so that
CPU time is its wall time less what the host gave to other tenants; the
scaling removes the drift of the host's speed over the minutes between runs. A failed operation ranks slower than every
success; a percentile that lands on one reads as the whole loop wall time.

    ops_per_s      successful operations per second of scaled busy time
    latency_p50_s  median scaled latency of one operation
    latency_p75_s  75th percentile; a run holds at least 40 operations, so at
                   least ten lie beyond it
    setup_s        median over several fresh interpreters of the wall time
                   from process start until ``syscat.cli`` is imported, each
                   scaled by calibrations timed just before and after it
    peak_rss_mb    peak resident memory of the worker process
    success_ratio  successful operations / attempted operations

The lines above the JSON repeat these by name and unit, with the error ratio
(1 - success_ratio), the median calibration time, and the unscaled wall-clock
throughput and percentiles.

With ``--trace 1`` it holds the per-layer metrics of a separate traced pass
(``tracer.py``), per operation, plus the tracing slowdown and coverage.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import generate
import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_OPS = 40  # p75 keeps >= 10 samples beyond it
SETUP_RUNS = 6  # before the timed loop, and as many after it
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p75_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def setup_samples(count: int) -> list[float]:
    """Scaled times from starting an interpreter until ``syscat.cli`` is imported."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import syscat.cli, time; print(time.perf_counter())"
    samples = []
    before = calibration.calibrate()[0]
    for _ in range(count):
        t0 = time.perf_counter()  # CLOCK_MONOTONIC: comparable across processes
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=60)
        seconds = float(out.stdout.strip().splitlines()[-1]) - t0
        after = calibration.calibrate()[0]
        samples.append(calibration.scale(seconds, before, after))
        before = after
    return samples


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def judge(ops, exps, record: dict) -> list[str]:
    """Per-operation verdicts: '' for success, else the reason it failed."""
    verdict_of: dict[str, str] = {}
    for key, text in record["outputs"].items():
        i = int(key.split(":")[0])
        verdict_of[key] = reference.check(ops[i], exps[i], text) or ""
    verdicts = []
    for i, status, digest in zip(record["index"], record["status"], record["digest"]):
        if status != "ok":
            verdicts.append(f"{ops[i].label}: {status}")
        else:
            reason = verdict_of[f"{i}:{digest}"]
            verdicts.append(f"{ops[i].label}: {reason}" if reason else "")
    return verdicts


def end_to_end(record: dict, verdicts: list[str], wall: float) -> tuple[dict, dict]:
    """Scaled metrics, and the unscaled wall-clock ones for the log."""
    cal = record["cal"]
    scaled = [calibration.scale(t, cal[j], cal[j + 1]) for j, t in enumerate(record["cpu"])]
    ok = sum(1 for v in verdicts if not v)

    def ranked(values):
        return sorted(x if not v else wall for x, v in zip(values, verdicts))

    ranked_scaled, ranked_raw = ranked(scaled), ranked(record["latency"])
    metrics = {
        "ops_per_s": ok / sum(scaled),
        "latency_p50_s": statistics.median(ranked_scaled),
        "latency_p75_s": percentile(ranked_scaled, 0.75),
        "success_ratio": ok / len(verdicts),
    }
    wall_metrics = {
        "calibration_s": statistics.median(cal),
        "wall.ops_per_s": ok / sum(record["latency"]),
        "wall.latency_p50_s": statistics.median(ranked_raw),
        "wall.latency_p75_s": percentile(ranked_raw, 0.75),
    }
    return metrics, wall_metrics


def per_layer(result: dict) -> dict[str, tuple[float, str]]:
    n = len(result["traced"]["latency"])
    metrics: dict[str, tuple[float, str]] = {}
    for name, (calls, self_s) in result["stats"].items():
        metrics[f"{name}.calls"] = (calls / n, "calls/op")
        metrics[f"{name}.self_s"] = (self_s / n, "s/op")
    units = {"max_cells": "cells", "density": "ratio", "max_bits": "bits",
             "useful_ratio": "ratio", "max_dim": "dims"}
    for name, value in result["sizes"].items():
        metrics[name] = (value, units[name.rsplit(".", 1)[1]])
    op_wall = sum(result["traced"]["latency"]) - result["stats_time_s"]
    metrics["trace.coverage"] = (result["traced_self_s"] / op_wall, "ratio")
    untraced = result["timed"]["latency"]
    metrics["trace.slowdown"] = ((op_wall / n) / (sum(untraced) / len(untraced)), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=generate.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "syscat" / "cli.py").is_file():
        return fail(f"no syscat sources under {SRC}; run from a full checkout")

    if args.trace == 0:
        setup_samples(1)  # writes the bytecode caches
        setup = setup_samples(SETUP_RUNS)
    ops = generate.plan(args.workload, args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        manifest = generate.write(ops, work)
        exps = [reference.expected(op) for op in ops]
        result_path = work / "result.json"
        cmd = [sys.executable, str(BENCH / "worker.py"), str(manifest), str(result_path),
               str(args.seconds), str(MIN_OPS), str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            return fail(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(result_path.read_text())
    except subprocess.TimeoutExpired:
        return fail(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    verdicts = judge(ops, exps, result["timed"])
    timed, wall = end_to_end(result["timed"], verdicts, result["wall_s"])
    if args.trace:
        verdicts += judge(ops, exps, result["traced"])
        for name in result["missing"]:
            print(f"bench: traced function {name} not found; reported as 0", file=sys.stderr)
        metrics = per_layer(result)
        extra = {}
    else:
        timed["setup_s"] = statistics.median(setup + setup_samples(SETUP_RUNS))
        timed["peak_rss_mb"] = result["peak_rss_kb"] / 1024
        metrics = {k: (timed[k], unit) for k, unit in END_TO_END_UNITS.items()}
        extra = {k: (v, END_TO_END_UNITS.get(k.split(".", 1)[-1], "s")) for k, v in wall.items()}

    failed = [v for v in verdicts if v]
    for reason in sorted(set(failed))[:10]:
        print(f"bench: FAILED {reason}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(verdicts)} operations, "
          f"{len(failed)} failed")
    log = {"error_ratio": (len(failed) / len(verdicts), "ratio"), **metrics, **extra}
    for name, (value, unit) in log.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
