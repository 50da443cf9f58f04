#!/usr/bin/env python3
"""nousbench: the repo's one canonical benchmark.

    python3 benchmarks/nousbench/run.py --workload all --seed 7

runs the four workloads (untraced, then traced), checks every answer
against the oracle and prints every metric by name with its unit; the
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

    --workload NAME   one of BENCHMARK.json's workloads, or ``all``
    --trace 0|1|both  0: end-to-end metrics from an untraced pass;
                      1: per-layer metrics and the span file from a
                      traced pass; both: one pass of each (default)
    --seconds N       run length; op counts scale by N / run_seconds
                      (the smoke test runs at 0.4 s = scale 0.02)
    --check-repeat    run two interleaved sets of three untraced suites
                      and compare their medians with the bounds

The process pins ``PYTHONHASHSEED=0`` (re-executing itself if needed:
pipeline tie-breaks follow hash order, and shard workers are always
pinned) and keeps every file it writes — data directories, worker
stderr, the span file — inside this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
DECLARATION = os.path.join(REPO, "BENCHMARK.json")

# As a script, sys.path[0] is this directory, where `trace.py` would
# shadow the stdlib module of that name; import through the package.
if sys.path and os.path.abspath(sys.path[0]) == HERE:
    sys.path.pop(0)
for _path in (os.path.dirname(HERE), SRC):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: Suite runs per set in ``--check-repeat`` (medians are compared).
CHECK_REPEATS = 3


def load_declaration() -> Dict[str, Any]:
    with open(DECLARATION) as fh:
        return json.load(fh)


def _quartiles(samples: Sequence[float]) -> str:
    if len(samples) < 2:
        return f"n={len(samples)}"
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return f"n={len(samples)} q1={q1:.4g} q2={q2:.4g} q3={q3:.4g}"


def run_one(
    workload: str, seed: int, scale: float, trace: str, out_dir: str
) -> Dict[str, Any]:
    """Run one workload in this process; returns the result object."""
    from nousbench import trace as tracing
    from nousbench.lifecycle import MEDIAN_OF, run_workload
    from nousbench.workloads import SPECS, scaled

    declaration = load_declaration()
    # end-to-end metric -> the sample list whose quartiles print beside it
    samples_of = dict(
        MEDIAN_OF, setup_s="setup_s", recover_s="recover_s",
        query_p50_ms="query_ms", query_p99_ms="query_ms",
    )
    spec = scaled(SPECS[workload], scale)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=os.environ["TMPDIR"])
    metrics: Dict[str, Dict[str, Any]] = {}
    attempted = failed = 0
    mismatches: List[str] = []
    try:
        print(f"== {workload} seed={seed} scale={scale:g} trace={trace}")
        if trace != "1":
            untraced = run_workload(
                spec, seed, scale, None, os.path.join(work_dir, "untraced")
            )
            attempted, failed = untraced.attempted, untraced.failed
            mismatches += untraced.mismatches
            print("  phases:", " ".join(f"{k}={v:.1f}s" for k, v in untraced.phases.items()))
            for metric in declaration["end_to_end"]:
                name = metric["name"]
                value = untraced.end_to_end.get(name)
                if value is None:  # every op that would have fed it failed
                    mismatches.append(f"{name}: no sample was measured")
                    failed = max(failed, 1)
                    continue
                metrics[name] = {"value": value, "unit": metric["unit"]}
                note = _quartiles(untraced.samples.get(samples_of.get(name, ""), [value]))
                print(f"  {name:<26} {value:>12.4f} {metric['unit']:<6} {note}")
        if trace != "0":
            with tracing.Tracer() as tracer:
                tracing.install(tracer)
                traced = run_workload(
                    spec, seed, scale, tracer, os.path.join(work_dir, "traced")
                )
            attempted, failed = traced.attempted, max(failed, traced.failed)
            mismatches += traced.mismatches
            os.makedirs(out_dir, exist_ok=True)
            span_file = os.path.join(out_dir, f"nousbench-trace-{workload}.json")
            tracer.dump(
                span_file,
                {"workload": workload, "seed": seed, "scale": scale,
                 "wall_s": traced.wall_s},
            )
            values = tracing.layer_metrics(
                tracer, traced.facts, traced.attempted, traced.wall_s
            )
            print("  phases:", " ".join(f"{k}={v:.1f}s" for k, v in traced.phases.items()))
            for metric in declaration["per_layer"]:
                name = metric["name"]
                metrics[name] = {"value": values[name], "unit": metric["unit"]}
                print(f"  {name:<30} {values[name]:>14.4f} {metric['unit']}")
            print(f"  spans -> {os.path.relpath(span_file)}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for line in mismatches[:20]:
        print(f"  FAILED {line}")
    if len(mismatches) > 20:
        print(f"  ... and {len(mismatches) - 20} more")
    return {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_in_child(workload: str, args: argparse.Namespace, trace: str) -> Dict[str, Any]:
    """One workload in a fresh interpreter (peak RSS is a per-process
    high-water mark, so workloads must not share a process)."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", trace, "--out-dir", args.out_dir,
    ]
    child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = child.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(
            f"{workload}: the run printed no result (exit {child.returncode})"
        ) from None


def run_suite(args: argparse.Namespace, trace: str) -> Dict[str, Any]:
    """Every declared workload; metrics are keyed ``workload/metric``."""
    suite: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (w["name"] for w in load_declaration()["workloads"]):
        result = run_in_child(workload, args, trace)
        suite["correct"] = suite["correct"] and result["correct"]
        suite["attempted"] += result["attempted"]
        suite["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            suite["metrics"][f"{workload}/{name}"] = metric
    return suite


def check_repeat(args: argparse.Namespace) -> int:
    """Two sets of untraced suite runs on this tree, interleaved (A B A
    B ...) so a slow stretch of the machine lands on both; fail when any
    end-to-end median moved by more than its bound, or the op count or
    failure count moved at all."""
    bounds = {m["name"]: m["bound"] for m in load_declaration()["end_to_end"]}
    sets: Tuple[List[Dict[str, Any]], List[Dict[str, Any]]] = ([], [])
    for _ in range(CHECK_REPEATS):
        for runs in sets:
            runs.append(run_suite(args, "0"))
    print(
        f"medians of {CHECK_REPEATS} suite runs per set\n"
        f"{'workload/metric':<42}{'first':>12}{'second':>12}{'diff':>9}{'bound':>8}"
    )
    stable = True
    for key in sets[0][0]["metrics"]:
        a, b = (
            statistics.median(run["metrics"][key]["value"] for run in runs)
            for runs in sets
        )
        diff = abs(b - a) / abs(a)
        bound = bounds[key.split("/", 1)[1]]
        verdict = "" if diff <= bound else "  OVER"
        stable = stable and diff <= bound
        print(f"{key:<42}{a:>12.4f}{b:>12.4f}{diff:>8.1%}{bound:>8.0%}{verdict}")
    for key in ("attempted", "failed"):
        counts = {run[key] for runs in sets for run in runs}
        stable = stable and len(counts) == 1
        print(f"{key:<42}{sorted(counts)}{'' if len(counts) == 1 else '  DIFFERS'}")
    stable = stable and all(run["correct"] for runs in sets for run in runs)
    print("check-repeat:", "PASS" if stable else "FAIL")
    return 0 if stable else 1


def pin_environment() -> None:
    """Keep temp files inside the checkout and pin the hash seed
    (re-executing once: the seed is read at interpreter start)."""
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    os.environ["TMPDIR"] = work_root
    tempfile.tempdir = None
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"nousbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    declaration = load_declaration()
    names = [w["name"] for w in declaration["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=declaration["run_seconds"])
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--out-dir", default=os.path.join(HERE, "out"))
    args = parser.parse_args(argv)
    pin_environment()
    if args.check_repeat:
        return check_repeat(args)
    if args.workload == "all":
        result = run_suite(args, args.trace)
    else:
        scale = args.seconds / declaration["run_seconds"]
        result = run_one(args.workload, args.seed, scale, args.trace, args.out_dir)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
