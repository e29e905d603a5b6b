#!/usr/bin/env python3
"""Lifecycle benchmark runner.

One workload, as the benchmark contract calls it::

    python3 benchmarks/lifecycle/run.py --workload storm-5k --seed 7 \\
        --seconds 10 --trace 0

prints the metrics by name and ends with one JSON line holding ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics untraced,
the per-layer metrics with ``--trace 1``).

Without ``--workload`` it runs all seven, each in a fresh subprocess (cold
process-wide caches, its own peak RSS), and prints them side by side; add
``--trace`` for the per-layer account, ``--smoke`` for a tenth of the work,
``--verify`` for the determinism check, ``--history FILE`` to append the
results as one JSON line.  Exit status is non-zero when any correctness
check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional

from metrics import END_TO_END, PER_LAYER, end_to_end, per_layer
from spans import NullRecorder, SpanRecorder
from stats import median, tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")

#: Share of the nominal run a smoke run executes.
SMOKE_SHARE = 0.1
#: Set-ups per untraced run; ``setup_s`` is their median.  A smoke run
#: makes one.
SETUPS = 3
#: A tracing overhead smaller than this is inside what two untraced halves
#: of one run differ by, and is reported as unresolved.
OVERHEAD_NOISE = 0.05
DETAIL_PREFIX = "detail: "


def load_workloads():
    """Import the workloads (and with them ``repro``); returns the module
    and how long the import took, which is part of every set-up."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"{SRC}: the repro package is not there; nothing to measure")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import workloads

    return workloads, time.perf_counter() - start


def provenance(seed: int, seconds: float) -> Dict[str, object]:
    """What ran where: every result carries it."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": nproc,
        "seed": seed,
        "seconds": seconds,
        "load_1min": load,
        # Flagged, not refused: a busy box widens every timing.
        "overloaded": load > nproc,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------


def measure_untraced(workload, seed, seconds, setups, import_s):
    """``setups`` set-ups (their median is ``setup_s``), then the timed
    region once on the last state."""
    rec = NullRecorder()
    size = workload.size(seconds)
    samples: List[float] = []
    state = None
    for _ in range(setups):
        state = None  # one state alive at a time: peak RSS is the run's
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(seed, size, rec)
        samples.append(time.perf_counter() - start)
    outcome = workload.run(state, size, rec)
    return outcome, end_to_end(outcome, import_s + median(samples)), {}


def measure_traced(workload, seed, seconds, out_dir):
    """Half the work untraced and the same half with spans recorded: the
    ratio of the two timed regions is the tracing overhead, and the traced
    half yields the per-layer account.  The half that runs second finds
    warm caches and a grown heap and reads up to 5 % faster or slower for
    it, so odd seeds trace first and even seeds trace second: over a set of
    seeds the order cancels."""
    size = workload.size(seconds / 2)
    recorder = SpanRecorder()

    def plain_half():
        gc.collect()
        null = NullRecorder()
        outcome = workload.run(workload.setup(seed, size, null), size, null)
        return outcome.sim, outcome.timed_s  # its simulator dies here

    def traced_half():
        gc.collect()
        recorder.install(workload.span_rows)
        try:
            state = workload.setup(seed, size, recorder)
            outcome = workload.run(state, size, recorder)
            workload.probe(state, outcome, recorder)
        finally:
            recorder.uninstall()
        outcome.keep.clear()  # so does this one's
        return outcome

    traced_first = seed % 2 == 1
    if traced_first:
        outcome = traced_half()
        plain_sim, plain_s = plain_half()
    else:
        plain_sim, plain_s = plain_half()
        outcome = traced_half()
    if plain_sim != outcome.sim:
        outcome.log.fail(
            f"tracing changed the simulated outcome: {plain_sim} != {outcome.sim}"
        )
    account = recorder.account()
    accounted = account.root_self_s + sum(t.self_s for t in account.inside.values())
    if abs(accounted - account.root_s) > 1e-6 * max(1.0, account.root_s):
        outcome.log.fail(
            f"span account does not close: {accounted} != {account.root_s}"
        )
    os.makedirs(out_dir, exist_ok=True)
    recorder.write_jsonl(os.path.join(out_dir, f"{workload.name}.spans.jsonl"))
    overhead = outcome.timed_s / plain_s - 1.0
    layers = per_layer(recorder, account, outcome.counters, overhead)
    shares = {
        name: totals.self_s / account.root_s
        for name, totals in account.inside.items()
        if account.root_s > 0
    }
    return outcome, layers, {
        "missing_spans": recorder.missing_spans(),
        "root_shares": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "traced_first": traced_first,
    }


def run_one(args, module, import_s: float) -> int:
    """Contract mode: one workload, result as the last line of stdout."""
    workload = module.BY_NAME.get(args.workload)
    if workload is None:
        sys.exit(f"unknown workload {args.workload!r}; pick from {sorted(module.BY_NAME)}")
    meta = provenance(args.seed, args.seconds)
    if args.trace:
        outcome, values, extra = measure_traced(
            workload, args.seed, args.seconds, module.OUT_DIR
        )
        units = {layer.name: layer.unit for layer in PER_LAYER}
    else:
        outcome, values, extra = measure_untraced(
            workload, args.seed, args.seconds, 1 if args.smoke else SETUPS, import_s
        )
        units = {metric.name: metric.unit for metric in END_TO_END}
    log = outcome.log
    samples = len(log.latencies)
    detail = {
        "workload": workload.name,
        "traced": bool(args.trace),
        "provenance": meta,
        "work_unit": workload.unit,
        "op": workload.op,
        "samples": samples,
        "tail_percentile": tail_percentile(samples),
        "attempted": log.attempted,
        "failed": log.failed,
        "failed_share": log.failed_share,
        "errors": log.errors[:20],
        "sim": outcome.sim,
        "inputs": outcome.inputs,
        "metrics": values,
        **extra,
    }
    print(render_one(detail, units))
    if args.smoke:
        print("SMOKE — numbers not comparable")
    print(DETAIL_PREFIX + json.dumps(detail, sort_keys=True))
    if args.history and not args.smoke:
        append_history(args.history, [detail])
    # The contract wants numbers: a metric whose span is gone reads 0 here
    # and null (with a warning) in the detail line above.
    print(
        json.dumps(
            {
                "correct": log.failed == 0,
                "attempted": log.attempted,
                "failed": log.failed,
                "metrics": {
                    name: {"value": 0.0 if value is None else value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0 if log.failed == 0 else 1


def render_one(detail: Dict[str, object], units: Dict[str, str]) -> str:
    """Every metric of one run by name, with its unit."""
    meta = detail["provenance"]
    lines = [
        f"{detail['workload']}  seed={meta['seed']} seconds={meta['seconds']:g} "
        f"{'traced' if detail['traced'] else 'untraced'}  "
        f"python {meta['python']} nproc={meta['nproc']} "
        f"load={meta['load_1min']:.2f} git={meta['git_sha'] or '-'}"
    ]
    if meta["overloaded"]:
        lines.append("  WARNING load average exceeds nproc: timings are inflated")
    for name, value in detail["metrics"].items():
        shown = "null" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<40} {shown:>14} {units[name]}")
    lines.append(
        f"  work unit: {detail['work_unit']}; op: {detail['op']}; "
        f"{detail['samples']} samples, tail = p{detail['tail_percentile']}"
    )
    lines.append(
        f"  failed_share {detail['failed_share']:.6g} "
        f"({detail['failed']} of {detail['attempted']})"
    )
    lines.append(f"  sim {json.dumps(detail['sim'], sort_keys=True)}")
    for share_name, share in list(detail.get("root_shares", {}).items())[:8]:
        lines.append(f"  share of timed region  {share_name:<34} {share:6.1%}")
    if detail["traced"]:
        overhead = detail["metrics"]["bench.trace_overhead_share"]
        lines.append(
            f"  tracing overhead {overhead:+.3f}, traced half ran "
            f"{'first' if detail['traced_first'] else 'second'}"
            + (
                f": inside the noise of {OVERHEAD_NOISE:g}, unresolved"
                if abs(overhead) < OVERHEAD_NOISE else ""
            )
        )
    for missing in detail.get("missing_spans", []):
        lines.append(f"  WARNING span not recorded: {missing}")
    for error in detail["errors"]:
        lines.append(f"  FAILED {error}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# all workloads, one subprocess each
# ----------------------------------------------------------------------


def spawn(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Run one workload in a fresh interpreter; returns (exit status,
    detail document or None)."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", "1" if trace else "0",
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, capture_output=True, text=True)
    detail = None
    for line in done.stdout.splitlines():
        if line.startswith(DETAIL_PREFIX):
            detail = json.loads(line[len(DETAIL_PREFIX):])
        elif not line.startswith("{"):
            print(line)
    if done.returncode != 0 or detail is None:
        sys.stderr.write(done.stderr)
    return done.returncode, detail


def append_history(path: str, details: List[Dict[str, object]]) -> None:
    """One JSON line per run: provenance plus every workload's numbers."""
    entry = {
        "provenance": details[0]["provenance"],
        "workloads": {
            f"{d['workload']}{'#traced' if d['traced'] else ''}": {
                "metrics": d["metrics"],
                "failed_share": d["failed_share"],
                "sim": d["sim"],
            }
            for d in details
        },
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def run_suite(args, names: List[str]) -> int:
    status = 0
    details: List[Dict[str, object]] = []
    started = time.perf_counter()
    for name in names:
        for traced in ([False, True] if args.trace else [False]):
            code, detail = spawn(name, args.seed, args.seconds, traced, args.smoke)
            status = status or code
            if detail is not None:
                details.append(detail)
    print(f"suite wall {time.perf_counter() - started:.1f} s")
    if args.history and details and not args.smoke:
        append_history(args.history, details)
    return status


def run_verify(args, names: List[str]) -> int:
    """Same seed twice: every simulated count and digest identical.  Next
    seed once: the generated inputs differ."""
    status = 0
    for name in names:
        runs = [
            spawn(name, seed, args.seconds, False, args.smoke)
            for seed in (args.seed, args.seed, args.seed + 1)
        ]
        if any(code != 0 or detail is None for code, detail in runs):
            print(f"VERIFY {name}: a run failed")
            status = 1
            continue
        first, second, other = (detail for _, detail in runs)
        if first["sim"] != second["sim"] or first["inputs"] != second["inputs"]:
            print(f"VERIFY {name}: seed {args.seed} does not repeat: "
                  f"{first['sim']} != {second['sim']}")
            status = 1
        elif first["inputs"] == other["inputs"]:
            print(f"VERIFY {name}: seed {args.seed + 1} generated the same inputs")
            status = 1
        else:
            print(f"VERIFY {name}: ok (sim_digest {first['sim']['sim_digest']}, "
                  f"inputs {first['inputs']} vs {other['inputs']})")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed region (default: the nominal 10)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="record spans and report the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the work, one set-up; not comparable")
    parser.add_argument("--verify", action="store_true",
                        help="check that the seed, and only the seed, sets the inputs")
    parser.add_argument("--history", metavar="FILE",
                        help="append the results to FILE as one JSON line")
    args = parser.parse_args(argv)
    module, import_s = load_workloads()
    if args.seconds is None:
        args.seconds = module.NOMINAL_SECONDS * (SMOKE_SHARE if args.smoke else 1.0)
    if args.workload and not args.verify:
        return run_one(args, module, import_s)
    names = [args.workload] if args.workload else [w.name for w in module.WORKLOADS]
    if args.verify:
        return run_verify(args, names)
    return run_suite(args, names)


if __name__ == "__main__":
    sys.exit(main())
