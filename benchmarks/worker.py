"""One benchmark process: set up a workload, then measure it.

Started by run.py with priorgt's ``src`` on PYTHONPATH and BLAS threads
pinned to 1.  Prints ``READY`` once set-up (imports, input generation and
warm-up) is done, then, unless ``--setup-only``, measures for ``--seconds``,
and prints one JSON line with the raw figures.  run.py turns those into
metrics.

The host this runs on changes speed by up to 1.7x in phases of seconds to
minutes, which no run length averages out.  So a fixed kernel that shares
no code with priorgt is timed after set-up and between units, and run.py
scales each time by it to the host's reference speed.

The untraced run (``--trace 0``) repeats the workload's cycle of units and
times each unit.  The traced run (``--trace 1``) runs each unit untraced and
then traced, so the tracing overhead is the difference between the two.
Every repeat of a unit must reproduce the first cycle's outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time

import numpy as np

import priorgt
import tracer
import workloads


_KERNEL_RNG = random.Random(0)
_KERNEL_PAIRS = [(_KERNEL_RNG.random(), k) for k in range(20_000)]
_KERNEL_ARRAY = np.sort(np.random.default_rng(0).random(20_000))


def host_kernel_seconds() -> float:
    """Time a fixed mix of interpreter and numpy work that shares no code
    with priorgt: how fast the host runs at this moment."""
    t0 = time.perf_counter()
    ordered = sorted(_KERNEL_PAIRS)
    {k: v for v, k in ordered[:5000]}
    doubled = tuple(x * 2.0 for x in _KERNEL_ARRAY[:3000].tolist())
    for _ in range(30):
        np.cumsum(_KERNEL_ARRAY)
        np.searchsorted(_KERNEL_ARRAY, doubled[:100])
    return time.perf_counter() - t0


def warm_up(workload: str, seed: int, workdir: str) -> None:
    """Run a tiny cycle so lazy imports and first-call costs land in set-up."""
    for unit in workloads.build_units(workload, seed, os.path.join(workdir, "warm"), tiny=True):
        unit.run()


def check_unwrapped(failures: list[str]) -> None:
    """The untraced path must call priorgt's own functions."""
    if not tracer.unwrapped_sites():
        failures.append("a traced wrapper is installed")


def check_repeat(u: int, first: workloads.UnitResult, res: workloads.UnitResult, failures: list[str]) -> None:
    """A repeated unit must compute what the first cycle computed."""
    if res.digest() != first.digest():
        failures.append(f"unit {u}: output differs from the first cycle")


def measure_untraced(units: list, seconds: float) -> dict:
    """Repeat the cycle unit by unit for ``seconds``; the first cycle always
    completes.  A unit is not started when its median so far would overrun.
    The host kernel runs between units; each unit gets the mean of the two
    kernel times around it."""
    failures: list[str] = []
    checks = 0
    times: list[list[float]] = [[] for _ in units]
    host: list[list[float]] = [[] for _ in units]
    first: list[workloads.UnitResult] = []
    start = time.perf_counter()
    before = host_kernel_seconds()
    k = 0
    while True:
        u = k % len(units)
        if k >= len(units):
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(times[u]) > seconds:
                break
        checks += 1
        check_unwrapped(failures)
        res = units[u].run()
        after = host_kernel_seconds()
        times[u].append(res.seconds)
        host[u].append((before + after) / 2)
        before = after
        if k < len(units):
            first.append(res)
        else:
            checks += 1
            check_repeat(u, first[u], res, failures)
        k += 1
    return {"first": first, "unit_times": times, "unit_host": host, "checks": checks, "failures": failures}


def run_traced(unit, tr: tracer.Tracer) -> workloads.UnitResult:
    tr.install()
    try:
        return unit.run()
    finally:
        tr.uninstall()


def measure_traced(units: list, seconds: float, cell_opener: str, spans_path: str) -> dict:
    """Run every unit both untraced and traced, cycle after cycle, for
    ``seconds``; one cycle always completes.  Pairing the two runs of a unit
    keeps slow phases of the host out of the tracing overhead."""
    failures: list[str] = []
    checks = 0
    diffs: list[list[float]] = [[] for _ in units]
    cycle_times: list[float] = []
    first: list[workloads.UnitResult] = []
    tr = tracer.Tracer(cell_opener)
    start = time.perf_counter()
    while not cycle_times or time.perf_counter() - start + statistics.median(cycle_times) <= seconds:
        t0 = time.perf_counter()
        for u, unit in enumerate(units):
            checks += 1
            check_unwrapped(failures)
            # Alternate which of the pair runs first, so neither always
            # finds warmer caches.
            if u % 2:
                traced = run_traced(unit, tr)
                plain = unit.run()
            else:
                plain = unit.run()
                traced = run_traced(unit, tr)
            diffs[u].append(traced.seconds - plain.seconds)
            if len(first) < len(units):
                first.append(plain)
            checks += 2
            check_repeat(u, first[u], plain, failures)
            check_repeat(u, first[u], traced, failures)
        cycle_times.append(time.perf_counter() - t0)
    tr.save(spans_path)
    return {
        "first": first,
        "checks": checks,
        "failures": failures,
        "per_layer": tr.metrics(
            repeats=len(cycle_times),
            overhead_s=sum(statistics.median(d) for d in diffs),
        ),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", required=True, help="where the traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true", help="self-test size")
    args = ap.parse_args()

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(priorgt.__file__).startswith(src + os.sep):
        sys.stderr.write(f"priorgt was imported from {priorgt.__file__}, not from {src}\n")
        return 2

    os.makedirs(os.path.join(args.workdir, "warm"), exist_ok=True)
    units = workloads.build_units(args.workload, args.seed, args.workdir, tiny=args.tiny)
    warm_up(args.workload, args.seed, args.workdir)
    print("READY", flush=True)
    # The host's speed just after set-up, to scale the set-up time by.
    host_s = statistics.median(host_kernel_seconds() for _ in range(3))
    if args.setup_only:
        print(json.dumps({"host_s": host_s}), flush=True)
        return 0

    if args.trace:
        opener = "adaptive.run_adaptive" if args.workload == "exact_oracle" else "sim.draw_truth"
        raw = measure_traced(units, args.seconds, opener, args.spans)
    else:
        raw = measure_untraced(units, args.seconds)
    first = raw.pop("first")
    checks = raw["checks"] + sum(r.checks for r in first)
    failures = raw["failures"] + [f for r in first for f in r.failures]
    out = {
        "cells": [r.cells for r in first],
        "checks": checks,
        "failures": failures,
        "digest": workloads.cycle_digest(first),
        "outcomes": workloads.outcome_metrics(args.workload, first),
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "host_s": host_s,
    }
    if "unit_times" in raw:
        out["unit_times"] = raw["unit_times"]
        out["unit_host"] = raw["unit_host"]
    if "per_layer" in raw:
        out["per_layer"] = raw["per_layer"]
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
