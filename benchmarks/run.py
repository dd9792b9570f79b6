"""priorgt benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 benchmarks/run.py --workload adaptive_mc --seed 1 --seconds 25 --trace 0

Run from the repository root.  Workloads are described in workloads.py.  The
run starts fresh single-threaded worker processes (BLAS pools pinned to one
thread) that import priorgt from ``src/``: SETUP_SAMPLES of them set up the
workload, and the last of those also measures it.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

End-to-end metrics (``--trace 0``):

* ``cells_per_s``: trials-CSV rows (one trial x one algorithm), or truth
  vectors evaluated in ``exact_oracle``, per second of priorgt calls: a
  cycle's cells over the cycle time of ``cycle_seconds``.
* ``setup_s``: median over SETUP_SAMPLES processes of the time from process
  start to the start of the timed part (imports, inputs, warm-up).

Both times are scaled to the host's reference speed (``at_reference_speed``,
see worker.py for why), so they read as on a host whose speed holds still.
* ``peak_rss_mb``: ``ru_maxrss`` of the measuring process.
* ``tests_per_bit``: mean over cells of tests / H; for ``exact_oracle``,
  sum of exact E[T] over sum of H.
* ``success_rate``: share of cells that recover exactly; for
  ``exact_oracle``, share of plans that pass the exhaustive decode audit.

``--trace 1`` reports the per-layer metrics of tracer.py instead.  Spans are
kept in ``.bench_out/``.  ``attempted`` and ``failed`` count the output
checks, so the share of failed checks is ``failed / attempted``; at the
pinned seeds a digest mismatch with pinned.json is a failed check.  A
sampled-design decode that misses is an outcome, not a failure.

repeat.py runs this over many seeds and workloads; selftest.py checks it at
a tiny size.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("adaptive_mc", "prepart_scale", "sampled_mc", "exact_oracle")
SETUP_SAMPLES = 5
# The host kernel's time (worker.host_kernel_seconds) when the host runs at
# its reference speed; measured times are scaled to that speed.
HOST_KERNEL_REF_S = 0.012
WORKER_TIMEOUT_S = 170
END_TO_END_UNITS = {
    "cells_per_s": "cells/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "tests_per_bit": "tests/bit",
    "success_rate": "ratio",
}


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args, workdir: str, setup_only: bool, deadline: float) -> tuple[float, dict]:
    """Start one worker; return its set-up time and its final JSON line."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
        "--spans", os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.npz"),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    # Reading stdout blocks until the worker ends, so the deadline kills it.
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        setup_s = None
        last = None
        for line in proc.stdout:
            if setup_s is None and line.strip() == "READY":
                setup_s = time.perf_counter() - t0
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or setup_s is None or last is None:
        raise BenchError(f"worker exited with code {code}")
    return setup_s, json.loads(last)


def pinned_digest(workload: str, seed: int) -> str | None:
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def at_reference_speed(seconds: float, host_s: float) -> float:
    """Scale a time taken while the host kernel took ``host_s`` to the host's
    reference speed, at which it takes HOST_KERNEL_REF_S."""
    return seconds * HOST_KERNEL_REF_S / host_s


def cycle_seconds(unit_times: list[list[float]], unit_host: list[list[float]]) -> float:
    """One cycle at reference speed: the sum over the cycle's units of each
    unit's median scaled time."""
    return sum(
        statistics.median(at_reference_speed(t, h) for t, h in zip(times, hosts))
        for times, hosts in zip(unit_times, unit_host)
    )


def end_to_end(result: dict, setups: list[float]) -> dict:
    values = {
        "cells_per_s": sum(result["cells"]) / cycle_seconds(result["unit_times"], result["unit_host"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["maxrss_kib"] / 1024.0,
        **result["outcomes"],
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END_UNITS.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test size: tiny inputs, no pinned digest")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "priorgt", "__init__.py")):
        sys.stderr.write("src/priorgt not found: run from a priorgt checkout\n")
        return 2

    deadline = time.monotonic() + WORKER_TIMEOUT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setups = []
        for k in range(SETUP_SAMPLES):
            setup_s, result = run_worker(args, workdir, k < SETUP_SAMPLES - 1, deadline)
            setups.append(at_reference_speed(setup_s, result["host_s"]))
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = list(result["failures"])
    attempted = result["checks"]
    pinned = None if args.tiny else pinned_digest(args.workload, args.seed)
    if pinned is not None:
        attempted += 1
        if result["digest"] != pinned:
            failures.append(f"output digest {result['digest']} differs from pinned {pinned}")
    for f in failures[:20]:
        sys.stderr.write(f"check failed: {f}\n")
    sys.stderr.write(f"digest {result['digest']}\n")

    metrics = result["per_layer"] if args.trace else end_to_end(result, setups)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
