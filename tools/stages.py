"""Time each stage of priorgt on its own and write ``BENCH_<label>.json``.

    python tools/stages.py --label baseline            # n = 1e3, 1e4, 1e5
    python tools/stages.py --label big --large         # and n = 1e6
    python tools/stages.py --label quick --sizes 1000 --out-dir /tmp

The package is imported from the ``src`` directory next to this script, so a
copy of the script in another checkout times that checkout's code.

Every stage runs on an exponential prior, mu = 100, rho = 0.99999, with
eps = 0.01 and delta = 1: prior generation, the uncached entropy, the
partition, whole and pre-partitioned plan builds per construction, the
seeds and truths of one 200-trial sweep point drawn in the campaign's
truth blocks, plan execution, the closed-form expected test count, both
sampled designs' laws and their measurement, and up to n = 1e5 (a CCA
matrix at 1e6 would need some 2.4 GB) the CCA matrix with its outcome
measurement and COMP decode.
Execution is timed on one truth at every n, on blocks of 16 and 32 truths
at n = 1e3, and on the block of all 4,096 truths at n = 12, which the exact
oracle enumerates.

A row gives the stage, n, the best of ``repeats`` timings (5, or 2 for a
call over half a second) in seconds per call, each timing running ``calls``
calls, enough to last about 10 ms, and the process's peak RSS after the
stage, which never falls.  The file also records the git revision of the
timed code and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from priorgt import adaptive, nonadaptive, oracle  # noqa: E402
from priorgt.partition import build_partition  # noqa: E402
from priorgt.priors import generate_prior  # noqa: E402
from priorgt.sim import draw_truth, trial_seeds, truth_block  # noqa: E402

SIZES = (1_000, 10_000, 100_000)
LARGE = 1_000_000
MATRIX_LIMIT = 100_000
# Blocks of truths executed at n = BLOCK_N.
BLOCK_N, BLOCKS = 1_000, (16, 32)
# Trials of the sweep point whose seeds and truths are drawn.
POINT_TRIALS = 200
MU, RHO, EPS, DELTA = 100.0, 0.99999, 0.01, 1.0
ORACLE_N = 12
# Timings per stage, the best kept, and calls per timing, so that one
# timing lasts about TIMING_S.
REPEATS, TIMING_S = 5, 0.01


def peak_rss_mb() -> float:
    """The process's peak resident set; Linux reports KiB, macOS bytes."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def best_of(fn, repeats: int) -> tuple[float, int, int]:
    """The best seconds per call of ``fn`` over ``repeats`` timings, with the
    number of timings and of calls in each.  A first call sizes the timings;
    one slower than half a second counts as a timing, and gets one more."""
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    if first > 0.5:
        samples, repeats, calls = [first], 1, 1
    else:
        samples, calls = [], max(1, int(TIMING_S / max(first, 1e-6)))
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return min(samples), len(samples), calls


def stages(n: int):
    """(stage, fn) for every stage at n, in pipeline order."""
    p = generate_prior("exponential", n, MU, rho=RHO)

    def entropy():
        p.__dict__.pop("entropy_bits", None)
        return p.entropy_bits

    yield "generate_prior", lambda: generate_prior("exponential", n, MU, rho=RHO)
    yield "entropy_bits", entropy
    yield "build_partition", lambda: build_partition(p, EPS)
    for c in adaptive.CONSTRUCTIONS:
        yield f"build_plan/{c}", lambda c=c: adaptive.build_plan(p, c)
    for c in adaptive.CONSTRUCTIONS:
        yield f"build_prepartitioned_plan/{c}", lambda c=c: adaptive.build_prepartitioned_plan(p, EPS, c)
    def trial_truths():
        seeds = [seed for seed, _ in trial_seeds(0, 0, POINT_TRIALS)]
        block = truth_block(n)
        return [draw_truth(p, seeds[first : first + block]) for first in range(0, POINT_TRIALS, block)]

    yield f"trial_truths/{POINT_TRIALS}", trial_truths
    plan = adaptive.build_plan(p, "max_entropy")
    for t in (1,) + (BLOCKS if n == BLOCK_N else ()):
        truths = draw_truth(p, range(t))
        yield f"run_adaptive/{t}", lambda truths=truths: adaptive.run_adaptive(plan, truths)
    yield "expected_tests", lambda: adaptive.expected_tests(plan, p)
    truth = draw_truth(p, 1)
    cca = nonadaptive.cca_design(p, DELTA, seed=1)
    block = nonadaptive.sample_block(p, EPS, DELTA, seed=1)
    yield "cca_design", lambda: nonadaptive.cca_design(p, DELTA, seed=1)
    yield "measure_design/cca", lambda: nonadaptive.measure_design(cca, truth)
    yield "sample_block", lambda: nonadaptive.sample_block(p, EPS, DELTA, seed=1)
    yield "measure_design/block", lambda: nonadaptive.measure_design(block, truth)
    if n <= MATRIX_LIMIT:
        yield "to_matrix/cca", cca.to_matrix
        matrix = cca.to_matrix()
        outcomes = nonadaptive.run_nonadaptive(matrix, truth)[0]
        yield "run_nonadaptive/cca", lambda: nonadaptive.run_nonadaptive(matrix, truth)
        yield "decode_comp/cca", lambda: nonadaptive.decode_comp(matrix, outcomes)


def oracle_stages():
    """Execution over every truth at n = 12, and the oracle that runs it."""
    p = generate_prior("exponential", ORACLE_N, 2.0, rho=0.8)
    plan = adaptive.build_plan(p, "max_entropy")
    truths = oracle._truth_matrix(ORACLE_N)

    def enumerate_truths():
        # The oracle keeps the last plan's pass; time the pass, not the cache.
        oracle._plan_pass.cache_clear()
        return oracle.exact_expected_tests(plan, p)

    yield f"run_adaptive/{len(truths)}", lambda: adaptive.run_adaptive(plan, truths)
    yield "exact_expected_tests", enumerate_truths


def git_revision() -> tuple[str, bool]:
    """HEAD of the checkout timed, and whether its tracked files differ."""

    def git(*args: str) -> str:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else ""

    return git("rev-parse", "HEAD") or "unknown", bool(git("status", "--porcelain", "--untracked-files=no"))


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "cpu": model,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES), help="values of n")
    parser.add_argument("--large", action="store_true", help=f"also time n = {LARGE:,}")
    parser.add_argument("--out-dir", type=Path, default=ROOT, help="where BENCH_<label>.json goes")
    args = parser.parse_args(argv)
    sizes = sorted(set(args.sizes) | ({LARGE} if args.large else set()))
    runs = [(n, stages(n)) for n in sizes] + [(ORACLE_N, oracle_stages())]
    rows = []
    for n, timed in runs:
        for stage, fn in timed:
            seconds, repeats, calls = best_of(fn, REPEATS)
            rows.append(
                {"stage": stage, "n": n, "seconds": seconds, "repeats": repeats, "calls": calls,
                 "peak_rss_mb": round(peak_rss_mb(), 2)}
            )
            print(f"{stage:38s} n={n:<9,d} {seconds * 1e3:12.4f} ms  best of {repeats} x {calls}", flush=True)
    revision, dirty = git_revision()
    report = {
        "label": args.label,
        "git_revision": revision,
        "git_dirty": dirty,
        "machine": machine(),
        "prior": {"family": "exponential", "mu": MU, "rho": RHO, "eps": EPS, "delta": DELTA},
        "rows": rows,
    }
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} rows to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
