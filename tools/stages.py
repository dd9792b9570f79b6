"""Time each stage of priorgt on its own and write ``BENCH_<label>.json``.

    python tools/stages.py --label baseline            # n = 1e3, 1e4, 1e5
    python tools/stages.py --label big --large         # and n = 1e6
    python tools/stages.py --label quick --sizes 1000 --out-dir /tmp
    python tools/stages.py --label ab --against ../base --rounds 10 \
        --stages build_plan build_prepartitioned_plan  # paired A/B timing

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
oracle enumerates.  At n = 12 the oracle's enumeration is timed alone, and
``oracle_unit/<construction>`` times what one unit of the benchmark's
exact_oracle workload runs: a plan build, the exact expected test count,
the decode audit and the T2 ceiling.  Both clear the oracle's kept
executor pass before each call, and the enumeration its kept truth weights
too.  ``--stages`` keeps the stages whose names start with
one of its prefixes, and builds the CCA matrix only when a matrix stage is
kept.

A row gives the stage, n, the best of ``repeats`` timings (5, or 2 for a
call over half a second) in seconds per call, each timing running ``calls``
calls, enough to last about 10 ms, and the process's peak RSS after the
stage, which never falls.  The file also records the git revision of the
timed code and the machine.

``--against DIR`` times this checkout (B) against the checkout DIR (A)
instead.  Back-to-back runs of one tree put a stage's best of 5 up to 2x
apart on a shared host, so both trees are timed in one run: live worker
processes, one per tree, each hold every stage, and the timing process
alternates single timings of about 10 ms between them, ``--rounds`` times
per stage (10 by default), the order rotating each round.  A third worker on DIR is
the A/A control: two processes of one tree can differ by a fixed 20% on a
stage, a bias that only a second process shows.  Each row gives the stage,
n, the calls per timing, A's and B's median seconds per call, and the
quartiles of the per-round ratios B/A and of the control's A'/A.  A stage's
B/A supports a change only where its quartiles lie clear of the control's.
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
# A paired run's worker (--worker DIR) times the package of DIR.
TIMED = Path(sys.argv[sys.argv.index("--worker") + 1]) if "--worker" in sys.argv[:-1] else ROOT
sys.path.insert(0, str(TIMED / "src"))

import numpy as np  # noqa: E402

from priorgt import adaptive, bounds, nonadaptive, oracle  # noqa: E402
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
# Rounds of a paired run: one timing per worker each.
ROUNDS = 10
MATRIX_STAGES = ("to_matrix/cca", "run_nonadaptive/cca", "decode_comp/cca")


def peak_rss_mb() -> float:
    """The process's peak resident set; Linux reports KiB, macOS bytes."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def timing(fn, calls: int) -> float:
    """Seconds per call of ``fn`` over ``calls`` calls in a row."""
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls


def calls_for(first: float) -> int:
    """Calls per timing, enough to last about TIMING_S after a first call
    that took ``first`` seconds."""
    return max(1, int(TIMING_S / max(first, 1e-6)))


def best_of(fn, repeats: int) -> tuple[float, int, int]:
    """The best seconds per call of ``fn`` over ``repeats`` timings, with the
    number of timings and of calls in each.  A first call sizes the timings;
    one slower than half a second counts as a timing, and gets one more."""
    first = timing(fn, 1)
    if first > 0.5:
        samples, repeats, calls = [first], 1, 1
    else:
        samples, calls = [], calls_for(first)
    samples += [timing(fn, calls) for _ in range(repeats)]
    return min(samples), len(samples), calls


def stages(n: int, keep=lambda stage: True):
    """(stage, fn) for every stage at n that ``keep`` accepts, in pipeline
    order."""
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
    if n <= MATRIX_LIMIT and any(map(keep, MATRIX_STAGES)):
        yield "to_matrix/cca", cca.to_matrix
        matrix = cca.to_matrix()
        outcomes = nonadaptive.run_nonadaptive(matrix, truth)[0]
        yield "run_nonadaptive/cca", lambda: nonadaptive.run_nonadaptive(matrix, truth)
        yield "decode_comp/cca", lambda: nonadaptive.decode_comp(matrix, outcomes)


def clear_caches(*fns) -> None:
    """Empty the caches of ``fns``; a checkout timed by ``--against`` may
    not cache some of them."""
    for fn in fns:
        getattr(fn, "cache_clear", lambda: None)()


def oracle_stages():
    """Execution over every truth at n = 12, the oracle that runs it, and
    one oracle unit per construction."""
    p = generate_prior("exponential", ORACLE_N, 2.0, rho=0.8)
    plan = adaptive.build_plan(p, "max_entropy")
    truths = oracle._truth_matrix(ORACLE_N)

    def enumerate_truths():
        # The oracle keeps the last plan's pass and the last prior's
        # weights; time the enumeration, not the caches.
        clear_caches(oracle._plan_pass, oracle._truth_weights)
        return oracle.exact_expected_tests(plan, p)

    def unit(construction):
        # The benchmark's units run a new plan each, which the kept pass
        # never serves; here every call builds an equal plan.
        clear_caches(oracle._plan_pass)
        built = adaptive.build_plan(p, construction)
        exact = oracle.exact_expected_tests(built, p)
        return exact, oracle.exhaustive_decode_check(built, p), bounds.adaptive_expected_upper(p)

    yield f"run_adaptive/{len(truths)}", lambda: adaptive.run_adaptive(plan, truths)
    yield "exact_expected_tests", enumerate_truths
    for c in adaptive.CONSTRUCTIONS:
        yield f"oracle_unit/{c}", lambda c=c: unit(c)


def runs(sizes: list[int], keep) -> list:
    """(n, stage, fn) for every kept stage, size by size, the oracle's last;
    each size's stages are built as they are reached."""
    timed = [(n, stages(n, keep)) for n in sizes] + [(ORACLE_N, oracle_stages())]
    return ((n, stage, fn) for n, each in timed for stage, fn in each if keep(stage))


def git_revision(root: Path = ROOT) -> tuple[str, bool]:
    """HEAD of a checkout, and whether its tracked files differ."""

    def git(*args: str) -> str:
        out = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
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


def serve(sizes: list[int], keep) -> None:
    """A paired run's worker: on "next", step to the next kept stage, call it
    once and answer its name, n and seconds (a null stage at the end); on
    "time CALLS", answer the seconds per call of one timing."""
    stage_runs = runs(sizes, keep)
    fn = None
    for line in sys.stdin:
        if line.startswith("next"):
            n, stage, fn = next(stage_runs, (None, None, None))
            reply = {"stage": stage, "n": n, "first": timing(fn, 1) if fn else None}
        else:
            reply = {"seconds": timing(fn, int(line.split()[1]))}
        print(json.dumps(reply), flush=True)


def quartiles(values: list[float]) -> list[float]:
    return [float(q) for q in np.quantile(values, [0.25, 0.5, 0.75])]


def paired(args, keep) -> dict:
    """Time every kept stage in workers on DIR (A, and A' the control) and on
    this checkout (B), alternating one timing at a time."""
    against = args.against.resolve()
    flags = ["--sizes", *map(str, args.sizes)] + ["--stages", *args.stages] * bool(args.stages)
    workers = {
        name: subprocess.Popen(
            [sys.executable, __file__, *flags, "--worker", str(tree)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=tree,
        )
        for name, tree in (("A", against), ("B", ROOT), ("A'", against))
    }
    names = list(workers)

    def ask(name: str, line: str) -> dict:
        workers[name].stdin.write(line + "\n")
        workers[name].stdin.flush()
        return json.loads(workers[name].stdout.readline())

    rows = []
    try:
        while True:
            heads = {name: ask(name, "next") for name in names}
            stage, n = heads["A"]["stage"], heads["A"]["n"]
            if {(h["stage"], h["n"]) for h in heads.values()} != {(stage, n)}:
                raise RuntimeError(f"workers disagree on the next stage: {heads}")
            if stage is None:
                break
            calls = calls_for(min(h["first"] for h in heads.values()))
            seconds = {name: [] for name in names}
            for r in range(args.rounds):
                for name in names[r % 3 :] + names[: r % 3]:
                    seconds[name].append(ask(name, f"time {calls}")["seconds"])
            a, b, control = (np.array(seconds[name]) for name in names)
            rows.append(
                {"stage": stage, "n": n, "calls": calls,
                 "a_seconds": float(np.median(a)), "b_seconds": float(np.median(b)),
                 "ratio": quartiles(b / a), "control": quartiles(control / a)}
            )
            ratio, aa = rows[-1]["ratio"][1], rows[-1]["control"][1]
            print(f"{stage:38s} n={n:<9,d} B/A {ratio:6.3f}  A'/A {aa:6.3f}  x {calls}", flush=True)
    finally:
        for worker in workers.values():
            worker.stdin.close()
            worker.wait()
    revision, dirty = git_revision(against)
    return {"against": {"path": str(against), "git_revision": revision, "git_dirty": dirty},
            "rounds": args.rounds, "rows": rows}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label", help="the file is BENCH_<label>.json")
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES), help="values of n")
    parser.add_argument("--large", action="store_true", help=f"also time n = {LARGE:,}")
    parser.add_argument("--out-dir", type=Path, default=ROOT, help="where BENCH_<label>.json goes")
    parser.add_argument("--stages", nargs="+", default=[], help="time only stages starting with one of these")
    parser.add_argument("--against", type=Path, help="time this checkout against the checkout DIR")
    parser.add_argument("--rounds", type=int, default=ROUNDS, help="timings per worker and stage when paired")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.sizes = sorted(set(args.sizes) | ({LARGE} if args.large else set()))

    def keep(stage: str) -> bool:
        return not args.stages or stage.startswith(tuple(args.stages))

    if args.worker:
        serve(args.sizes, keep)
        return 0
    if not args.label:
        parser.error("--label is required")
    revision, dirty = git_revision()
    report = {"label": args.label, "git_revision": revision, "git_dirty": dirty, "machine": machine(),
              "prior": {"family": "exponential", "mu": MU, "rho": RHO, "eps": EPS, "delta": DELTA}}
    if args.against:
        report.update(paired(args, keep))
    else:
        rows = report["rows"] = []
        for n, stage, fn in runs(args.sizes, keep):
            seconds, repeats, calls = best_of(fn, REPEATS)
            rows.append(
                {"stage": stage, "n": n, "seconds": seconds, "repeats": repeats, "calls": calls,
                 "peak_rss_mb": round(peak_rss_mb(), 2)}
            )
            print(f"{stage:38s} n={n:<9,d} {seconds * 1e3:12.4f} ms  best of {repeats} x {calls}", flush=True)
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(report['rows'])} rows to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
