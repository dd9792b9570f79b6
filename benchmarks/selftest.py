"""Self-test of the benchmark at a tiny size; exits non-zero on any failure.

    python3 benchmarks/selftest.py

Checks that every workload has pinned digests at the default and held-out
seeds; that every workload, untraced and traced, prints a result line with
every metric named in BENCHMARK.json and its unit and no failed check; that
the untraced path runs priorgt's own functions while the traced path runs
the wrappers and records consistent spans; and that without ``src/`` the
benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_results(config: dict, problems: list[str]) -> None:
    expected = {
        0: {m["name"]: m["unit"] for m in config["end_to_end"]},
        1: {m["name"]: m["unit"] for m in config["per_layer"]},
    }
    for w in (w["name"] for w in config["workloads"]):
        for trace in (0, 1):
            proc = run_bench(ROOT, w, trace)
            where = f"{w} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit code {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: checks {result['failed']}/{result['attempted']} failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(expected[trace]))}")


def check_wrapping(problems: list[str]) -> None:
    if not tracer.unwrapped_sites():
        problems.append("a wrapper is installed before tracing starts")
    tr = tracer.Tracer("sim.draw_truth")
    workdir = os.path.join(ROOT, ".bench_out", "selftest")
    os.makedirs(workdir, exist_ok=True)
    try:
        units = workloads.build_units("prepart_scale", 3, workdir, tiny=True)
        tr.install()
        try:
            if tracer.unwrapped_sites():
                problems.append("installing the tracer left a site unwrapped")
            for unit in units:
                unit.run()
        finally:
            tr.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not tracer.unwrapped_sites():
        problems.append("uninstalling the tracer left a wrapper behind")
    m = {k: v["value"] for k, v in tr.metrics(repeats=1, overhead_s=0.0).items()}
    if m["cli.main.calls"] != len(units) or m["sim.draw_truth.calls"] < 1:
        problems.append("the traced run missed calls")
    self_sum = sum(m[f"{name}.self_s"] for name in tracer.SPAN_NAMES)
    if abs(self_sum - m["cli.main.total_s"]) > 1e-6:
        problems.append("self times do not add up to the root span's duration")
    if m["adaptive.tests"] < 1:
        problems.append("the traced run counted no tests")


def check_without_sources(problems: list[str]) -> None:
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "benchmarks"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run_bench(bare, "adaptive_mc", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without src/ the benchmark did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def check_pinned(config: dict, problems: list[str]) -> None:
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    for w in (w["name"] for w in config["workloads"]):
        for seed in (workloads.DEFAULT_SEED, workloads.HELDOUT_SEED):
            if str(seed) not in pinned.get(w, {}):
                problems.append(f"{w}: no pinned digest at seed {seed}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    problems: list[str] = []
    check_pinned(config, problems)
    check_wrapping(problems)
    check_without_sources(problems)
    check_results(config, problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest passed" if not problems else f"selftest: {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
