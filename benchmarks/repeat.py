"""Run the benchmark over several workloads and seeds and summarize it.

    python3 benchmarks/repeat.py --seeds 1-10
    python3 benchmarks/repeat.py --workloads exact_oracle --seeds 1-5 --trace 1
    python3 benchmarks/repeat.py --seeds 1-10 --record seed-commit

Workloads are interleaved within each seed, so a slow phase of the host is
spread over all of them.  Each run is a separate ``run.py`` process.  For
every metric the summary gives the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median.  The spread of each end-to-end
metric except ``setup_s`` must stay below the metric's bound in
BENCHMARK.json.  ``--record LABEL`` appends the summary to trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRAJECTORY = os.path.join(HERE, "trajectory.json")


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(config: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = config["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(config["run_seconds"]),
        "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "n": len(values),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=None, help="comma-separated (default: every workload)")
    ap.add_argument("--seeds", default="1-10", help="for example 1-10 or 1,3,5")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="LABEL", help="append the summary to trajectory.json")
    args = ap.parse_args()

    config = load_config()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    runs: dict[str, list[dict]] = {w: [] for w in names}
    for seed in parse_seeds(args.seeds):
        for w in names:
            res = run_once(config, w, seed, args.trace)
            runs[w].append(res)
            status = "ok" if res["correct"] else f"FAILED {res['failed']}/{res['attempted']}"
            first = next(iter(res["metrics"].items()))
            sys.stderr.write(f"{w} seed {seed}: {status}, {res['wall_s']:.1f}s, "
                             f"{first[0]} {first[1]['value']:.6g}\n")

    summary: dict[str, dict] = {}
    worst = 0.0
    for w, results in runs.items():
        metrics = results[0]["metrics"]
        summary[w] = {
            "failed_runs": sum(not r["correct"] for r in results),
            "max_wall_s": max(r["wall_s"] for r in results),
            "metrics": {},
        }
        print(f"{w}: {len(results)} runs, {summary[w]['failed_runs']} with failed checks, "
              f"longest {summary[w]['max_wall_s']:.1f}s")
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for r in results]
            s = summarize(values)
            s["unit"] = m["unit"]
            s["values"] = values
            summary[w]["metrics"][name] = s
            bound = bounds.get(name) if args.trace == 0 else None
            note = ""
            if bound is not None:
                note = f"  bound {bound}"
                if name != "setup_s":
                    worst = max(worst, s["spread"] / bound)
            print(f"  {name:46s} {s['median']:14.6g} {m['unit']:10s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}{note}")
    if args.trace == 0:
        print(f"largest spread as a share of its bound: {worst:.3f}")

    if args.record:
        entries = []
        if os.path.exists(TRAJECTORY):
            with open(TRAJECTORY, encoding="utf-8") as fh:
                entries = json.load(fh)
        entries.append({
            "label": args.record,
            "trace": args.trace,
            "seeds": parse_seeds(args.seeds),
            "run_seconds": config["run_seconds"],
            "workloads": summary,
        })
        with open(TRAJECTORY, "w", encoding="utf-8") as fh:
            fh.write(format_trajectory(entries))
    return 0


def format_trajectory(entries: list[dict]) -> str:
    """JSON with one line per metric, so entries stay readable in a diff."""
    blocks = []
    for e in entries:
        head = json.dumps({k: v for k, v in e.items() if k != "workloads"})[:-1]
        workloads = []
        for w, s in e["workloads"].items():
            rest = json.dumps({k: v for k, v in s.items() if k != "metrics"})[1:-1]
            metrics = ",\n".join(f"   {json.dumps(k)}: {json.dumps(v)}" for k, v in s["metrics"].items())
            workloads.append(f"  {json.dumps(w)}: {{{rest}, \"metrics\": {{\n{metrics}\n  }}}}")
        blocks.append(f"{head}, \"workloads\": {{\n" + ",\n".join(workloads) + "\n}}")
    return "[\n" + ",\n".join(blocks) + "\n]\n"


if __name__ == "__main__":
    sys.exit(main())
