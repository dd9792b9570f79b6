"""The four benchmark workloads and the checks on their outputs.

Each workload is a fixed cycle of units.  A unit is one timed stretch of
calls into priorgt's public functions: one ``priorgt simulate`` campaign run
in-process through ``cli.main`` for the campaign workloads, or one plan
through the oracles for ``exact_oracle``.  A cycle's content
depends only on the seed, so every repeat of a unit must reproduce the same
outputs, and the deterministic metrics are read from the first cycle.

Why these workloads (the layer each one loads most):

* ``adaptive_mc``: the paper's E[T]-vs-H sweep at n = 1000.  Plans are cached
  per sweep point, so the adaptive executor and truth drawing dominate.
* ``prepart_scale``: pre-partitioned plans at n = 10 000.  The partition and
  every band plan are rebuilt per trial, so plan building dominates.
* ``sampled_mc``: the sampled (CCA) and block designs with COMP decoding, the
  setting of Aldridge, Baldassini & Johnson 2014.  No adaptive code runs.
* ``exact_oracle``: exhaustive oracles over 36 small plans.  About 172k tiny
  executor calls, so per-call overhead dominates.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from priorgt import PriorVector, adaptive, bounds, cli, oracle

# Claims are made at DEFAULT_SEED and re-checked on HELDOUT_SEED; the output
# digests at both are pinned in pinned.json.
DEFAULT_SEED = 1
HELDOUT_SEED = 2

ADAPTIVE = ("adaptive_me", "adaptive_sf", "adaptive_huffman")
PREPARTITIONED = ("prepartitioned_me", "prepartitioned_huffman")
SAMPLED = ("cca", "block")
CONSTRUCTIONS = ("max_entropy", "shannon_fano", "huffman")
# 12 oracle priors: four each at n = 10, 11 and 12, so every seed enumerates
# the same 172 032 truth vectors.
ORACLE_SIZES = (10, 11, 12) * 4


def _campaign(family, n, sweep, trials, algorithms, seed, rho):
    return {
        "family": family,
        "n": n,
        "sweep": list(sweep),
        "trials": trials,
        "algorithms": list(algorithms),
        "base_seed": seed,
        "eps": 0.01,
        "delta": 1.0,
        "rho": rho,
    }


def campaigns(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The campaign files of one cycle, one per (family, sweep point) so that
    units are short.  ``tiny`` shrinks them to a warm-up or self-test size
    over the same algorithms."""
    if workload == "adaptive_mc":
        n, trials = (60, 2) if tiny else (1000, 200)
        sweep = [2.0, 4.0] if tiny else [4.0, 8.0, 16.0, 24.0, 32.0, 40.0]
        points = [(f, mu, 0.99) for f in ("uniform", "exponential") for mu in sweep]
        algorithms = ADAPTIVE
    elif workload == "prepart_scale":
        n, trials = (300, 1) if tiny else (10_000, 4)
        uniform, exponential = ([2.0], [4.0]) if tiny else ([16.0, 100.0], [16.0, 48.0])
        points = [("uniform", mu, 0.99) for mu in uniform] + [("exponential", mu, 0.999) for mu in exponential]
        algorithms = PREPARTITIONED
    elif workload == "sampled_mc":
        n, trials = (60, 2) if tiny else (1000, 10)
        sweep = [2.0] if tiny else [8.0, 32.0]
        points = [(f, mu, 0.99) for f in ("uniform", "exponential") for mu in sweep]
        algorithms = SAMPLED
    else:
        raise ValueError(f"{workload!r} is not a campaign workload")
    return [_campaign(f, n, [mu], trials, algorithms, seed, rho) for f, mu, rho in points]


def oracle_priors(seed: int, tiny: bool = False) -> list[PriorVector]:
    rng = np.random.default_rng(seed)
    sizes = (3, 4) if tiny else ORACLE_SIZES
    return [PriorVector(tuple(float(q) for q in rng.uniform(0.05, 0.45, size=k))) for k in sizes]


@dataclass
class UnitResult:
    """What one unit computed, and the checks made on it."""

    seconds: float
    cells: int
    content: list  # the computed values the digest covers
    tests: list[float]  # tests per campaign cell, or exact E[T] per plan
    bits: list[float]  # H of the prior behind each entry of ``tests``
    successes: int  # cells, or audited plans, that recovered exactly
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(what)

    def digest(self) -> str:
        return hashlib.sha256(repr(self.content).encode()).hexdigest()


class CampaignUnit:
    """One ``priorgt simulate`` call on a generated campaign file."""

    def __init__(self, spec: dict, workdir: str, index: int):
        self.path = os.path.join(workdir, f"campaign{index}.json")
        self.out = os.path.join(workdir, f"trials{index}.csv")
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        self.cells = len(spec["sweep"]) * spec["trials"] * len(spec["algorithms"])

    def run(self) -> UnitResult:
        argv = ["simulate", "--campaign", self.path, "--out", self.out]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        seconds = time.perf_counter() - t0
        rows = self._read_rows() if code == 0 else []
        res = UnitResult(
            seconds=seconds,
            cells=len(rows),
            content=[(r["trial_id"], r["algorithm"], r["tests"], r["success"]) for r in rows],
            tests=[r["tests"] for r in rows],
            bits=[r["entropy"] for r in rows],
            successes=sum(r["success"] for r in rows),
        )
        res.check(code == 0 and len(rows) == self.cells, f"simulate exited {code} with {len(rows)} rows")
        groups: dict[tuple[float, str], list[dict]] = {}
        for r in rows:
            if r["algorithm"] not in SAMPLED:
                res.check(r["success"] == 1, f"trial {r['trial_id']} {r['algorithm']} did not recover")
            if r["algorithm"] in ADAPTIVE:
                groups.setdefault((r["mu"], r["algorithm"]), []).append(r)
        for (mu, algorithm), group in groups.items():
            tests = np.asarray([r["tests"] for r in group], dtype=float)
            se = tests.std(ddof=1) / math.sqrt(len(tests)) if len(tests) > 1 else 0.0
            ceiling = 2.0 * group[0]["entropy"] + 2.0 * mu + 3.0 * se
            res.check(tests.mean() <= ceiling, f"{algorithm} at mu={mu}: mean tests above 2H+2mu+3SE")
        return res

    def _read_rows(self) -> list[dict]:
        with open(self.out, newline="", encoding="utf-8") as fh:
            rows = [
                {
                    "trial_id": int(r["trial_id"]),
                    "algorithm": r["algorithm"],
                    "mu": float(r["mu"]),
                    "entropy": float(r["entropy"]),
                    "tests": int(r["tests"]),
                    "success": int(r["success"]),
                }
                for r in csv.DictReader(fh)
            ]
        os.unlink(self.out)
        summary = os.path.splitext(self.out)[0] + ".summary.csv"
        if os.path.exists(summary):
            os.unlink(summary)
        return rows


class OracleUnit:
    """One plan over a small prior through the exact E[T] enumeration, the
    exhaustive decode audit and the T2 ceiling."""

    def __init__(self, p: PriorVector, construction: str):
        self.p = p
        self.construction = construction

    def run(self) -> UnitResult:
        p = self.p
        t0 = time.perf_counter()
        plan = adaptive.build_plan(p, self.construction)
        exact = oracle.exact_expected_tests(plan, p)
        audit = oracle.exhaustive_decode_check(plan, p)
        ceiling = bounds.adaptive_expected_upper(p)
        res = UnitResult(
            seconds=time.perf_counter() - t0,
            cells=exact.terms + (1 << p.n),
            content=[repr(exact.value)],
            tests=[exact.value],
            bits=[p.entropy_bits],
            successes=int(audit.passed),
        )
        res.check(exact.value <= ceiling, f"n={p.n} {self.construction}: E[T] above 2H+2mu")
        res.check(audit.passed, f"n={p.n} {self.construction}: decode audit failed")
        return res


def build_units(workload: str, seed: int, workdir: str, tiny: bool = False) -> list:
    """Generate one cycle's inputs: campaign files or oracle priors."""
    if workload == "exact_oracle":
        return [OracleUnit(p, c) for p in oracle_priors(seed, tiny) for c in CONSTRUCTIONS]
    return [CampaignUnit(spec, workdir, k) for k, spec in enumerate(campaigns(workload, seed, tiny))]


def outcome_metrics(workload: str, cycle: list[UnitResult]) -> dict[str, float]:
    """tests_per_bit and success_rate of one full cycle: the mean of tests / H
    over campaign cells, or sum of E[T] over sum of H for the oracle plans;
    and the share of cells, or of audited plans, that recovered exactly."""
    tests = [t for r in cycle for t in r.tests]
    bits = [h for r in cycle for h in r.bits]
    if not tests:
        return {"tests_per_bit": 0.0, "success_rate": 0.0}
    if workload == "exact_oracle":
        tests_per_bit = math.fsum(tests) / math.fsum(bits)
    else:
        tests_per_bit = math.fsum(t / h for t, h in zip(tests, bits)) / len(tests)
    return {
        "tests_per_bit": tests_per_bit,
        "success_rate": sum(r.successes for r in cycle) / len(tests),
    }


def cycle_digest(cycle: list[UnitResult]) -> str:
    return hashlib.sha256("".join(r.digest() for r in cycle).encode()).hexdigest()
