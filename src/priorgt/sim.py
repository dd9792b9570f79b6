"""Monte Carlo harness: seeded campaigns, per-trial reports, CSV output.

A campaign fixes a prior family, a sweep of target expected-defective counts,
a trial count, and a list of algorithms.  Per-trial randomness is derived
from (base_seed, point_index, trial_index) through numpy's SeedSequence,
by :func:`trial_seeds`, so results are reproducible regardless of execution
order, and the truth vector is shared by every algorithm within a trial.
CSV cells follow :func:`csv_cell`, except in the trial CSV's hot f-string.

Every plan, whole-vector or pre-partitioned, is built once per sweep point
and run by ``adaptive.run_adaptive`` on the stacked truths of a block of
trials, one call per plan and block.  The executor counts a block several
truths to a 64-bit word, so a wider block costs it less per truth.  A block
holds at most ``TRUTH_BLOCK_CELLS`` truth bits, 32 trials at n = 1000, or
one trial when n is larger, so memory does not grow with the trial count.

The sampled and block designs' laws (the partition, sampling CDFs, guide
tables and row counts) are likewise built once per sweep point, or once
per row budget in a success curve.  Each trial gives the law only its own
matrix seed and measures the draws chunk by chunk: outcomes and the COMP
decode need no sorted, deduplicated rows, so no ``TestMatrix`` is built.
Measuring stops drawing a block once every clear item in it is cleared and
skips its unread uniforms, which cannot change the decode or the ids of
later blocks; a block that holds no defective is read as one stream of
draws and may stop mid-row.  The reported tests still count every row of
the design.
Matrices remain for ``priorgt plan`` and the oracle, are always drawn in
full, and running one gives the same tests and recovery on the same seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import adaptive, nonadaptive
from .bounds import check_delta
from .partition import measure_factor
from .priors import INT64_MAX, PriorVector, generate_prior, json_list, json_number, whole_number

ALGORITHMS = (
    "adaptive_me",
    "adaptive_sf",
    "adaptive_huffman",
    "prepartitioned_me",
    "prepartitioned_sf",
    "prepartitioned_huffman",
    "cca",
    "block",
)

_CONSTRUCTION = {
    "adaptive_me": "max_entropy",
    "adaptive_sf": "shannon_fano",
    "adaptive_huffman": "huffman",
    "prepartitioned_me": "max_entropy",
    "prepartitioned_sf": "shannon_fano",
    "prepartitioned_huffman": "huffman",
}

# Upper bound on trials x n in one block of stacked truths.  At n = 1000,
# blocks of 2^16 cells ran no faster than 2^15 and raised a campaign's peak
# RSS by 0.3-0.4 MiB, beyond its run-to-run noise.
TRUTH_BLOCK_CELLS = 1 << 15

TRIALS_CSV_HEADER = ["trial_id", "seed", "algorithm", "n", "mu", "entropy", "tests", "success"]
SUMMARY_CSV_HEADER = [
    "point_index",
    "algorithm",
    "n",
    "mu",
    "entropy",
    "trials",
    "mean_tests",
    "std_tests",
    "success_rate",
]


@dataclass(frozen=True)
class TrialReport:
    point_index: int
    trial_id: int
    seed: int
    algorithm: str
    n: int
    mu: float
    entropy: float
    tests: int
    success: bool


@dataclass(frozen=True)
class Campaign:
    family: str
    n: int
    sweep: tuple[float, ...]
    trials: int
    algorithms: tuple[str, ...]
    base_seed: int = 0
    eps: float = 0.01
    delta: float = 1.0
    rho: float = 0.99

    def __post_init__(self):
        for name, least, most in (("n", 1, INT64_MAX), ("trials", 1, INT64_MAX), ("base_seed", 0, math.inf)):
            object.__setattr__(self, name, whole_number(name, getattr(self, name), least, most))
        if not (math.isfinite(self.eps) and self.eps >= 0.0):
            raise ValueError(f"eps must be finite and at least 0, got {self.eps!r}")
        check_delta(self.delta)
        if not self.sweep:
            raise ValueError("sweep must contain at least one point")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {a!r}; expected one of {ALGORITHMS}")
        if not self.algorithms or len(set(self.algorithms)) < len(self.algorithms):
            raise ValueError(f"algorithms must list at least one algorithm, each once; got {list(self.algorithms)}")
        partitioned = [a for a in self.algorithms if a == "block" or a.startswith("prepartitioned_")]
        if partitioned:
            try:
                measure_factor(self.n, self.eps)
            except ValueError as exc:
                raise ValueError(f"eps={self.eps!r} cannot partition n={self.n} for {partitioned}: {exc}") from None


def draw_truth(p: PriorVector, seed: int) -> np.ndarray:
    """Independent Bernoulli(p_i) draws, deterministic given the seed, as a
    read-only bool array: every algorithm of a trial shares it."""
    truth = np.random.default_rng(seed).random(p.n) < p.probs
    truth.flags.writeable = False
    return truth


def trial_seeds(base_seed: int, point_index: int, trial_index: int) -> tuple[int, int]:
    """A trial's (truth seed, matrix seed): the two 64-bit words of the
    SeedSequence of (base_seed, point_index, trial_index)."""
    words = np.random.SeedSequence([base_seed, point_index, trial_index]).generate_state(2, dtype=np.uint64)
    return int(words[0]), int(words[1])


def run_campaign(campaign: Campaign) -> list[TrialReport]:
    """Execute every (sweep point, trial, algorithm) cell deterministically.

    The truth vector is drawn once per (point, trial) and shared across the
    algorithms; design-sampling randomness uses a second stream derived from
    the same trial seed.  Reports come in (point, trial, algorithm) order.
    """
    reports: list[TrialReport] = []
    trial_id = 0
    block = max(1, TRUTH_BLOCK_CELLS // campaign.n)
    for point_index, target_mu in enumerate(campaign.sweep):
        p = generate_prior(campaign.family, campaign.n, target_mu, rho=campaign.rho)
        h_bits = p.entropy_bits
        # Sampled designs are kept as laws: seed 0 is a placeholder that each
        # trial replaces with its matrix seed.
        plans, laws = {}, {}
        for a in campaign.algorithms:
            if a.startswith("adaptive_"):
                plans[a] = adaptive.build_plan(p, _CONSTRUCTION[a])
            elif a.startswith("prepartitioned_"):
                plans[a] = adaptive.build_prepartitioned_plan(p, campaign.eps, _CONSTRUCTION[a])
            elif a == "cca":
                laws[a] = nonadaptive.cca_design(p, campaign.delta, seed=0)
            else:
                laws[a] = nonadaptive.sample_block(p, campaign.eps, campaign.delta, seed=0)
        for first in range(0, campaign.trials, block):
            seeds, truths = [], []
            for trial_index in range(first, min(first + block, campaign.trials)):
                seeds.append(trial_seeds(campaign.base_seed, point_index, trial_index))
                truths.append(draw_truth(p, seeds[-1][0]))
            bits = np.stack(truths)
            runs = {}
            for algorithm, plan in plans.items():
                result = adaptive.run_adaptive(plan, bits, eps=campaign.eps)
                runs[algorithm] = list(zip(result.tests.tolist(), (result.recovered == bits).all(axis=1).tolist()))
            for k, (truth, (truth_seed, matrix_seed)) in enumerate(zip(truths, seeds)):
                for algorithm in campaign.algorithms:
                    if algorithm in runs:
                        tests, success = runs[algorithm][k]
                    else:
                        tests, recovered = nonadaptive.measure_design(replace(laws[algorithm], seed=matrix_seed), truth)
                        success = np.array_equal(recovered, truth)
                    reports.append(
                        TrialReport(
                            point_index=point_index,
                            trial_id=trial_id,
                            seed=truth_seed,
                            algorithm=algorithm,
                            n=campaign.n,
                            mu=p.mu,
                            entropy=h_bits,
                            tests=tests,
                            success=success,
                        )
                    )
                trial_id += 1
    return reports


def summarize(reports: Sequence[TrialReport]) -> list[dict]:
    """Per (sweep point, algorithm) aggregates in first-appearance order.
    Repeated sweep values stay separate points."""
    groups: dict[tuple[int, str], list[TrialReport]] = {}
    for r in reports:
        groups.setdefault((r.point_index, r.algorithm), []).append(r)
    out = []
    for (point_index, algorithm), rows in groups.items():
        tests = np.asarray([r.tests for r in rows], dtype=float)
        out.append(
            {
                "point_index": point_index,
                "algorithm": algorithm,
                "n": rows[0].n,
                "mu": rows[0].mu,
                "entropy": rows[0].entropy,
                "trials": len(rows),
                "mean_tests": float(tests.mean()),
                "std_tests": float(tests.std(ddof=1)) if len(rows) > 1 else 0.0,
                "success_rate": sum(r.success for r in rows) / len(rows),
            }
        )
    return out


def success_curve(p: PriorVector, t_grid: Sequence[int], trials: int, seed: int) -> list[tuple[int, float]]:
    """Exact-recovery frequency of the sampled design at each row budget,
    with ``optimal_g(p)`` draws per row: one draw per trial from the law
    built for that budget.  Only the sampled design has a free row budget;
    adaptive plans and the block design fix their own test counts.  The
    trial count and each budget must be whole numbers of at least 1."""
    trials = whole_number("trials", trials)
    t_grid = [whole_number(f"t_grid[{ti}]", t) for ti, t in enumerate(t_grid)]
    g = nonadaptive.optimal_g(p)
    out = []
    for ti, t in enumerate(t_grid):
        law = nonadaptive.sample_cca(p, t, g, seed=0)
        successes = 0
        for trial_index in range(trials):
            truth_seed, matrix_seed = trial_seeds(seed, ti, trial_index)
            truth = draw_truth(p, truth_seed)
            _, rec = nonadaptive.measure_design(replace(law, seed=matrix_seed), truth)
            successes += np.array_equal(rec, truth)
        out.append((t, successes / trials))
    return out


def campaign_from_json_dict(data: dict) -> Campaign:
    """Parse a campaign object.  ``sweep`` and ``algorithms`` must be JSON
    lists, and sweep points, eps, delta and rho JSON numbers: anything else,
    numeric strings and booleans included, raises ValueError."""
    try:
        return Campaign(
            family=data["family"],
            n=data["n"],
            sweep=tuple(json_number("sweep point", x) for x in json_list("sweep", data["sweep"])),
            trials=data["trials"],
            algorithms=tuple(json_list("algorithms", data["algorithms"])),
            base_seed=data.get("base_seed", 0),
            eps=json_number("eps", data.get("eps", 0.01)),
            delta=json_number("delta", data.get("delta", 1.0)),
            rho=json_number("rho", data.get("rho", 0.99)),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed campaign JSON: {exc!r}") from exc


def load_campaign(path: str) -> Campaign:
    with open(path, "r", encoding="utf-8") as fh:
        return campaign_from_json_dict(json.load(fh))


def trials_csv_text(reports: Sequence[TrialReport]) -> str:
    lines = [",".join(TRIALS_CSV_HEADER)]
    for r in reports:
        lines.append(
            f"{r.trial_id},{r.seed},{r.algorithm},{r.n},{r.mu!r},{r.entropy!r},{r.tests},{int(r.success)}"
        )
    return "\n".join(lines) + "\n"


def csv_cell(value) -> str:
    """One CSV cell: a bool as 0/1, a float by ``repr``, anything else as
    text with ``,`` turned into ``;``."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value).replace(",", ";")


def csv_text(header: Sequence[str], rows) -> str:
    """The header line, then one line of :func:`csv_cell` cells per row."""
    return "".join(",".join(map(csv_cell, row)) + "\n" for row in [header, *rows])


def summary_csv_text(rows: Sequence[dict]) -> str:
    return csv_text(SUMMARY_CSV_HEADER, ([row[key] for key in SUMMARY_CSV_HEADER] for row in rows))
