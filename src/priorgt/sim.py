"""Monte Carlo harness: seeded campaigns, per-trial reports, CSV output.

A campaign fixes a prior family, a sweep of target expected-defective counts,
a trial count, and a list of algorithms.  Per-trial randomness is derived
from (base_seed, point_index, trial_index) through numpy's SeedSequence, so
results are reproducible regardless of execution order, and the truth vector
is shared by every algorithm within a trial.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import adaptive, nonadaptive
from .priors import PopulationVector, PriorVector, generate_prior

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
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.sweep:
            raise ValueError("sweep must contain at least one point")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {a!r}; expected one of {ALGORITHMS}")


def draw_truth(p: PriorVector, seed: int) -> PopulationVector:
    """Independent Bernoulli(p_i) draws, deterministic given the seed."""
    rng = np.random.default_rng(seed)
    return PopulationVector(rng.random(p.n) < p.as_array())


def _run_one(
    algorithm: str,
    p: PriorVector,
    truth: PopulationVector,
    seed: int,
    eps: float,
    delta: float,
    plan_cache: dict,
) -> tuple[int, bool]:
    if algorithm in _CONSTRUCTION:
        plan = plan_cache.get(algorithm)
        if plan is None:
            if algorithm.startswith("prepartitioned_"):
                plan = adaptive.build_prepartitioned_plan(p, eps, _CONSTRUCTION[algorithm])
            else:
                plan = adaptive.build_plan(p, _CONSTRUCTION[algorithm])
            plan_cache[algorithm] = plan
        result = adaptive.run_adaptive(plan, truth, eps=eps)
        return result.tests_used, result.recovered.matches(truth)
    if algorithm == "cca":
        t = nonadaptive.num_tests_cca(p, delta)
        g = plan_cache.get("cca_g")
        if g is None:
            g = nonadaptive.optimal_g(p)
            plan_cache["cca_g"] = g
        m = nonadaptive.build_cca_matrix(p, t, g, seed)
    elif algorithm == "block":
        m = nonadaptive.build_block_matrix(p, eps, delta, seed)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    _, rec = nonadaptive.run_nonadaptive(m, truth)
    return m.t, rec.matches(truth)


def run_campaign(campaign: Campaign) -> list[TrialReport]:
    """Execute every (sweep point, trial, algorithm) cell deterministically.

    The truth vector is drawn once per (point, trial) and shared across the
    algorithms; matrix-building randomness uses a second stream derived from
    the same trial seed.
    """
    reports: list[TrialReport] = []
    trial_id = 0
    for point_index, target_mu in enumerate(campaign.sweep):
        p = generate_prior(campaign.family, campaign.n, target_mu, rho=campaign.rho)
        h_bits = p.entropy_bits
        plan_cache: dict = {}
        for trial_index in range(campaign.trials):
            ss = np.random.SeedSequence([campaign.base_seed, point_index, trial_index])
            truth_seed, matrix_seed = (int(s) for s in ss.generate_state(2, dtype=np.uint64))
            truth = draw_truth(p, truth_seed)
            for algorithm in campaign.algorithms:
                tests, success = _run_one(
                    algorithm, p, truth, matrix_seed, campaign.eps, campaign.delta, plan_cache
                )
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


def fit_slope(points: Sequence[tuple[float, float]]) -> float:
    """Ordinary least squares slope of mean tests against entropy."""
    if len(points) < 2:
        raise ValueError("need at least two points")
    xs = np.asarray([x for x, _ in points], dtype=float)
    ys = np.asarray([y for _, y in points], dtype=float)
    if np.allclose(xs, xs[0]):
        raise ValueError("slope is undefined when every entropy value is equal")
    return float(np.polyfit(xs, ys, 1)[0])


def success_curve(
    p: PriorVector,
    algorithm: str,
    t_grid: Sequence[int],
    trials: int,
    seed: int,
    g: int | None = None,
) -> list[tuple[int, float]]:
    """Exact-recovery frequency at each row budget, one fresh matrix per
    trial.  Only the sampled design supports a free row budget; adaptive
    plans and the block design fix their own test counts."""
    if algorithm != "cca":
        raise ValueError("success curves require the 'cca' algorithm (free row budget)")
    if g is None:
        g = nonadaptive.optimal_g(p)
    out = []
    for ti, t in enumerate(t_grid):
        successes = 0
        for trial_index in range(trials):
            ss = np.random.SeedSequence([seed, ti, trial_index])
            truth_seed, matrix_seed = (int(s) for s in ss.generate_state(2, dtype=np.uint64))
            truth = draw_truth(p, truth_seed)
            m = nonadaptive.build_cca_matrix(p, int(t), g, matrix_seed)
            _, rec = nonadaptive.run_nonadaptive(m, truth)
            successes += rec.matches(truth)
        out.append((int(t), successes / trials))
    return out


@dataclass(frozen=True)
class TrendResult:
    s: int
    z: float
    p_value: float


def mann_kendall_increasing(values: Sequence[float]) -> TrendResult:
    """One-sided Mann-Kendall test against the null of no monotone trend.

    Small p favors an increasing trend; the variance uses the standard tie
    correction and the statistic a continuity correction.
    """
    vals = list(values)
    n = len(vals)
    s = 0
    for i in range(n):
        for j in range(i + 1, n):
            if vals[j] > vals[i]:
                s += 1
            elif vals[j] < vals[i]:
                s -= 1
    _, counts = np.unique(np.asarray(vals), return_counts=True)
    var = n * (n - 1) * (2 * n + 5) / 18.0 - sum(t * (t - 1) * (2 * t + 5) for t in counts) / 18.0
    if var <= 0.0:
        return TrendResult(s=s, z=0.0, p_value=1.0)
    z = (s - math.copysign(1, s)) / math.sqrt(var) if s != 0 else 0.0
    p_value = 1.0 - 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    return TrendResult(s=s, z=z, p_value=p_value)


def campaign_from_json_dict(data: dict) -> Campaign:
    try:
        return Campaign(
            family=data["family"],
            n=int(data["n"]),
            sweep=tuple(float(x) for x in data["sweep"]),
            trials=int(data["trials"]),
            algorithms=tuple(data["algorithms"]),
            base_seed=int(data.get("base_seed", 0)),
            eps=float(data.get("eps", 0.01)),
            delta=float(data.get("delta", 1.0)),
            rho=float(data.get("rho", 0.99)),
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


def summary_csv_text(rows: Sequence[dict]) -> str:
    lines = [",".join(SUMMARY_CSV_HEADER)]
    for row in rows:
        lines.append(
            ",".join(
                [
                    str(row["point_index"]),
                    row["algorithm"],
                    str(row["n"]),
                    repr(row["mu"]),
                    repr(row["entropy"]),
                    str(row["trials"]),
                    repr(row["mean_tests"]),
                    repr(row["std_tests"]),
                    repr(row["success_rate"]),
                ]
            )
        )
    return "\n".join(lines) + "\n"
