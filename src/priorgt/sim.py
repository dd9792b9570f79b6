"""Monte Carlo harness: seeded campaigns, per-point trial columns, CSV output.

A campaign fixes a prior family, a sweep of target expected-defective counts,
a trial count, and a list of algorithms, each a name in ``BUILDERS``, the
one table of what each algorithm builds; ``priorgt plan`` builds through it
too.  Per-trial randomness is derived from (base_seed, point_index,
trial_index) through numpy's SeedSequence, by :func:`trial_seeds`, so
results are reproducible regardless of execution order, and the truth
vector is shared by every algorithm within a trial.  A sweep point's
results are one :class:`PointTrials`, its trials' seeds and, per algorithm,
their tests and success as columns; both CSVs are written from these.
CSV cells follow :func:`csv_cell`, except in the trial CSV's hot f-string.

One trial loop, :func:`_run_trials`, serves campaigns and success curves.
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

from . import adaptive, nonadaptive, priors
from .bounds import check_delta
from .partition import measure_factor
from .priors import INT64_MAX, PriorVector, generate_prior, json_list, json_number, whole_number

# Each algorithm's builder of (p, eps, delta): a NestedPlan, or a SampledDesign
# whose placeholder seed 0 each trial replaces.  Builders look functions up on
# their module when called, so a patched module attribute is the one that runs.
BUILDERS = {
    "adaptive_me": lambda p, eps, delta: adaptive.build_plan(p, "max_entropy"),
    "adaptive_sf": lambda p, eps, delta: adaptive.build_plan(p, "shannon_fano"),
    "adaptive_huffman": lambda p, eps, delta: adaptive.build_plan(p, "huffman"),
    "prepartitioned_me": lambda p, eps, delta: adaptive.build_prepartitioned_plan(p, eps, "max_entropy"),
    "prepartitioned_sf": lambda p, eps, delta: adaptive.build_prepartitioned_plan(p, eps, "shannon_fano"),
    "prepartitioned_huffman": lambda p, eps, delta: adaptive.build_prepartitioned_plan(p, eps, "huffman"),
    "cca": lambda p, eps, delta: nonadaptive.cca_design(p, delta, seed=0),
    "block": lambda p, eps, delta: nonadaptive.sample_block(p, eps, delta, seed=0),
}
ALGORITHMS = tuple(BUILDERS)

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
class PointTrials:
    """One sweep point's trials as columns: each trial's truth seed, and for
    each algorithm, in campaign order, each trial's tests and exact recovery."""

    n: int
    mu: float
    entropy: float
    seeds: list[int]
    tests: dict[str, list[int]]
    success: dict[str, list[bool]]


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
    rho: float = priors.DEFAULT_EXPONENTIAL_DECAY

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


def _run_trials(p: PriorVector, built: dict, seeds: Sequence[tuple[int, int]], eps: float):
    """Each algorithm's tests and success columns, one entry per trial's
    (truth seed, matrix seed).  Each truth is drawn once and shared by every
    algorithm; ``built`` plans run on blocks of stacked truths, and each
    ``built`` design is measured with its trial's matrix seed."""
    tests = {a: [] for a in built}
    success = {a: [] for a in built}
    block = max(1, TRUTH_BLOCK_CELLS // p.n)
    for first in range(0, len(seeds), block):
        chunk = seeds[first : first + block]
        truths = [draw_truth(p, truth_seed) for truth_seed, _ in chunk]
        bits = np.stack(truths)
        for algorithm, obj in built.items():
            if isinstance(obj, adaptive.NestedPlan):
                result = adaptive.run_adaptive(obj, bits, eps=eps)
                tests[algorithm] += result.tests.tolist()
                success[algorithm] += (result.recovered == bits).all(axis=1).tolist()
            else:
                for truth, (_, matrix_seed) in zip(truths, chunk):
                    used, recovered = nonadaptive.measure_design(replace(obj, seed=matrix_seed), truth)
                    tests[algorithm].append(used)
                    success[algorithm].append(np.array_equal(recovered, truth))
    return tests, success


def run_campaign(campaign: Campaign) -> list[PointTrials]:
    """Execute every (sweep point, trial, algorithm) cell deterministically:
    one ``PointTrials`` per sweep point, in sweep order.  The truth vector is
    drawn once per (point, trial) and shared across the algorithms;
    design-sampling randomness uses the trial's second seed."""
    points = []
    for point_index, target_mu in enumerate(campaign.sweep):
        p = generate_prior(campaign.family, campaign.n, target_mu, rho=campaign.rho)
        built = {a: BUILDERS[a](p, campaign.eps, campaign.delta) for a in campaign.algorithms}
        seeds = [trial_seeds(campaign.base_seed, point_index, k) for k in range(campaign.trials)]
        tests, success = _run_trials(p, built, seeds, campaign.eps)
        points.append(PointTrials(campaign.n, p.mu, p.entropy_bits, [s for s, _ in seeds], tests, success))
    return points


def summarize(points: Sequence[PointTrials]) -> list[dict]:
    """Per (sweep point, algorithm) aggregates, in campaign order.
    Repeated sweep values stay separate points."""
    out = []
    for point_index, point in enumerate(points):
        for algorithm, column in point.tests.items():
            tests, trials = np.asarray(column, dtype=float), len(column)
            std = float(tests.std(ddof=1)) if trials > 1 else 0.0
            row = (point_index, algorithm, point.n, point.mu, point.entropy, trials, float(tests.mean()), std,
                   sum(point.success[algorithm]) / trials)
            out.append(dict(zip(SUMMARY_CSV_HEADER, row)))
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
        seeds = [trial_seeds(seed, ti, k) for k in range(trials)]
        _, success = _run_trials(p, {"cca": nonadaptive.sample_cca(p, t, g, seed=0)}, seeds, eps=0.0)
        out.append((t, sum(success["cca"]) / trials))
    return out


def campaign_from_json_dict(data: dict) -> Campaign:
    """Parse a campaign object.  ``sweep`` and ``algorithms`` must be JSON
    lists, and sweep points, eps, delta and rho JSON numbers: anything else,
    numeric strings and booleans included, raises ValueError.  A key left
    out takes its ``Campaign`` default."""
    try:
        return Campaign(
            family=data["family"],
            n=data["n"],
            sweep=tuple(json_number("sweep point", x) for x in json_list("sweep", data["sweep"])),
            trials=data["trials"],
            algorithms=tuple(json_list("algorithms", data["algorithms"])),
            **({"base_seed": data["base_seed"]} if "base_seed" in data else {}),
            **{key: json_number(key, data[key]) for key in ("eps", "delta", "rho") if key in data},
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed campaign JSON: {exc!r}") from exc


def load_campaign(path: str) -> Campaign:
    with open(path, "r", encoding="utf-8") as fh:
        return campaign_from_json_dict(json.load(fh))


def trials_csv_text(points: Sequence[PointTrials]) -> str:
    """One row per (point, trial, algorithm) cell, in that order; trial ids
    count the trials of every point in turn."""
    lines = [",".join(TRIALS_CSV_HEADER)]
    trial_id = 0
    for point in points:
        shared = f"{point.n},{point.mu!r},{point.entropy!r}"
        columns = [(algorithm, tests, point.success[algorithm]) for algorithm, tests in point.tests.items()]
        for k, seed in enumerate(point.seeds):
            for algorithm, tests, success in columns:
                lines.append(f"{trial_id},{seed},{algorithm},{shared},{tests[k]},{int(success[k])}")
            trial_id += 1
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
