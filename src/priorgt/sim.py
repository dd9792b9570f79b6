"""Monte Carlo harness: seeded campaigns, per-point trial columns, CSV output.

A campaign fixes a prior family, a sweep of target expected-defective counts,
a trial count, and a list of algorithms, each a name in ``BUILDERS``, the
one table of what each algorithm builds; ``priorgt plan`` builds through it
too.  Per-trial randomness is derived from (base_seed, point_index,
trial_index) through numpy's SeedSequence, so results are reproducible
regardless of execution order, and the truth vector is shared by every
algorithm within a trial.  A trial's truth is ``default_rng(truth
seed).random(n) < p``.  Both are computed without building a SeedSequence:
:func:`trial_seeds` hashes a sweep point's (base_seed, point_index,
trial_index) words in one numpy pass, :func:`draw_truth` hashes a block's
truth seeds into each generator's four PCG64 words in another, and numpy
seeds each ``PCG64`` from its words.  The results are numpy's bit for bit,
and a test pins them against numpy's own seeding.  A sweep point's
results are one :class:`PointTrials`, its trials' seeds and, per algorithm,
their tests and success as columns; both CSVs are written from these.
CSV cells follow :func:`csv_cell`, except in the trial CSV's hot f-string.

One trial loop, :func:`_run_trials`, serves campaigns and success curves.
Every plan, whole-vector or pre-partitioned, is built once per sweep point
and run by ``adaptive.run_adaptive`` on a block of trials' truths, drawn by
one :func:`draw_truth` call, one run per plan and block.  The executor
counts a block several truths to a 64-bit word, so a wider block costs it
less per truth.  A block holds at most ``TRUTH_BLOCK_CELLS`` truth bits, 32
trials at n = 1000, or one trial when n is larger, so memory does not grow
with the trial count.

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

import functools
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


def _word_count(x: int) -> int:
    """How many 32-bit words numpy's SeedSequence reads from a whole number:
    its little-endian digits base 2**32, at least one."""
    return (max(x.bit_length(), 1) + 31) // 32


def _entropy_words(head: Sequence[int], values: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The entropy words of the sequence ``[*head, v]`` for each ``v`` of
    ``values``: a (W, T) uint32 array with column t zero past its own word
    count, and those counts."""
    prefix = [x >> s & 0xFFFFFFFF for x in head for s in range(0, 32 * _word_count(x), 32)]
    tail = [[v >> s & 0xFFFFFFFF for v in values] for s in range(0, 32 * _word_count(max(values, default=0)), 32)]
    widths = [len(prefix) + _word_count(v) for v in values]
    return np.array([*([w] * len(values) for w in prefix), *tail], dtype=np.uint32), np.array(widths)


def _products(first: int, factor: int, count: int) -> list[int]:
    """first * factor**i mod 2**32 for i = 0..count."""
    out = [first]
    for _ in range(count):
        out.append(out[-1] * factor & 0xFFFFFFFF)
    return out


def _calls(words: list[int], calls) -> tuple[np.ndarray, np.ndarray]:
    """The read-only (XOR, multiplier) uint32 columns of the hash calls
    ``calls``: call i XORs with ``words[i]`` and multiplies by
    ``words[i + 1]``."""
    columns = tuple(np.array([words[k + j] for k in calls], dtype=np.uint32)[:, None] for j in (0, 1))
    for column in columns:
        column.flags.writeable = False
    return columns


@functools.cache
def _hash_steps(width: int, n_words: int):
    """numpy's SeedSequence constants for :func:`_seed_state`, one pair of
    columns per array operation.  Mixing in runs hashmix calls 0, 1, 2, ...
    on constants ``a``: calls 0-3 fill the pool, calls 4-15 mix each pool
    word into the other three in turn, and entropy word i >= 4 takes calls
    4i to 4i + 3, one into each pool word.  In a mixing round the source's
    own row takes a placeholder call, and keeps its value.  State word i is
    pool word i mod 4 hashed with call i on constants ``b``."""
    a = _products(0x43B0D7E5, 0x931E8875, 4 * max(width, 4))
    b = _products(0x8B51F9DD, 0x58F38DED, n_words)
    fill = _calls(a, range(4))
    rounds = [_calls(a, [4 + 3 * src + min(d - (d > src), 2) for d in range(4)]) for src in range(4)]
    extra = [_calls(a, range(4 * i, 4 * i + 4)) for i in range(4, width)]
    return fill, rounds, extra, _calls(b, range(n_words))


def _seed_state(entropy: np.ndarray, widths: np.ndarray, n_words: int) -> np.ndarray:
    """numpy's ``SeedSequence(words).generate_state(n_words)`` for the words
    of every column of ``entropy``, as (n_words, T) uint32: each column's
    first ``widths[t]`` entries are its words, and the rest are zero.

    The sequence's pool of four words is one (4, T) array, and each hashmix
    step updates all of it at once: the fill (a missing word hashes as 0),
    the four rounds that mix one pool word into the other three, and each
    entropy word past the fourth, which only columns that hold it take."""
    width, trials = entropy.shape
    fill, rounds, extra, out = _hash_steps(width, n_words)
    left, right, shift = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)

    def hashmix(value, xor, factor):
        value = (value ^ xor) * factor
        return value ^ value >> shift

    def mix(x, y):
        value = left * x - right * y
        return value ^ value >> shift

    pool = np.zeros((4, trials), dtype=np.uint32)
    pool[: min(width, 4)] = entropy[:4]
    pool = hashmix(pool, *fill)
    for src, calls in enumerate(rounds):
        mixed = mix(pool, hashmix(pool[src], *calls))
        mixed[src] = pool[src]
        pool = mixed
    for i, calls in enumerate(extra, 4):
        pool = np.where(i < widths, mix(pool, hashmix(entropy[i], *calls)), pool)
    return hashmix(np.tile(pool, (-(-n_words // 4), 1))[:n_words], *out)


def _uint64(words: np.ndarray) -> np.ndarray:
    """Rows of uint32 words paired little-endian into rows of uint64."""
    return words[0::2] | words[1::2].astype(np.uint64) << 32


@functools.cache
def _state_words() -> type:
    """A seed sequence class whose state words are already computed:
    ``PCG64`` asks it for its four uint64 words and seeds itself from them.
    It is defined on first use, since importing ``numpy.random`` costs
    about 10 ms and 6 MB, which commands that draw nothing need not pay."""
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return StateWords


def draw_truth(p: PriorVector, seed: int | Sequence[int]) -> np.ndarray:
    """Independent Bernoulli(p_i) draws, deterministic given the seed, as a
    read-only bool array that every algorithm of a trial shares: for one
    seed, the (n,) truth ``default_rng(seed).random(n) < p.probs``; for a
    sequence of T seeds, the (T, n) block of their truths.  Each seed is a
    whole number of at least 0.  A block's generator words are hashed in
    one pass, and numpy's ``PCG64`` seeds each row's generator from them."""
    one = np.ndim(seed) == 0
    seeds = [whole_number("seed", s, 0, math.inf) for s in ([seed] if one else seed)]
    state = np.ascontiguousarray(_uint64(_seed_state(*_entropy_words((), seeds), 8)).T)
    truths = np.empty((len(seeds), p.n), dtype=bool)
    state_words = _state_words()
    for row, words in zip(truths, state):
        np.less(np.random.Generator(np.random.PCG64(state_words(words))).random(p.n), p.probs, out=row)
    truths.flags.writeable = False
    return truths[0] if one else truths


def trial_seeds(base_seed: int, point_index: int, trials: int) -> list[tuple[int, int]]:
    """Each trial's (truth seed, matrix seed) at a sweep point: the two
    64-bit words of numpy's SeedSequence of (base_seed, point_index,
    trial_index), for trial_index = 0 .. trials - 1, hashed in one pass."""
    words = _seed_state(*_entropy_words((base_seed, point_index), range(trials)), 4)
    return list(zip(*_uint64(words).tolist()))


def _run_trials(p: PriorVector, built: dict, seeds: Sequence[tuple[int, int]], eps: float):
    """Each algorithm's tests and success columns, one entry per trial's
    (truth seed, matrix seed).  Each truth is drawn once and shared by every
    algorithm; ``built`` plans run on blocks of truths, and each
    ``built`` design is measured with its trial's matrix seed."""
    tests = {a: [] for a in built}
    success = {a: [] for a in built}
    block = max(1, TRUTH_BLOCK_CELLS // p.n)
    for first in range(0, len(seeds), block):
        chunk = seeds[first : first + block]
        bits = draw_truth(p, [truth_seed for truth_seed, _ in chunk])
        for algorithm, obj in built.items():
            if isinstance(obj, adaptive.NestedPlan):
                result = adaptive.run_adaptive(obj, bits, eps=eps)
                tests[algorithm] += result.tests.tolist()
                success[algorithm] += (result.recovered == bits).all(axis=1).tolist()
            else:
                for truth, (_, matrix_seed) in zip(bits, chunk):
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
        seeds = trial_seeds(campaign.base_seed, point_index, campaign.trials)
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
    trial count and each budget must be whole numbers of at least 1, and
    the seed one of at least 0."""
    trials, seed = whole_number("trials", trials), whole_number("seed", seed, 0, math.inf)
    t_grid = [whole_number(f"t_grid[{ti}]", t) for ti, t in enumerate(t_grid)]
    g = nonadaptive.optimal_g(p)
    out = []
    for ti, t in enumerate(t_grid):
        seeds = trial_seeds(seed, ti, trials)
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
