"""Non-adaptive designs: sampled test matrices and the negative-test decoder.

Each test is a row of a boolean matrix.  Rows are drawn by sampling item ids
with replacement from a distribution that favors likely non-defectives,
``(1 - p_i) / (n - mu)``, a fixed number ``g`` of times per row; the optimal
``g`` balances how many items a row covers against the chance the row comes
back negative.  Decoding clears every item that appears in a negative row and
declares the rest defective, a one-sided rule that never misses a true
defective.

The block design applies the same sampler independently inside each ample
band of a pre-partition, giving the matrix a direct-sum shape; zero-set items
get no rows and are cleared by the decoder directly, while tail and
under-sized-band items get one singleton row each.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .partition import build_partition
from .priors import PopulationVector, PriorVector


def sampling_distribution(p: PriorVector) -> np.ndarray:
    """Row-sampling distribution (1 - p_i) / (n - mu); sums to one."""
    if p.mu >= p.n:
        raise ValueError("sampling distribution is degenerate when every item is certainly defective")
    return (1.0 - p.as_array()) / (p.n - p.mu)


def _restricted_distribution(p: PriorVector, items: Sequence[int]) -> np.ndarray:
    probs = np.asarray([p.probs[i] for i in items])
    mass = len(items) - math.fsum(probs)
    if mass <= 0.0:
        raise ValueError("sampling distribution is degenerate on this subset")
    return (1.0 - probs) / mass


def _optimal_g_from(weights: np.ndarray, probs: np.ndarray) -> int:
    inner = float(np.dot(weights, 1.0 - probs))
    if not (0.0 < inner < 1.0):
        raise ValueError(f"per-draw miss probability must lie in (0, 1); got {inner}")
    # Nearest integer, never below one.
    return max(1, int(math.floor(-1.0 / math.log(inner) + 0.5)))


def optimal_g(p: PriorVector) -> int:
    """Per-row draw count -1/ln(sum p_hat_i (1 - p_i)), rounded to the
    nearest integer with a floor of one."""
    return _optimal_g_from(sampling_distribution(p), p.as_array())


def num_tests_cca(p: PriorVector, delta: float) -> int:
    """Row budget ceil(4e (1+delta) mu ln n) for full-vector recovery with
    failure probability about n**-delta.

    The guarantee needs every p_i below 1/2; a warning is emitted otherwise
    and the count is still returned.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if p.max_prob >= 0.5:
        warnings.warn(
            "recovery guarantee void: some prior probability is at least 1/2",
            stacklevel=2,
        )
    if p.mu == 0.0 or p.n == 1:
        return 0
    return math.ceil(4.0 * math.e * (1.0 + delta) * p.mu * math.log(p.n))


@dataclass(frozen=True)
class BlockSpan:
    """Row range [row_lo, row_hi) whose supports stay inside ``items``."""

    row_lo: int
    row_hi: int
    items: tuple[int, ...]
    label: str


@dataclass(frozen=True)
class TestMatrix:
    """Sparse row-set representation of a boolean test matrix.

    ``rows`` holds one sorted integer array of item ids per test; treat the
    arrays as read-only.  ``zero_assigned`` lists items the decoder clears
    directly without any covering row.
    """

    __test__ = False  # not a pytest class, despite the name

    n: int
    rows: tuple[np.ndarray, ...]
    block_spans: tuple[BlockSpan, ...] | None = None
    zero_assigned: frozenset[int] = frozenset()

    def __post_init__(self):
        for row in self.rows:
            if len(row) and (row.min() < 0 or row.max() >= self.n):
                raise ValueError("row contains an item id outside 0..n-1")

    @property
    def t(self) -> int:
        return len(self.rows)


def _sample_rows(rng: np.random.Generator, weights: np.ndarray, t: int, g: int) -> list[np.ndarray]:
    """Draw t rows of g ids each with replacement; duplicates collapse to set
    membership.  Inverse-CDF sampling keeps the exact distribution."""
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0
    draws = np.searchsorted(cdf, rng.random((t, g)), side="right")
    return [np.unique(row) for row in draws]


def build_cca_matrix(p: PriorVector, t: int, g: int, seed: int) -> TestMatrix:
    """Sample a t-row matrix with g draws per row from the whole-vector
    sampling distribution.  Deterministic given the seed."""
    if t < 1:
        raise ValueError("t must be at least 1")
    if g < 1:
        raise ValueError("g must be at least 1")
    rng = np.random.default_rng(seed)
    rows = _sample_rows(rng, sampling_distribution(p), t, g)
    return TestMatrix(n=p.n, rows=tuple(rows))


def build_block_matrix(p: PriorVector, eps: float, delta: float, seed: int) -> TestMatrix:
    """Direct sum of per-band sampled matrices over a pre-partition.

    Every ample band gets ceil(4e (1+delta) mu_s ln n_s) rows drawn from its
    own restricted distribution with its own optimal g; under-sized bands and
    the tail get one singleton row per item; zero-set items are passed to the
    decoder as cleared.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    part = build_partition(p, eps)
    rng = np.random.default_rng(seed)
    rows: list[np.ndarray] = []
    spans: list[BlockSpan] = []

    for k, band in enumerate(part.ample_bands()):
        n_s = band.size
        mu_s = p.restricted_mu(band.items)
        t_s = 0 if n_s == 1 else math.ceil(4.0 * math.e * (1.0 + delta) * mu_s * math.log(n_s))
        if t_s == 0:
            continue
        weights = _restricted_distribution(p, band.items)
        probs = np.asarray([p.probs[i] for i in band.items])
        g_s = _optimal_g_from(weights, probs)
        local = np.asarray(band.items, dtype=np.int64)
        row_lo = len(rows)
        for row in _sample_rows(rng, weights, t_s, g_s):
            rows.append(local[row])
        spans.append(BlockSpan(row_lo=row_lo, row_hi=len(rows), items=band.items, label=f"band{k}"))

    route = part.individual_route()
    if route:
        row_lo = len(rows)
        for i in route:
            rows.append(np.asarray([i], dtype=np.int64))
        spans.append(BlockSpan(row_lo=row_lo, row_hi=len(rows), items=route, label="individual"))

    return TestMatrix(
        n=p.n,
        rows=tuple(rows),
        block_spans=tuple(spans),
        zero_assigned=frozenset(part.zero_items),
    )


def decode_comp(
    m: TestMatrix,
    outcomes: Sequence[int],
    zero_assigned: frozenset[int] | set[int] | None = None,
) -> PopulationVector:
    """Clear every item seen in a negative row (plus the pre-cleared set);
    declare everything else defective."""
    if len(outcomes) != m.t:
        raise ValueError(f"got {len(outcomes)} outcomes for {m.t} rows")
    if zero_assigned is None:
        zero_assigned = m.zero_assigned
    cleared = np.zeros(m.n, dtype=bool)
    negatives = [m.rows[i] for i, y in enumerate(outcomes) if not y]
    if negatives:
        cleared[np.unique(np.concatenate(negatives))] = True
    for i in zero_assigned:
        cleared[i] = True
    return PopulationVector(~cleared)


def run_nonadaptive(
    m: TestMatrix, truth: PopulationVector
) -> tuple[tuple[int, ...], PopulationVector]:
    """Measure every row against the truth (noiseless OR) and decode."""
    if truth.n != m.n:
        raise ValueError(f"truth length {truth.n} does not match matrix width {m.n}")
    truth_arr = truth.as_array()
    outcomes = tuple(int(truth_arr[row].any()) for row in m.rows)
    return outcomes, decode_comp(m, outcomes)


def matrix_to_json_dict(m: TestMatrix) -> dict:
    out: dict = {"n": m.n, "rows": [[int(i) for i in row] for row in m.rows]}
    if m.block_spans is not None:
        out["blocks"] = [
            {"row_lo": s.row_lo, "row_hi": s.row_hi, "items": list(s.items), "label": s.label}
            for s in m.block_spans
        ]
    if m.zero_assigned:
        out["zero_assigned"] = sorted(m.zero_assigned)
    return out


def matrix_from_json_dict(data: dict) -> TestMatrix:
    spans = None
    if "blocks" in data:
        spans = tuple(
            BlockSpan(
                row_lo=int(b["row_lo"]),
                row_hi=int(b["row_hi"]),
                items=tuple(int(i) for i in b["items"]),
                label=str(b["label"]),
            )
            for b in data["blocks"]
        )
    return TestMatrix(
        n=int(data["n"]),
        rows=tuple(np.asarray(sorted(int(i) for i in row), dtype=np.int64) for row in data["rows"]),
        block_spans=spans,
        zero_assigned=frozenset(int(i) for i in data.get("zero_assigned", [])),
    )


def write_matrix_edge_csv(path: str, m: TestMatrix) -> None:
    """Compact (row_id, item_id) edge list."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row_id", "item_id"])
        for r, row in enumerate(m.rows):
            for i in row:
                writer.writerow([r, int(i)])


def write_outcomes_csv(path: str, outcomes: Sequence[int]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row_id", "outcome"])
        for r, y in enumerate(outcomes):
            writer.writerow([r, int(y)])
