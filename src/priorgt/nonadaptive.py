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

A matrix is stored in compressed sparse row form, so every row is measured
from one prefix count of the truth and every negative row is cleared in one
scatter.  Repeated draws change neither, so sampled rows keep each id once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .partition import build_partition
from .priors import PopulationVector, PriorVector


def sampling_distribution(p: PriorVector) -> np.ndarray:
    """Row-sampling distribution (1 - p_i) / (n - mu); sums to one."""
    return _distribution(p.as_array(), p.n - p.mu)


def _distribution(probs: np.ndarray, mass: float) -> np.ndarray:
    if mass <= 0.0:
        raise ValueError("sampling distribution is degenerate when every item is certainly defective")
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
    _check_delta(delta)
    if p.max_prob >= 0.5:
        warnings.warn(
            "recovery guarantee void: some prior probability is at least 1/2",
            stacklevel=2,
        )
    if p.mu == 0.0 or p.n == 1:
        return 0
    return _row_budget(p.mu, p.n, delta)


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")


def _row_budget(mu: float, n: int, delta: float) -> int:
    """ceil(4e (1+delta) mu ln n), refused when the product overflows."""
    budget = 4.0 * math.e * (1.0 + delta) * mu * math.log(n)
    if not math.isfinite(budget):
        raise ValueError(f"row budget 4e(1+delta) mu ln n overflows at delta={delta!r}")
    return math.ceil(budget)


@dataclass(frozen=True)
class BlockSpan:
    """Row range [row_lo, row_hi) whose supports stay inside ``items``."""

    row_lo: int
    row_hi: int
    items: tuple[int, ...]
    label: str


@dataclass(frozen=True, eq=False)
class TestMatrix:
    """A boolean test matrix in compressed sparse row form.

    Row r tests ``indices[indptr[r]:indptr[r+1]]``, in build order: ascending
    for sampled rows, band order in the block design.  Both arrays are
    read-only int64.  ``zero_assigned`` lists items the decoder clears
    directly without any covering row.  Matrices compare by value and are
    unhashable.
    """

    __test__ = False  # not a pytest class, despite the name

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    block_spans: tuple[BlockSpan, ...] | None = None
    zero_assigned: frozenset[int] = frozenset()

    def __post_init__(self):
        for name in ("indptr", "indices"):
            arr = np.array(getattr(self, name), dtype=np.int64)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "zero_assigned", frozenset(self.zero_assigned))
        indptr, indices = self.indptr, self.indices
        if len(indptr) == 0 or indptr[0] != 0 or indptr[-1] != len(indices) or (np.diff(indptr) < 0).any():
            raise ValueError("indptr must start at 0, never decrease and end at len(indices)")
        if len(indices) and (indices.min() < 0 or indices.max() >= self.n):
            raise ValueError("row contains an item id outside 0..n-1")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TestMatrix):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and self.block_spans == other.block_spans
            and self.zero_assigned == other.zero_assigned
        )

    @classmethod
    def from_rows(cls, n: int, rows: Sequence[Sequence[int]], **fields) -> "TestMatrix":
        """Build a matrix from one sequence of item ids per row."""
        arrays = [np.zeros(0, dtype=np.int64)] + [np.asarray(row, dtype=np.int64) for row in rows]
        return cls(n, np.cumsum([len(a) for a in arrays]), np.concatenate(arrays), **fields)

    @property
    def t(self) -> int:
        return len(self.indptr) - 1

    @cached_property
    def rows(self) -> tuple[np.ndarray, ...]:
        """One read-only view into ``indices`` per row."""
        return tuple(np.split(self.indices, self.indptr[1:-1])) if self.t else ()


def _sample_rows(rng: np.random.Generator, weights: np.ndarray, t: int, g: int) -> tuple[np.ndarray, ...]:
    """Draw t rows of g ids each with replacement as CSR ``(indptr, indices)``;
    duplicates collapse to set membership, leaving each row's ids ascending.
    Inverse-CDF sampling keeps the exact distribution."""
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0
    draws = np.sort(np.searchsorted(cdf, rng.random((t, g)), side="right"), axis=1)
    first = np.ones(draws.shape, dtype=bool)
    first[:, 1:] = draws[:, 1:] != draws[:, :-1]
    return np.concatenate(([0], np.cumsum(first.sum(axis=1)))), draws[first]


def build_cca_matrix(p: PriorVector, t: int, g: int, seed: int) -> TestMatrix:
    """Sample a t-row matrix with g draws per row from the whole-vector
    sampling distribution.  Deterministic given the seed."""
    if t < 1:
        raise ValueError("t must be at least 1")
    if g < 1:
        raise ValueError("g must be at least 1")
    rng = np.random.default_rng(seed)
    indptr, indices = _sample_rows(rng, sampling_distribution(p), t, g)
    return TestMatrix(n=p.n, indptr=indptr, indices=indices)


def build_block_matrix(p: PriorVector, eps: float, delta: float, seed: int) -> TestMatrix:
    """Direct sum of per-band sampled matrices over a pre-partition.

    Every ample band gets ceil(4e (1+delta) mu_s ln n_s) rows drawn from its
    own restricted distribution with its own optimal g; under-sized bands and
    the tail get one singleton row per item; zero-set items are passed to the
    decoder as cleared.
    """
    _check_delta(delta)
    part = build_partition(p, eps)
    rng = np.random.default_rng(seed)
    # Row sizes after a leading 0, so that their cumulative sum is indptr.
    sizes = [np.zeros(1, dtype=np.int64)]
    blocks = [np.zeros(0, dtype=np.int64)]
    spans: list[BlockSpan] = []
    t = 0

    for k, band in enumerate(part.ample_bands()):
        n_s = band.size
        mu_s = p.restricted_mu(band.items)
        t_s = 0 if n_s == 1 else _row_budget(mu_s, n_s, delta)
        if t_s == 0:
            continue
        local = np.asarray(band.items, dtype=np.int64)
        probs = p.as_array()[local]
        weights = _distribution(probs, n_s - mu_s)
        indptr, indices = _sample_rows(rng, weights, t_s, _optimal_g_from(weights, probs))
        sizes.append(np.diff(indptr))
        blocks.append(local[indices])
        spans.append(BlockSpan(row_lo=t, row_hi=t + t_s, items=band.items, label=f"band{k}"))
        t += t_s

    route = part.individual_route()
    if route:
        sizes.append(np.ones(len(route), dtype=np.int64))
        blocks.append(np.asarray(route, dtype=np.int64))
        spans.append(BlockSpan(row_lo=t, row_hi=t + len(route), items=route, label="individual"))

    return TestMatrix(
        n=p.n,
        indptr=np.cumsum(np.concatenate(sizes)),
        indices=np.concatenate(blocks),
        block_spans=tuple(spans),
        zero_assigned=frozenset(part.zero_items),
    )


def decode_comp(m: TestMatrix, outcomes: Sequence[int]) -> PopulationVector:
    """Clear every item seen in a negative row (plus the pre-cleared set);
    declare everything else defective."""
    if len(outcomes) != m.t:
        raise ValueError(f"got {len(outcomes)} outcomes for {m.t} rows")
    negative = ~np.asarray(outcomes, dtype=bool)
    cleared = np.zeros(m.n, dtype=bool)
    cleared[m.indices[np.repeat(negative, np.diff(m.indptr))]] = True
    cleared[list(m.zero_assigned)] = True
    return PopulationVector(~cleared)


def run_nonadaptive(
    m: TestMatrix, truth: PopulationVector
) -> tuple[tuple[int, ...], PopulationVector]:
    """Measure every row against the truth (noiseless OR) and decode."""
    if truth.n != m.n:
        raise ValueError(f"truth length {truth.n} does not match matrix width {m.n}")
    # counts[j] is the number of defectives among indices[:j].
    counts = np.concatenate(([0], np.cumsum(truth.as_array()[m.indices])))
    positive = counts[m.indptr[1:]] > counts[m.indptr[:-1]]
    return tuple(positive.view(np.uint8).tolist()), decode_comp(m, positive)


def matrix_to_json_dict(m: TestMatrix) -> dict:
    out: dict = {"n": m.n, "rows": [row.tolist() for row in m.rows]}
    if m.block_spans is not None:
        out["blocks"] = [{**asdict(s), "items": list(s.items)} for s in m.block_spans]
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
    return TestMatrix.from_rows(
        n=int(data["n"]),
        rows=[[int(i) for i in row] for row in data["rows"]],
        block_spans=spans,
        zero_assigned=frozenset(int(i) for i in data.get("zero_assigned", [])),
    )
