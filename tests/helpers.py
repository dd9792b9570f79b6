"""One-node references and trend statistics that only the tests use.

The package builds plans level by level over int64 arrays and runs them in
numpy passes.  The functions below build one node at a time: first-stage
pools as lists of tuples, one max-entropy split, one Shannon-Fano cut and
one source-code tree over a single pool.  The tests check the level
builders against them.  ``walk_plan`` runs a plan on one truth by a
depth-first walk with an explicit stack and records each tested pool in
order, and the tests check both executors against it; ``plan_links``
derives a plan's children and roots node by node.  The trend
statistics (least squares slope, one-sided Mann-Kendall) serve the
acceptance and harness tests, and ``drawn_ids`` stacks the sampler's chunks
for the tests that compare them with a binary search.  ``combine_reference`` is the per-band combining loop that
``combine_for_concentration`` is tested against, and ``partition_fields``
compares partitions by value.  ``matrix_from_rows`` builds a test matrix
from row lists, ``design_spans`` lists a sampled design's row ranges, and
``prior_to_json_dict`` writes a prior as JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from priorgt.adaptive import AdaptiveRunResult, NestedPlan, _depths, _first_stage, _nearest_prefix, _trees
from priorgt.nonadaptive import SampledDesign, TestMatrix, _block_chunks, _block_law
from priorgt.partition import Band, Partition
from priorgt.priors import PriorVector, index_array, truth_array


def _groups(p: PriorVector, items: Sequence[int] | None, construction: str) -> list[tuple[int, ...]]:
    """The certain defectives (p = 1) among ``items``, all items when None,
    as singletons, then the first-stage pools of the items with 0 < p < 1."""
    items = np.arange(p.n) if items is None else np.asarray(items, dtype=np.int64)
    q = p.probs[items]
    rest = items[(q > 0.0) & (q < 1.0)]
    bounds = _first_stage(p, rest, construction)
    return [(i,) for i in items[q >= 1.0].tolist()] + [tuple(rest[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]


def me_first_stage(p: PriorVector, items: Sequence[int] | None = None) -> list[tuple[int, ...]]:
    """Greedy first-stage pools: repeatedly take the prefix whose probability
    of containing no defective is closest to 1/2.

    Certain defectives (p = 1) are emitted first as their own singleton
    pools; impossible items (p = 0) are left out entirely, since they are
    cleared without testing.  Ties go to the shorter prefix.
    """
    return _groups(p, items, "max_entropy")


def me_split(items: Sequence[int], p: PriorVector) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a pool at the prefix whose conditional positive probability,
    given the pool itself is positive, lies closest to 1/2.

    Only contiguous prefixes of the pool's stored order are considered; ties
    go to the shorter prefix.  Both sides are nonempty.
    """
    if len(items) < 2:
        raise ValueError("cannot split a pool with fewer than two items")
    depth = _depths(p, items)
    positive = -math.expm1(-depth[-1])
    if positive <= 0.0:
        # No positive-probability member; balance sizes deterministically.
        k = len(items) // 2
    else:
        k = _nearest_prefix(depth, 0, len(items) - 1, positive / 2.0)
    return tuple(items[:k]), tuple(items[k:])


def sf_first_stage(p: PriorVector, items: Sequence[int] | None = None) -> list[tuple[int, ...]]:
    """Greedy maximal prefixes whose product of (1 - p_i) stays at or above
    1/2, which caps each pool's probability mass at 1.

    An item that alone drops the product below 1/2 (p > 1/2) forms a
    singleton pool.  Certain defectives are emitted first as singletons and
    impossible items are left out, as in :func:`me_first_stage`.
    """
    return _groups(p, items, "shannon_fano")


def _sf_cut(pool: Sequence[int], p: PriorVector) -> int:
    """Left size of the split where the two sides' weights are most nearly
    equal; ties go to the shorter prefix."""
    weights = p.probs[np.asarray(pool, dtype=np.int64)]
    return int(np.argmin(np.abs(2.0 * np.cumsum(weights[:-1]) - math.fsum(weights)))) + 1


def sf_build_tree(items: Sequence[int], p: PriorVector, kind: str) -> NestedPlan:
    """Source-code tree over one pool, weights w_i = p_i, as a one-root plan.

    ``shannon_fano`` sorts by descending weight and recursively splits where
    the two sides' weights are most nearly equal; on pools whose product of
    (1 - p_i) is at least 1/2 the resulting depths stay within
    ceil(log2(1/p_i)).  ``huffman`` merges the two lightest subtrees bottom
    up, which minimizes the expected depth.  Zero-weight items sort last and
    sink to the deepest leaves under either kind; weight ties break on the
    smallest item id.
    """
    if kind not in ("shannon_fano", "huffman"):
        raise ValueError(f"unknown source-code kind {kind!r}")
    pool = np.asarray(items, dtype=np.int64)
    if not len(pool):
        raise ValueError("cannot build a tree over an empty pool")
    trees = _trees(p, kind, pool, np.array([0, len(pool)]))
    return NestedPlan(n=p.n, construction=kind, mu_covered=p.restricted_mu(pool), **trees)


def plan_links(lo: Sequence[int], hi: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """Each node's left and right child, -1 at a leaf, and the roots, one
    node at a time: an internal node k, over more than one item, has left
    child k + 1 and right child k + 2 width[k + 1], and the roots are the
    nodes that are no node's child."""
    width = [b - a for a, b in zip(lo, hi)]
    left, right = [-1] * len(width), [-1] * len(width)
    for k, w in enumerate(width):
        if w > 1:
            left[k], right[k] = k + 1, k + 2 * width[k + 1]
    children = set(left) | set(right)
    return left, right, [k for k in range(len(width)) if k not in children]


def walk_plan(
    plan: NestedPlan, truth: np.ndarray, eps: float = 0.0
) -> tuple[AdaptiveRunResult, tuple[tuple[tuple[int, ...], int], ...]]:
    """Execute a plan against a bool truth of length n with noiseless OR
    pools; returns the result and the transcript, every tested pool with its
    outcome in test order.

    Pools are tested depth first.  With ``counts_both_children`` both
    children of a positive pool are measured.  Otherwise the left child is
    measured first and, when it comes back negative, the right child is
    inferred positive without spending a test.

    When ``eps`` is positive and the plan's covered prior mass is below it,
    the run returns all-zero without testing; that shortcut errs only when
    the truth is nonzero, which happens with probability at most the covered
    mass.  Pass ``eps=0`` to disable the shortcut.
    """
    truth = truth_array(plan.n, truth)
    bits = np.zeros(plan.n, dtype=bool)
    if eps > 0.0 and plan.mu_covered < eps:
        return AdaptiveRunResult(recovered=bits, tests=np.int64(0)), ()
    # counts[j] is the number of defectives among perm[:j].
    counts = [0] + np.cumsum(truth[plan.perm]).tolist()
    perm, lo, hi, left, right = (getattr(plan, name).tolist() for name in ("perm", "lo", "hi", "left", "right"))
    transcript: list[tuple[tuple[int, ...], int]] = []
    defective = plan.auto_defective.tolist()

    def measure(k: int) -> int:
        outcome = int(counts[hi[k]] > counts[lo[k]])
        transcript.append((tuple(perm[lo[k] : hi[k]]), outcome))
        return outcome

    # Stack entries: (node, needs_test).  A node pushed with needs_test=False
    # is already known positive.
    stack = [(k, True) for k in reversed(plan.roots.tolist())]
    while stack:
        k, needs_test = stack.pop()
        if needs_test and not measure(k):
            continue
        a, b = left[k], right[k]
        if a < 0:
            defective.append(perm[lo[k]])
        elif plan.counts_both_children:
            stack += ((b, True), (a, True))
        elif measure(a):
            stack += ((b, True), (a, False))
        else:
            stack.append((b, False))
    bits[defective] = True
    return AdaptiveRunResult(recovered=bits, tests=np.int64(len(transcript))), tuple(transcript)


def fit_slope(points: Sequence[tuple[float, float]]) -> float:
    """Ordinary least squares slope of mean tests against entropy."""
    if len(points) < 2:
        raise ValueError("need at least two points")
    xs = np.asarray([x for x, _ in points], dtype=float)
    ys = np.asarray([y for _, y in points], dtype=float)
    if np.allclose(xs, xs[0]):
        raise ValueError("slope is undefined when every entropy value is equal")
    return float(np.polyfit(xs, ys, 1)[0])


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


def drawn_ids(rng, weights: np.ndarray, t: int, g: int) -> np.ndarray:
    """The (t, g) ids the sampler draws from ``weights`` with ``rng``, its
    chunks stacked in row order; g is at most ``CHUNK`` or below the count
    of drawable items (weight above 0), since only a row that can hold
    every drawable item comes as its distinct ids."""
    law = _block_law(np.arange(len(weights), dtype=np.int64), weights, t, g)
    return np.concatenate(list(_block_chunks(law, rng)))


def matrix_from_rows(n: int, rows: Sequence[Sequence[int]], **fields) -> TestMatrix:
    """A matrix over n items with one sequence of item ids per row."""
    arrays = [np.zeros(0, dtype=np.int64)] + [index_array("row", row) for row in rows]
    return TestMatrix(n, np.cumsum([len(a) for a in arrays]), np.concatenate(arrays), **fields)


def design_spans(design: SampledDesign) -> list[tuple[int, int, np.ndarray, str | None]]:
    """(row_lo, row_hi, items, label) for each block of a design, in row
    order from row 0, then for its route, labelled "individual", when the
    route has items."""
    ends = np.cumsum([0] + [block.t for block in design.blocks]).tolist()
    spans = [(lo, hi, block.items, block.label) for lo, hi, block in zip(ends, ends[1:], design.blocks)]
    if len(design.route):
        spans.append((ends[-1], design.t, design.route, "individual"))
    return spans


def prior_to_json_dict(p: PriorVector) -> dict:
    """Serializable form; float repr is shortest-roundtrip, so probabilities
    survive a write/read cycle bit-for-bit."""
    return {"probs": p.probs.tolist()}


def partition_fields(part: Partition) -> tuple:
    """Every field of a partition by value, item sets as lists in order.
    Partitions and bands compare by identity."""
    bands = [(b.lo, b.hi, np.asarray(b.items).tolist()) for b in part.bands]
    zero, tail = (np.asarray(items).tolist() for items in (part.zero_items, part.tail_items))
    return (part.n, part.eps, part.gamma, zero, bands, tail, part.num_combined, part.concentration_void)


def combine_reference(part: Partition, p: PriorVector) -> Partition:
    """The band-combining loop that ``combine_for_concentration`` replaced:
    merge leading ample bands until their mass reaches 1/2, placing the
    merged band, a tuple of the absorbed items, where the first absorbed
    band was, found by object identity."""
    ample = [b for b in part.bands if b.size >= part.gamma]
    if not ample:
        return replace(part, num_combined=0, concentration_void=True)

    cumulative = 0.0
    taken = 0
    for band in ample:
        cumulative += p.restricted_mu(band.items)
        taken += 1
        if cumulative >= 0.5:
            break
    else:
        return replace(part, num_combined=taken, concentration_void=True)

    if taken == 1:
        return replace(part, num_combined=1, concentration_void=False)

    merged_members = tuple(i for band in ample[:taken] for i in band.items)
    merged = Band(lo=ample[0].lo, hi=ample[taken - 1].hi, items=merged_members)
    absorbed = set(id(b) for b in ample[:taken])
    new_bands: list[Band] = []
    placed = False
    for band in part.bands:
        if id(band) in absorbed:
            if not placed:
                new_bands.append(merged)
                placed = True
            continue
        new_bands.append(band)
    return replace(
        part,
        bands=tuple(new_bands),
        num_combined=taken,
        concentration_void=False,
    )
