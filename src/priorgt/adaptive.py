"""Adaptive nested test plans and their execution.

Two plan constructions are provided.  The maximum-entropy construction grows
first-stage pools whose probability of containing no defective is as close to
1/2 as possible, then splits positive pools so that each child carries
conditional probability closest to 1/2.  The source-code construction
restricts first-stage pools to keep the product of (1 - p_i) at or above 1/2
(which forces the pool's probability mass to at most 1), then builds a
balanced-weight or bottom-up-merge code tree over each pool using the item
probabilities as weights.

Plans are laminar: children partition their parent, leaves are singletons.
With the leaves laid out depth first, every pool is a contiguous run of one
item permutation ``perm``.  The top-down splits keep each pool's order and
cut it at a prefix; the bottom-up merge lays its leaves out after merging.
So a plan is stored flat: node k, numbered in preorder, tests
``perm[lo[k]:hi[k]]``.  A pre-partitioned run is one such plan too, whose
individually tested items are singleton roots.  Execution answers each pool
from prefix counts of the truth in ``perm`` order and descends only through
positive pools, so a noiseless run recovers the true population vector
exactly.  Plans serialize to one flat JSON object marked ``"format": 2``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .partition import build_partition, combine_for_concentration
from .priors import PopulationVector, PriorVector

CONSTRUCTIONS = ("max_entropy", "shannon_fano", "huffman")
PLAN_FORMAT = 2
_INDEX_FIELDS = ("perm", "lo", "hi", "left", "right", "roots", "auto_defective", "auto_clear")


@dataclass(frozen=True)
class NestedPlan:
    """A laminar family of pools stored as ranges over one item permutation.

    Nodes are numbered in preorder.  Node k tests ``perm[lo[k]:hi[k]]``;
    ``left[k]`` and ``right[k]`` are its children, -1 at a leaf.  ``roots``
    lists the first-stage pools in test order, and their ranges tile ``perm``.
    ``auto_defective`` and ``auto_clear`` hold items declared without testing;
    the trees cover everything else.  ``mu_covered`` is the prior mass over
    all covered items, used by the small-mass shortcut at execution time.
    """

    n: int
    construction: str
    perm: tuple[int, ...]
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    roots: tuple[int, ...]
    auto_defective: tuple[int, ...] = ()
    auto_clear: tuple[int, ...] = ()
    counts_both_children: bool = True
    mu_covered: float = 0.0

    def __post_init__(self):
        for name in _INDEX_FIELDS:
            object.__setattr__(self, name, tuple(map(int, getattr(self, name))))
        if self.construction not in CONSTRUCTIONS:
            raise ValueError(f"unknown construction {self.construction!r}; expected one of {CONSTRUCTIONS}")
        ids = self.perm + self.auto_defective + self.auto_clear
        if len(set(ids)) != len(ids) or any(not 0 <= i < self.n for i in ids):
            raise ValueError("plan item ids must be distinct and lie in 0..n-1")
        lo, hi, left, right = self.lo, self.hi, self.left, self.right
        size = len(lo)
        if not len(hi) == len(left) == len(right) == size:
            raise ValueError("lo, hi, left and right need one entry per node")
        visited = cursor = 0
        for root in self.roots:
            stack = [root]
            while stack:
                k = stack.pop()
                if k != visited or k >= size:
                    raise ValueError("nodes must be numbered in preorder, each reached once")
                visited += 1
                a, b = left[k], right[k]
                if a < 0 and b < 0:
                    if hi[k] - lo[k] != 1:
                        raise ValueError(f"leaf pools must be singletons, got {self.perm[lo[k]:hi[k]]}")
                    continue
                if not (0 <= a < size and 0 <= b < size):
                    raise ValueError("plan nodes need either two children or none")
                if not lo[a] == lo[k] < hi[a] == lo[b] < hi[b] == hi[k]:
                    raise ValueError("children must partition their parent into nonempty pools")
                stack += (b, a)
            if lo[root] != cursor:
                raise ValueError("root pools must tile perm in order")
            cursor = hi[root]
        if visited != size or cursor != len(self.perm):
            raise ValueError("every node and every perm position must belong to a root's tree")

    @cached_property
    def perm_array(self) -> np.ndarray:
        return np.asarray(self.perm, dtype=np.int64)


@dataclass(frozen=True)
class AdaptiveRunResult:
    recovered: PopulationVector
    tests_used: int
    transcript: tuple[tuple[tuple[int, ...], int], ...]


class _Layout:
    """Preorder node lists that the plan builders append trees to."""

    def __init__(self):
        self.perm: list[int] = []
        self.lo: list[int] = []
        self.hi: list[int] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.roots: list[int] = []

    def add_tree(self, pool: Sequence[int], split: Callable[[list[int]], int] | None) -> None:
        """Append one tree whose leaves are ``pool`` in order.

        ``split`` gets a node's items and returns the size of its left child;
        it is called in preorder.  The walk is iterative, so spine-shaped
        plans cannot overflow the stack.
        """
        start = len(self.perm)
        self.perm.extend(pool)
        self.roots.append(len(self.lo))
        # Entries: (lo, hi, parent); the parent is set for right children only,
        # since a left child always directly follows its parent in preorder.
        stack = [(start, len(self.perm), -1)]
        while stack:
            a, b, parent = stack.pop()
            k = len(self.lo)
            if parent >= 0:
                self.right[parent] = k
            self.lo.append(a)
            self.hi.append(b)
            self.left.append(k + 1 if b - a > 1 else -1)
            self.right.append(-1)
            if b - a > 1:
                mid = a + split(self.perm[a:b])
                stack.append((mid, b, k))
                stack.append((a, mid, -1))

    def plan(self, p: PriorVector, construction: str, **fields) -> NestedPlan:
        return NestedPlan(
            n=p.n,
            construction=construction,
            perm=self.perm,
            lo=self.lo,
            hi=self.hi,
            left=self.left,
            right=self.right,
            roots=self.roots,
            **fields,
        )


def _depths(p: PriorVector, items: Sequence[int]) -> np.ndarray:
    """Prefix sums of -log(1 - p_i) over ``items``, from 0: items[a:b] holds a
    defective with probability -expm1(depth[a] - depth[b]), even at tiny p_i."""
    return np.concatenate(([0.0], np.cumsum(-np.log1p(-p.as_array()[np.asarray(items, dtype=np.int64)]))))


def _nearest_prefix(depth: np.ndarray, start: int, stop: int, target: float) -> int:
    """End c in start+1..stop of the range [start, c) whose probability of
    holding a defective, which grows with c, lies nearest ``target``: the last
    range below it or the first that reaches it.  Ties go to the shorter."""
    hi = max(int(np.searchsorted(depth, depth[start] - math.log1p(-target))), start + 1)
    if hi > stop:
        return stop
    miss = [abs(-math.expm1(depth[start] - depth[c]) - target) for c in (hi - 1, hi)]
    return hi - 1 if hi - 1 > start and miss[0] <= miss[1] else hi


def _first_stage(p: PriorVector, items: Sequence[int] | None, cut: Callable) -> list[tuple[int, ...]]:
    """Certain defectives as leading singletons, then consecutive pools of the
    items with 0 < p < 1, each ended by ``cut(depth, start, stop)``."""
    if items is None:
        items = list(p.item_ids)
    groups = [(i,) for i in items if p.probs[i] >= 1.0]
    rest = [i for i in items if 0.0 < p.probs[i] < 1.0]
    depth = _depths(p, rest)
    start = 0
    while start < len(rest):
        stop = cut(depth, start, len(rest))
        groups.append(tuple(rest[start:stop]))
        start = stop
    return groups


def me_first_stage(p: PriorVector, items: Sequence[int] | None = None) -> list[tuple[int, ...]]:
    """Greedy first-stage pools: repeatedly take the prefix whose probability
    of containing no defective is closest to 1/2.

    Certain defectives (p = 1) are emitted first as their own singleton
    pools; impossible items (p = 0) are left out entirely, since they are
    cleared without testing.  Ties go to the shorter prefix.
    """
    return _first_stage(p, items, lambda depth, start, stop: _nearest_prefix(depth, start, stop, 0.5))


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

    def cut(depth: np.ndarray, start: int, stop: int) -> int:
        # The product stays at or above 1/2 while the depth grows by at most ln 2.
        return max(start + 1, int(np.searchsorted(depth, depth[start] + math.log(2.0), "right")) - 1)

    return _first_stage(p, items, cut)


def _sf_cut(pool: Sequence[int], p: PriorVector) -> int:
    """Left size of the split where the two sides' weights are most nearly
    equal; ties go to the shorter prefix."""
    weights = p.as_array()[np.asarray(pool, dtype=np.int64)]
    return int(np.argmin(np.abs(2.0 * np.cumsum(weights[:-1]) - math.fsum(weights)))) + 1


def _huffman(items: Sequence[int], p: PriorVector) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Merge the two lightest subtrees until one is left.  A subtree is kept
    as its leaves in depth-first order plus its left-child sizes in preorder;
    weight ties break on the smallest item id."""
    heap = [(p.probs[i], i, (i,), ()) for i in items]
    heapq.heapify(heap)
    while len(heap) > 1:
        w1, t1, leaves1, cuts1 = heapq.heappop(heap)
        w2, t2, leaves2, cuts2 = heapq.heappop(heap)
        heapq.heappush(heap, (w1 + w2, min(t1, t2), leaves1 + leaves2, (len(leaves1),) + cuts1 + cuts2))
    return heap[0][2], heap[0][3]


def _add_tree(layout: _Layout, pool: Sequence[int], p: PriorVector, construction: str) -> None:
    if construction == "max_entropy":
        layout.add_tree(pool, lambda sub: len(me_split(sub, p)[0]))
    elif construction == "shannon_fano":
        layout.add_tree(sorted(pool, key=lambda i: (-p.probs[i], i)), lambda sub: _sf_cut(sub, p))
    elif construction == "huffman":
        leaves, cuts = _huffman(pool, p)
        next_cut = iter(cuts)
        layout.add_tree(leaves, lambda sub: next(next_cut))
    else:
        raise ValueError(f"unknown construction {construction!r}; expected one of {CONSTRUCTIONS}")


def _add_pools(layout: _Layout, p: PriorVector, construction: str, testable: Sequence[int]) -> None:
    """First-stage pools over ``testable`` in order, one tree per pool."""
    first_stage = me_first_stage if construction == "max_entropy" else sf_first_stage
    for pool in first_stage(p, testable):
        _add_tree(layout, pool, p, construction)


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
    layout = _Layout()
    _add_tree(layout, items, p, kind)
    return layout.plan(p, kind, mu_covered=p.restricted_mu(items))


def build_plan(p: PriorVector, construction: str, counts_both_children: bool = True) -> NestedPlan:
    """Build a complete nested plan over all items in id order.

    Certain and impossible items never enter the trees.
    """
    layout = _Layout()
    _add_pools(layout, p, construction, [i for i in p.item_ids if 0.0 < p.probs[i] < 1.0])
    return layout.plan(
        p,
        construction,
        auto_defective=[i for i in p.item_ids if p.probs[i] >= 1.0],
        auto_clear=[i for i in p.item_ids if p.probs[i] <= 0.0],
        counts_both_children=counts_both_children,
        mu_covered=p.mu,
    )


def build_prepartitioned_plan(
    p: PriorVector,
    eps: float,
    construction: str = "max_entropy",
    counts_both_children: bool = True,
) -> NestedPlan:
    """Partition-then-test as one plan.

    Zero-set items are declared clear with no tests.  Under-sized bands and
    the high-probability tail come first, as singleton roots tested one item
    at a time.  Every remaining band (after mass-combining) follows with its
    own first-stage pools and trees over its items sorted ascending by
    probability.  The small-mass shortcut sees the whole vector's mass.
    """
    part = combine_for_concentration(build_partition(p, eps), p)
    layout = _Layout()
    for i in part.individual_route():
        layout.add_tree((i,), None)
    for band in part.ample_bands():
        _add_pools(layout, p, construction, band.items)
    return layout.plan(
        p,
        construction,
        auto_clear=part.zero_items,
        counts_both_children=counts_both_children,
        mu_covered=p.mu,
    )


def run_adaptive(plan: NestedPlan, truth: PopulationVector, eps: float = 0.0) -> AdaptiveRunResult:
    """Execute a plan against a truth vector with noiseless OR pools.

    Pools are tested depth first.  With ``counts_both_children`` both
    children of a positive pool are measured.  Otherwise the left child is
    measured first and, when it comes back negative, the right child is
    inferred positive without spending a test.

    When ``eps`` is positive and the plan's covered prior mass is below it,
    the run returns all-zero without testing; that shortcut errs only when
    the truth is nonzero, which happens with probability at most the covered
    mass.  Pass ``eps=0`` to disable the shortcut.
    """
    if truth.n != plan.n:
        raise ValueError(f"truth length {truth.n} does not match plan universe {plan.n}")
    bits = np.zeros(plan.n, dtype=bool)
    if eps > 0.0 and plan.mu_covered < eps:
        return AdaptiveRunResult(recovered=PopulationVector(bits), tests_used=0, transcript=())
    # counts[j] is the number of defectives among perm[:j].
    counts = [0] + np.cumsum(truth.as_array()[plan.perm_array]).tolist()
    perm, lo, hi, left, right = plan.perm, plan.lo, plan.hi, plan.left, plan.right
    transcript: list[tuple[tuple[int, ...], int]] = []
    defective = list(plan.auto_defective)

    def measure(k: int) -> int:
        outcome = int(counts[hi[k]] > counts[lo[k]])
        transcript.append((perm[lo[k] : hi[k]], outcome))
        return outcome

    # Stack entries: (node, needs_test).  A node pushed with needs_test=False
    # is already known positive.
    stack = [(k, True) for k in reversed(plan.roots)]
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
    return AdaptiveRunResult(
        recovered=PopulationVector(bits),
        tests_used=len(transcript),
        transcript=tuple(transcript),
    )


def run_prepartitioned_adaptive(
    p: PriorVector,
    eps: float,
    truth: PopulationVector,
    construction: str = "max_entropy",
    counts_both_children: bool = True,
) -> AdaptiveRunResult:
    """Partition-then-test: :func:`run_adaptive` on the plan from
    :func:`build_prepartitioned_plan`, with the shortcut at ``eps``."""
    plan = build_prepartitioned_plan(p, eps, construction, counts_both_children)
    return run_adaptive(plan, truth, eps=eps)


def plan_to_json_dict(plan: NestedPlan) -> dict:
    out = {
        "format": PLAN_FORMAT,
        "n": plan.n,
        "construction": plan.construction,
        "counts_both_children": plan.counts_both_children,
        "mu_covered": plan.mu_covered,
    }
    out.update((name, list(getattr(plan, name))) for name in _INDEX_FIELDS)
    return out


def plan_from_json_dict(data: dict) -> NestedPlan:
    """Parse the flat form; anything else, including the nested form that
    predates format 2, raises ValueError."""
    if not isinstance(data, dict) or data.get("format") != PLAN_FORMAT:
        raise ValueError(f"plan JSON must be an object with \"format\": {PLAN_FORMAT}")
    try:
        return NestedPlan(
            n=int(data["n"]),
            construction=str(data["construction"]),
            counts_both_children=bool(data["counts_both_children"]),
            mu_covered=float(data["mu_covered"]),
            **{name: data[name] for name in _INDEX_FIELDS},
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed plan JSON: {exc!r}") from exc
