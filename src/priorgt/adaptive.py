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
So a plan stores ``perm``, ``lo`` and ``hi`` as read-only int64 arrays:
node k, numbered in preorder, tests ``perm[lo[k]:hi[k]]``.  Plans compare
and hash by value (``priors.ValueEq``).  A pre-partitioned run is one such
plan too, whose individually tested items are singleton roots.  Execution
answers, from prefix counts of the truths in ``perm`` order
(``priors.prefix_counts``, the rule test matrices use), only the pools whose
outcome decides whether a child is tested, and descends only through
positive pools, so a noiseless run recovers the true population vector
exactly.  Plans serialize to one flat JSON object marked ``"format": 2``.

Preorder numbers are closed-form.  A tree over m items has 2m - 1 nodes, so
the root over ``perm[s:e]`` that follows j earlier roots is node 2s - j, the
left child of an internal node k (hi - lo > 1) is k + 1, its right child is
k + 2 |left range|, and the roots are the nodes that are no node's child.
Plans are therefore built level by level over int64 arrays: the frontier is
every range still to split, of every root at once, and one numpy pass per
level returns all their left sizes.  The one-node references for those
passes, ``me_split`` and ``_sf_cut``, live in ``tests/helpers.py``.  The
constructor checks that pools are nonempty and each internal node's children
partition it, so by induction node k's tree is the 2 |range| - 1 nodes from
k on; as children follow parents, the roots' trees tile the nodes, and it
checks that their ranges tile ``perm``.  A depth-first parse of the nodes in
order accepts exactly these plans.

Each level decides its cuts by filtered exact predicates (Shewchuk 1997):
one ``searchsorted`` on the plan's item depths -log1p(-p) (max entropy) or
weights (Shannon-Fano), summed over all of ``perm``, finds each range's
candidate cut, and the sums restarting at each root decide it with numpy's
``expm1`` and ``log1p``; the exact code sums each range from 0 and calls
:mod:`math`.  For a range of m items whose root's sum reaches R at its
end, and u = 2^-53, two of the root's sums differ by the exact sum between
them to within m u R (each of the m steps rounds by at most u R), so the
filter's prefixes lie within (2m + 1) u R of the exact code's.  Taking
numpy's and math's functions each to lie within 8 ulps of exact, no
compared quantity (target, its depth, misses, gaps) moves by more than
(10m + 105) u R, plus a few 2^-1074 at subnormal values.  A decision
stands only when every comparison clears the margin 32 (m + 8) (u R +
2^-1074), at least twice that: the exact code's values then fall on the
same sides, and as its prefix sums never decrease, the same two prefixes
bracket the threshold and the same one is nearer.  Ties, near ties and
vanishing totals go to the exact code, ``_me_exact`` and ``_sf_exact``,
which cut one range at a time by the one-node rules themselves; m equal
Shannon-Fano weights w tie, with a cut fixed by (m, w), so each pair is
computed once.

The Huffman merge runs in numpy rounds over every root at once, with no heap.
In each round a root pairs off, in (weight, smallest item id) order, all of
its subtrees lighter than the rounded sum s of its two lightest: 1st with
2nd, 3rd with 4th, and so on.  Rounding is monotone, so every subtree merged
in the round weighs at least s, and each pair is the one the heap would pop
next.  When s absorbs the lightest weight, the root merges just its first
two.  The heap reference ``huffman_merge`` lives in
``tests/test_properties.py``.

Truths and recovered vectors are bool arrays.  :func:`run_adaptive` is the
one executor: it runs one truth of length n, or every row of a (T, n) block
of truths, over the last axis, and returns the recovered vectors with one
test count per truth.  A child is tested when a pool that
:func:`_tested_children` names is positive: its parent's, or in inference
mode, for a right child, its left sibling's.  So the executor answers only
internal nodes' pools, and in inference mode their left children's, and
counts each truth's positive ones lane by lane, several truths to a 64-bit
word (``priors.positive_pools``).  A depth-first walk that records each
tested pool in order, ``walk_plan`` in ``tests/helpers.py``, is the
reference it is tested against.
:func:`expected_tests` gives a plan's exact expected test count in closed
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .partition import build_partition, combine_for_concentration
from .priors import PriorVector, ValueEq, index_array, positive_pools, prefix_counts, truth_array

CONSTRUCTIONS = ("max_entropy", "shannon_fano", "huffman")
PLAN_FORMAT = 2
_STORED_FIELDS = ("perm", "lo", "hi", "auto_defective", "auto_clear")
# Plan JSON's index keys in order, the derived left, right and roots among them.
_INDEX_FIELDS = ("perm", "lo", "hi", "left", "right", "roots", "auto_defective", "auto_clear")
_PARTITION = "children must partition their parent into nonempty pools"
# The root ranges share one padded block unless that wastes more than this
# many cells beyond twice their length.
_ONE_BLOCK_CELLS = 1 << 12
# The cut filter's margin is _MARGIN (m + 8) (2^-53 R + 2^-1074), at least
# twice its error bound (module docstring).
_MARGIN = 32.0


def _links(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The internal nodes k (hi - lo > 1) in order, their right children
    k + 2 (hi[k+1] - lo[k+1]), their left ones being k + 1, and the roots,
    the nodes that are no node's child.  Raises ValueError at an empty pool
    or a child beyond the last node."""
    size, width = len(lo), hi - lo
    if size and width.min() < 1:
        raise ValueError("every pool must hold at least one item")
    inner = np.flatnonzero(width > 1)
    if len(inner) and inner[-1] + 1 >= size:
        raise ValueError(_PARTITION)
    right = inner + 2 * width[inner + 1]
    if right.max(initial=-1) >= size:
        raise ValueError(_PARTITION)
    root = np.ones(size, dtype=bool)
    root[inner + 1] = root[right] = False
    return inner, right, np.flatnonzero(root)


@dataclass(frozen=True, eq=False)
class NestedPlan(ValueEq):
    """A laminar family of pools stored as ranges over one item permutation.

    Node k, in preorder, tests ``perm[lo[k]:hi[k]]``.  ``left``, ``right``
    (-1 at a leaf) and ``roots``, the first-stage pools in test order, whose
    ranges tile ``perm``, are derived from ``lo`` and ``hi`` by the closed
    forms of the module docstring when first read.  ``auto_defective`` and
    ``auto_clear`` hold items declared without testing; the trees cover
    everything else.  ``mu_covered`` is the prior mass over all covered
    items, used by the small-mass shortcut at execution time.  The five
    index fields take any integer sequences and hold them as 1-D, read-only
    int64 arrays; float or bool values are refused, not truncated.  Plans
    compare and hash by value.
    """

    n: int
    construction: str
    perm: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    auto_defective: np.ndarray = ()
    auto_clear: np.ndarray = ()
    counts_both_children: bool = True
    mu_covered: float = 0.0

    def __post_init__(self):
        for name in _STORED_FIELDS:
            object.__setattr__(self, name, index_array(f"plan field {name}", getattr(self, name)))
        if self.construction not in CONSTRUCTIONS:
            raise ValueError(f"unknown construction {self.construction!r}; expected one of {CONSTRUCTIONS}")
        perm, lo, hi = self.perm, self.lo, self.hi
        ids = np.concatenate((perm, self.auto_defective, self.auto_clear))
        if len(ids) and (ids.min() < 0 or int(ids.max()) >= self.n or np.bincount(ids).max() > 1):
            raise ValueError("plan item ids must be distinct and lie in 0..n-1")
        if len(hi) != len(lo):
            raise ValueError("lo and hi need one entry per node")
        inner, b, roots = _links(lo, hi)
        a = inner + 1
        if not ((lo[a] == lo[inner]) & (hi[a] == lo[b]) & (hi[b] == hi[inner])).all():
            raise ValueError(_PARTITION)
        bounds = np.concatenate(([0], hi[roots]))
        if (lo[roots] != bounds[:-1]).any() or bounds[-1] != len(perm):
            raise ValueError("root pools must tile perm in order")

    @cached_property
    def _derived(self) -> tuple[np.ndarray, ...]:
        inner, right, roots = _links(self.lo, self.hi)
        children = np.full((2, len(self.lo)), -1, dtype=np.int64)
        children[:, inner] = inner + 1, right
        children.flags.writeable = roots.flags.writeable = False
        return (*children, roots)

    left = property(lambda self: self._derived[0], doc="Each node's left child, -1 at a leaf.")
    right = property(lambda self: self._derived[1], doc="Each node's right child, -1 at a leaf.")
    roots = property(lambda self: self._derived[2], doc="The first-stage pools' nodes, in test order.")

    @property
    def root_count(self) -> int:
        """The roots' number: a tree over m items has 2m - 1 nodes."""
        return 2 * len(self.perm) - len(self.lo)

    @cached_property
    def internal(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each internal node's range [lo, hi) of ``perm``, in node order,
        and the end of its left child's range [lo, mid), as (lo, mid, hi).
        Cached, at 24 bytes per internal node, since every run reads it:
        deriving it per call made ``run_adaptive`` about 15% slower at
        n = 1e3 and 30% slower pre-partitioned at n = 1e4 (2-core host)."""
        inner = np.flatnonzero(self.hi - self.lo > 1)
        return self.lo[inner], self.hi[inner + 1], self.hi[inner]

    @cached_property
    def untested_items(self) -> np.ndarray:
        """The items outside ``perm``, which no run tests."""
        return np.setdiff1d(np.arange(self.n), self.perm, assume_unique=True)


@dataclass(frozen=True, eq=False)
class AdaptiveRunResult:
    """The recovered vectors and one int64 test count per truth: shapes (n,)
    and () for one truth, (T, n) and (T,) for a block of T."""

    recovered: np.ndarray
    tests: np.ndarray

    @property
    def tests_used(self) -> int:
        """The tests of every truth together, so one truth's count."""
        return int(self.tests.sum())


def _depths(p: PriorVector, items: Sequence[int]) -> np.ndarray:
    """Prefix sums of -log(1 - p_i) over ``items``, from 0: items[a:b] holds a
    defective with probability -expm1(depth[a] - depth[b]), even at tiny p_i."""
    return np.concatenate(([0.0], np.cumsum(-np.log1p(-p.probs[np.asarray(items, dtype=np.int64)]))))


def _nearest_prefix(depth: np.ndarray, start: int, stop: int, target: float) -> int:
    """End c in start+1..stop of the range [start, c) whose probability of
    holding a defective, which grows with c, lies nearest ``target``: the last
    range below it or the first that reaches it.  Ties go to the shorter."""
    hi = max(int(depth.searchsorted(depth[start] - math.log1p(-target))), start + 1)
    if hi > stop:
        return stop
    miss = [abs(-math.expm1(depth[start] - depth[c]) - target) for c in (hi - 1, hi)]
    return hi - 1 if hi - 1 > start and miss[0] <= miss[1] else hi


def _first_stage(p: PriorVector, items: np.ndarray, construction: str) -> list[int]:
    """The bounds 0 = s_0 < s_1 < ... of the consecutive first-stage pools
    that ``items``, each with 0 < p < 1, are cut into, in order."""
    depth = _depths(p, items)
    bounds = [0]
    while (start := bounds[-1]) < len(items):
        if construction == "max_entropy":
            bounds.append(_nearest_prefix(depth, start, len(items), 0.5))
        else:
            # The product stays at or above 1/2 while the depth grows by at most ln 2.
            bounds.append(max(start + 1, int(depth.searchsorted(depth[start] + math.log(2.0), "right")) - 1))
    return bounds


def _blocks(a: np.ndarray, b: np.ndarray) -> list[np.ndarray]:
    """The positions of the ranges [a, b) as rows padded with -1, one block
    of rows when padding costs little and otherwise one per ceil(log2) of
    length.  Values indexed by them read their last entry, an extra +inf,
    at the pads."""
    m = b - a
    groups = [slice(None)]
    if len(m) * int(m.max(initial=0)) > 2 * int(m.sum()) + _ONE_BLOCK_CELLS:
        width = np.frexp(m - 1)[1]
        order = np.argsort(width, kind="stable")
        groups = np.split(order, np.flatnonzero(np.diff(width[order])) + 1)
    pads = [a[rows, None] + np.arange(m[rows].max(initial=0)) for rows in groups]
    return [np.where(pos < b[rows, None], pos, -1) for rows, pos in zip(groups, pads)]


def _root_sums(values: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, ...]:
    """The sums of ``values`` (finite, plus a +inf pad) from 0, and from each
    position's root start in ``bounds`` through it and before it."""
    starts, ends = bounds[:-1], bounds[1:]
    whole = np.concatenate(([0.0], values[:-1].cumsum()))
    through = np.empty(len(values) - 1)
    for pos in _blocks(starts, ends):
        inside = pos >= 0
        through[pos[inside]] = values[pos].cumsum(axis=1)[inside]
    before = np.concatenate(([0.0], through[:-1]))
    before[starts] = 0.0
    return whole, through, before


def _me_cuts(xs: np.ndarray, sums: tuple, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The max-entropy split's left size for every range [a, b) of ``xs``,
    the item depths in ``perm`` order plus a +inf pad, filtered with
    ``sums`` from :func:`_root_sums` as the module docstring sets out: the
    first prefix whose depth reaches the target's, or the one before it
    when that misses the target by no more."""
    m = b - a
    if (m == 2).all():  # one cut each
        return m // 2
    whole, through, before = sums
    base, reach = before[a], through[b - 1]
    # The margin, R the root's sum at b.
    total, e = reach - base, (m + 8) * (reach + 2.0**-1021) * (_MARGIN * 2.0**-53)
    target = -0.5 * np.expm1(-total)
    limit = -np.log1p(-target)
    end = np.minimum(np.maximum(whole.searchsorted(whole[a] + limit) - a, 1), m)
    # Depths of the prefixes of end - 1 (unused at end = 1) and end items.
    i = a + end - 2
    short, long = through[i] - base, through[i + 1] - base
    gap = np.abs(np.expm1(-short) + target) - np.abs(np.expm1(-long) + target)
    inner = (end > 1) & (end < m)
    sure = (total > e) & ((end == 1) | (limit - short > e)) & ((end == m) | (long - limit > e))
    sure &= ~inner | (np.abs(gap) > e)
    cut = np.minimum(end, m - 1) - (inner & (gap <= 0.0))
    rows = (~sure).nonzero()[0]
    if len(rows):
        cut[rows] = _me_exact(xs, a[rows], b[rows])
    return cut


def _me_exact(xs: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`_me_cuts` unfiltered, one range at a time as the one-node
    reference ``me_split`` cuts it: the range's own sums from 0 and
    :func:`_nearest_prefix`, or m // 2 when it holds no positive mass."""
    cut = np.empty(len(a), dtype=np.int64)
    for j, (s, e) in enumerate(zip(a.tolist(), b.tolist())):
        depth = np.concatenate(([0.0], np.cumsum(xs[s:e])))
        positive = -math.expm1(-depth[-1])
        cut[j] = (e - s) // 2 if positive <= 0.0 else _nearest_prefix(depth, 0, e - s - 1, positive / 2.0)
    return cut


def _sf_cuts(weights: np.ndarray, sums: tuple, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Shannon-Fano cut, where the two sides' weights are most nearly
    equal, for every range [a, b) of ``weights``, the item probabilities in
    ``perm`` order, descending within each root, plus a +inf pad, filtered
    as in :func:`_me_cuts`: the first prefix holding half the weight, or
    the one before it when its gap is no larger.  As weights descend, two
    gaps that clear the margin leave no earlier prefix with an equal gap."""
    m = b - a
    if (m == 2).all():  # one cut each
        return m // 2
    whole, through, before = sums
    base, reach = before[a], through[b - 1]
    # The margin, R the root's sum at b.
    total, e = reach - base, (m + 8) * (reach + 2.0**-1021) * (_MARGIN * 2.0**-53)
    half = total / 2.0
    end = np.minimum(np.maximum(whole.searchsorted(whole[a] + half) - a, 1), m - 1)
    # Half the gaps |2 prefix - total| at end - 1 and end items, below and
    # above: halving is exact.
    i = a + end - 2
    under, over = half - (through[i] - base), (through[i + 1] - base) - half
    sure = (over > e) & ((end == 1) | ((under > e) & (np.abs(under - over) > e)))
    cut = end - ((end > 1) & (under <= over))
    rows = (~sure).nonzero()[0]
    if len(rows):
        s, t = a[rows], b[rows]
        # One exact cut per (m, w) of equal weights, one per other range.
        w = weights[s]
        same = np.unique(np.where(w == weights[t - 1], w.view(np.int64), -1 - rows), return_inverse=True)[1]
        _, first, pair = np.unique(same * len(weights) + t - s, return_index=True, return_inverse=True)
        cut[rows] = _sf_exact(weights, s[first], t[first])[pair]
    return cut


def _sf_exact(weights: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`_sf_cuts` unfiltered, one range at a time as the one-node
    reference ``_sf_cut`` cuts it: the prefix of all but the last item whose
    doubled sum from 0 lies nearest the range's ``math.fsum`` total."""
    cut = np.empty(len(a), dtype=np.int64)
    for j, (s, e) in enumerate(zip(a.tolist(), b.tolist())):
        gap = np.abs(2.0 * np.cumsum(weights[s : e - 1]) - math.fsum(weights[s:e].tolist()))
        cut[j] = int(np.argmin(gap)) + 1
    return cut


def _layout(bounds: np.ndarray, split: Callable) -> tuple[np.ndarray, np.ndarray]:
    """Preorder ``lo`` and ``hi`` of trees over the consecutive ranges
    bounds[j]:bounds[j + 1], each nonempty.

    ``split(k, a, b)`` gets the nodes k of the frontier with their ranges
    [a, b) and returns their left sizes, each in 1..b - a - 1.
    """
    starts, ends = bounds[:-1], bounds[1:]
    roots = 2 * starts - np.arange(len(starts))
    size = 2 * int(bounds[-1]) - len(starts)
    lo, hi = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    lo[roots], hi[roots] = starts, ends
    wide = ends - starts > 1
    k, a, b = roots[wide], starts[wide], ends[wide]
    while len(k):
        cut = split(k, a, b)
        k, a, b = np.concatenate((k + 1, k + 2 * cut)), np.concatenate((a, a + cut)), np.concatenate((a + cut, b))
        lo[k], hi[k] = a, b
        wide = b - a > 1
        k, a, b = k[wide], a[wide], b[wide]
    return lo, hi


def _huffman(p: PriorVector, perm: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per root range, merge the two lightest subtrees until one is left;
    weight ties break on the smallest item id.  Subtree j < len(perm) is the
    leaf perm[j]; merged subtrees follow.  Returns each subtree's first and
    second merged child and the first one's leaf count (-1 at a leaf), and
    each root's subtree.

    The merges run in rounds over every root at once.  A round sorts the
    live subtrees by (root, weight, smallest item id).  Each root then
    pairs, in that order, all of its subtrees lighter than s, the rounded sum
    of its two lightest: the 1st with the 2nd, the 3rd with the 4th, and so
    on, while an odd last one waits.  When the sum absorbs the lightest, so
    that s equals the second weight, only one subtree is lighter and the root
    merges its first two.  Rounding is monotone, so every merged subtree
    weighs at least s: each pair is the one a heap of (weight, smallest item
    id) would pop next.  A root with m items needs at most m - 1 rounds,
    typically about 2 log2(total weight / lightest weight).
    """
    size, width = len(perm), np.diff(bounds)
    total = 2 * size - len(width)
    first, second, first_count = np.full((3, total), -1, dtype=np.int64)
    weight, least, count = np.empty(total), np.empty(total, dtype=np.int64), np.ones(total, dtype=np.int64)
    weight[:size], least[:size] = p.probs[perm], perm
    # A singleton root is its leaf; the others enter the rounds.
    tops = bounds[:-1].copy()
    root = np.repeat(np.arange(len(width)), width)
    live = np.flatnonzero(width[root] > 1)
    root, merged = root[live], size
    # A root of m items needs at most m - 1 rounds.
    for _ in range(int(width.max(initial=1)) - 1):
        if not len(live):
            break
        order = np.lexsort((least[live], weight[live], root))
        live, root = live[order], root[order]
        step = np.concatenate(([True], root[1:] != root[:-1]))
        head = np.flatnonzero(step)
        group = np.cumsum(step) - 1
        w = weight[live]
        lighter = np.add.reduceat(w < (w[head] + w[head + 1])[group], head, dtype=np.int64)
        rank = np.arange(len(live)) - head[group]
        paired = rank < 2 * np.maximum(lighter // 2, 1)[group]
        at = np.flatnonzero(paired & (rank % 2 == 0))
        a, b, new = live[at], live[at + 1], np.arange(merged, merged + len(at))
        first[new], second[new], first_count[new] = a, b, count[a]
        weight[new], least[new], count[new] = weight[a] + weight[b], np.minimum(least[a], least[b]), count[a] + count[b]
        merged += len(at)
        # A root with two live subtrees is done once they merge.
        done = (np.diff(np.append(head, len(live))) == 2)[group[at]]
        tops[root[at[done]]] = new[done]
        live = np.concatenate((live[~paired], new[~done]))
        root = np.concatenate((root[~paired], root[at[~done]]))
    return first, second, first_count, tops


def _trees(p: PriorVector, construction: str, perm: np.ndarray, bounds: np.ndarray) -> dict:
    """One tree per root range of ``perm``, laid out level by level."""
    if construction == "max_entropy":
        # p = 1 items, only at singleton roots, split nothing: depth 0 keeps
        # the sums finite.
        q = p.probs[perm]
        xs = np.append(-np.log1p(-np.where(q < 1.0, q, 0.0)), np.inf)
        sums = _root_sums(xs, bounds)
        lo, hi = _layout(bounds, lambda k, a, b: _me_cuts(xs, sums, a, b))
    elif construction == "shannon_fano":
        # Each root's items by descending weight, ties by item id.
        root_of = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        perm = perm[np.lexsort((perm, -p.probs[perm], root_of))]
        weights = np.append(p.probs[perm], np.inf)
        sums = _root_sums(weights, bounds)
        lo, hi = _layout(bounds, lambda k, a, b: _sf_cuts(weights, sums, a, b))
    elif construction == "huffman":
        first, second, first_count, tops = _huffman(p, perm, bounds)
        subtree = np.empty(2 * len(perm) - len(tops), dtype=np.int64)

        def split(k, a, b):
            j = subtree[k]
            cut = first_count[j]
            subtree[k + 1], subtree[k + 2 * cut] = first[j], second[j]
            return cut

        subtree[2 * bounds[:-1] - np.arange(len(tops))] = tops
        lo, hi = _layout(bounds, split)
        leaves = hi - lo == 1
        perm, leaf_item = np.empty_like(perm), perm
        perm[lo[leaves]] = leaf_item[subtree[leaves]]
    else:
        raise ValueError(f"unknown construction {construction!r}; expected one of {CONSTRUCTIONS}")
    return dict(perm=perm, lo=lo, hi=hi)


def build_plan(p: PriorVector, construction: str, counts_both_children: bool = True) -> NestedPlan:
    """Build a complete nested plan over all items in id order.

    Certain and impossible items never enter the trees.
    """
    probs, ids = p.probs, np.arange(p.n)
    rest = ids[(probs > 0.0) & (probs < 1.0)]
    bounds = _first_stage(p, rest, construction)
    return NestedPlan(
        n=p.n,
        construction=construction,
        auto_defective=ids[probs >= 1.0],
        auto_clear=ids[probs <= 0.0],
        counts_both_children=counts_both_children,
        mu_covered=p.mu,
        **_trees(p, construction, rest, np.array(bounds)),
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
    route = part.individual_route()
    pieces, bounds = [route], [np.arange(len(route) + 1)]
    for band in part.ample_bands():
        pieces.append(band.items)
        bounds.append(bounds[-1][-1] + np.array(_first_stage(p, band.items, construction)[1:], dtype=np.int64))
    return NestedPlan(
        n=p.n,
        construction=construction,
        auto_clear=part.zero_items,
        counts_both_children=counts_both_children,
        mu_covered=p.mu,
        **_trees(p, construction, np.concatenate(pieces), np.concatenate(bounds)),
    )


def _tested_children(plan: NestedPlan) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The pools, as ranges (lo, hi) of ``perm`` in internal node order,
    whose being positive gets each internal node's left and its right child
    tested.  A positive pool's left child is tested, and so is its right
    child with ``counts_both_children``, the same pools, returned as the same
    tuple; otherwise the right child is tested when the left child is
    positive, as a negative one leaves it positive."""
    lo, mid, hi = plan.internal
    parents = (lo, hi)
    return parents, parents if plan.counts_both_children else (lo, mid)


def _recovered(plan: NestedPlan, truths: np.ndarray) -> np.ndarray:
    """The truths on the items in ``perm``: every pool above a defective
    item's leaf is positive, so the leaf is reached and reads positive, and
    no clear item reads positive.  Of the other items only ``auto_defective``
    ones are defective."""
    recovered = truths.copy()
    # The transpose puts the items first, for one truth and for many.
    recovered.T[plan.untested_items] = False
    recovered.T[plan.auto_defective] = True
    return recovered


def _run(plan: NestedPlan, truths: np.ndarray, eps: float) -> AdaptiveRunResult:
    """The recovered vectors and test counts of one truth or of every row of
    a (T, n) block, over the last axis.  Only the pools that
    :func:`_tested_children` reads are answered, from the block's
    :func:`priors.prefix_counts`."""
    if eps > 0.0 and plan.mu_covered < eps:
        return AdaptiveRunResult(np.zeros(truths.shape, dtype=bool), np.zeros(truths.shape[:-1], dtype=np.int64))
    block = truths.reshape(-1, plan.n)
    counts = prefix_counts(block, plan.perm)
    first, second = _tested_children(plan)
    left_tests = positive_pools(counts, *first)[: len(block)]
    right_tests = left_tests if second is first else positive_pools(counts, *second)[: len(block)]
    # [()] gives one truth's count as a scalar and a block's as its array.
    tests = (plan.root_count + left_tests + right_tests).reshape(truths.shape[:-1])[()]
    return AdaptiveRunResult(_recovered(plan, truths), tests)


def run_adaptive(plan: NestedPlan, truth: np.ndarray, eps: float = 0.0) -> AdaptiveRunResult:
    """Execute a plan with noiseless OR pools against a bool truth of length
    n, or against each row of a (T, n) block of truths in one numpy pass,
    which counts the block several truths to a 64-bit word and answers only
    the pools whose outcome decides whether a child is tested.

    Every root is tested, then the children of each positive pool.  With
    ``counts_both_children`` both children are measured.  Otherwise the left
    child is measured first and, when it comes back negative, the right
    child is inferred positive without spending a test.

    When ``eps`` is positive and the plan's covered prior mass is below it,
    the run returns all-zero without testing; that shortcut errs only when
    the truth is nonzero, which happens with probability at most the covered
    mass.  Pass ``eps=0`` to disable the shortcut.
    """
    return _run(plan, truth_array(plan.n, truth, block=True), eps)


def expected_tests(plan: NestedPlan, p: PriorVector) -> float:
    """Exact expected test count of a noiseless run with the shortcut off,
    in closed form: the number of roots plus each child's probability of
    being tested, which :func:`_tested_children` gives from the pools'
    probabilities of being positive.  In inference mode a right child is
    tested when its left sibling is positive, which implies the parent is.
    A pool is positive with probability -expm1(-sum of -log1p(-p_i)) over
    its items, each range summed on its own.  Items declared without
    testing, ``auto_defective`` and ``auto_clear``, cost nothing.
    """
    if plan.n != p.n:
        raise ValueError("plan and prior disagree on the universe size")
    if not len(plan.lo):
        return 0.0
    with np.errstate(divide="ignore"):  # p = 1 gives depth +inf
        depths = np.append(-np.log1p(-p.probs[plan.perm]), 0.0)

    def positive(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        return -np.expm1(-np.add.reduceat(depths, np.stack((lo, hi), axis=1).ravel())[::2])

    first, second = _tested_children(plan)
    left = positive(*first)
    right = left if second is first else positive(*second)
    return plan.root_count + math.fsum(left.tolist()) + math.fsum(right.tolist())


def run_prepartitioned_adaptive(
    p: PriorVector,
    eps: float,
    truth: np.ndarray,
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
    out.update((name, getattr(plan, name).tolist()) for name in _INDEX_FIELDS)
    return out
