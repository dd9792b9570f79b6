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
(:func:`prefix_counts`), only the pools whose outcome decides whether a
child is tested, and descends only through positive pools, so a noiseless
run recovers the true population vector exactly.  Plans serialize to one
flat JSON object marked ``"format": 2``.

Preorder numbers are closed-form.  A tree over m items has 2m - 1 nodes, so
the root over ``perm[s:e]`` that follows j earlier roots is node 2s - j, the
left child of an internal node k (hi - lo > 1) is k + 1, its right child is
k + 2 |left range|, and the roots are the nodes that are no node's child.
The cut constructions are therefore built level by level over int64 arrays:
the frontier is every range still to split, of every root at once, and one
numpy pass per level returns all their left sizes.  The one-node references
for those passes, ``me_split`` and ``_sf_cut``, live in
``tests/helpers.py``.  The constructor checks that pools are nonempty and
each internal node's children partition it, so by induction node k's tree
is the 2 |range| - 1 nodes from k on; as children follow parents, the
roots' trees tile the nodes, and it checks that their ranges tile
``perm``.  A depth-first parse of the nodes in order accepts exactly these
plans.

Each level gives a range of two items its one cut, and decides the wider
ranges' cuts by filtered exact predicates (Shewchuk 1997):
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
two.  A subtree's parent merges in a later round, so the rounds, read
latest first, lay the trees out with no pass over levels.  The heap
reference ``huffman_merge`` lives in ``tests/test_properties.py``.

Truths and recovered vectors are bool arrays.  :func:`run_adaptive` is the
one executor: it runs one truth of length n, or every row of a (T, n) block
of truths, over the last axis, and returns the recovered vectors with one
test count per truth: the plan's roots and each child whose pool in the
plan's ``tested_pools`` is positive, its parent's or, in inference mode,
for a right child, its left sibling's.  So the executor answers only
internal nodes' pools, and in inference mode their left children's, and
counts each truth's positive ones lane by lane, several truths to a 64-bit
word (:func:`positive_pools`).  The lanes are the executor's own, as only
nested pools need them: a test matrix's rows are flat, and
``nonadaptive.run_nonadaptive`` answers them by gathering their ids.  A
depth-first walk that records each tested pool in order, ``walk_plan`` in
``tests/helpers.py``, is the reference it is tested against.
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
from .priors import PriorVector, ValueEq, index_array, truth_array, whole_number

CONSTRUCTIONS = ("max_entropy", "shannon_fano", "huffman")
PLAN_FORMAT = 2
_STORED_FIELDS = ("perm", "lo", "hi", "auto_defective", "auto_clear")
# Plan JSON's index keys in order, the derived left, right and roots among them.
_INDEX_FIELDS = ("perm", "lo", "hi", "left", "right", "roots", "auto_defective", "auto_clear")
_PARTITION = "children must partition their parent into nonempty pools"
_IDS = "plan item ids must be distinct and lie in 0..n-1"
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

    Node k, in preorder, tests ``perm[lo[k]:hi[k]]``.  ``auto_defective`` and
    ``auto_clear`` hold items declared without testing; the trees cover
    everything else.  ``counts_both_children``, a bool (numpy's too), says
    whether a run tests a positive pool's right child or infers it.
    ``mu_covered``, a finite int or float of at least 0, is the prior mass
    over all covered items, used by the small-mass shortcut at execution
    time.  ``n`` is a whole number of at least 1 (3.0 reads as 3).  The five
    index fields take any integer sequences and hold them as 1-D, read-only
    int64 arrays; float or bool values are refused, not truncated.  Plans
    compare and hash by value.

    The constructor's check derives, and the plan keeps read-only, what
    every run reads: ``roots``, the first-stage pools' nodes in test order,
    and ``tested_pools``, the ranges (lo, hi) of ``perm`` whose being
    positive gets each internal node's left and right child tested, in node
    order.  With ``counts_both_children`` that is the node's own range for
    both, one shared tuple; otherwise a right child is tested when its left
    sibling [lo, mid) is positive.  ``left`` and ``right`` (-1 at a leaf)
    are derived by the closed forms of the module docstring when first read.
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
        object.__setattr__(self, "n", whole_number("n", self.n))
        for name in _STORED_FIELDS:
            object.__setattr__(self, name, index_array(f"plan field {name}", getattr(self, name)))
        if self.construction not in CONSTRUCTIONS:
            raise ValueError(f"unknown construction {self.construction!r}; expected one of {CONSTRUCTIONS}")
        both, mass = self.counts_both_children, self.mu_covered
        if not isinstance(both, (bool, np.bool_)):
            raise ValueError(f"counts_both_children must be a bool, got {both!r}")
        object.__setattr__(self, "counts_both_children", bool(both))
        if isinstance(mass, bool) or not isinstance(mass, (int, float)) or not 0 <= mass < math.inf:
            raise ValueError(f"mu_covered must be a finite number of at least 0, got {mass!r}")
        perm, lo, hi = self.perm, self.lo, self.hi
        ids = np.concatenate((perm, self.auto_defective, self.auto_clear))
        if len(ids) and (ids.min() < 0 or int(ids.max()) >= self.n):
            raise ValueError(_IDS)
        seen = np.zeros(self.n, dtype=bool)
        seen[ids] = True
        if np.count_nonzero(seen) < len(ids):
            raise ValueError(_IDS)
        if len(hi) != len(lo):
            raise ValueError("lo and hi need one entry per node")
        inner, b, roots = _links(lo, hi)
        a = inner + 1
        start, mid, end = lo[inner], hi[a], hi[inner]
        if not ((lo[a] == start) & (mid == lo[b]) & (hi[b] == end)).all():
            raise ValueError(_PARTITION)
        bounds = np.concatenate(([0], hi[roots]))
        if (lo[roots] != bounds[:-1]).any() or bounds[-1] != len(perm):
            raise ValueError("root pools must tile perm in order")
        for arr in (start, mid, end, roots):
            arr.flags.writeable = False
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "tested_pools", ((start, end),) * 2 if both else ((start, end), (start, mid)))

    def _children(self, side: int) -> np.ndarray:
        """Each node's left (side 0) or right (side 1) child, -1 at a leaf,
        as :func:`_links` gives them."""
        inner, right, _ = _links(self.lo, self.hi)
        child = np.full(len(self.lo), -1, dtype=np.int64)
        child[inner] = right if side else inner + 1
        child.flags.writeable = False
        return child

    @cached_property
    def left(self) -> np.ndarray:
        """Each node's left child, -1 at a leaf."""
        return self._children(0)

    @cached_property
    def right(self) -> np.ndarray:
        """Each node's right child, -1 at a leaf."""
        return self._children(1)

    @cached_property
    def untested_items(self) -> np.ndarray:
        """The items outside ``perm``, which no run tests, ascending."""
        untested = np.ones(self.n, dtype=bool)
        untested[self.perm] = False
        return np.flatnonzero(untested)


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
    when that misses the target by no more.  A range of two items has the
    one cut 1, outside the filter."""
    cut = np.ones(len(a), dtype=np.int64)
    wide = np.flatnonzero(b - a > 2)
    if not len(wide):
        return cut
    a, b = a[wide], b[wide]
    m = b - a
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
    cut[wide] = np.minimum(end, m - 1) - (inner & (gap <= 0.0))
    rows = (~sure).nonzero()[0]
    if len(rows):
        cut[wide[rows]] = _me_exact(xs, a[rows], b[rows])
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
    gaps that clear the margin leave no earlier prefix with an equal gap.
    A range of two items has the one cut 1, outside the filter."""
    cut = np.ones(len(a), dtype=np.int64)
    wide = np.flatnonzero(b - a > 2)
    if not len(wide):
        return cut
    a, b = a[wide], b[wide]
    m = b - a
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
    cut[wide] = end - ((end > 1) & (under <= over))
    rows = (~sure).nonzero()[0]
    if len(rows):
        s, t = a[rows], b[rows]
        # One exact cut per (m, w) of equal weights, one per other range.
        w = weights[s]
        same = np.unique(np.where(w == weights[t - 1], w.view(np.int64), -1 - rows), return_inverse=True)[1]
        _, first, pair = np.unique(same * len(weights) + t - s, return_index=True, return_inverse=True)
        cut[wide[rows]] = _sf_exact(weights, s[first], t[first])[pair]
    return cut


def _sf_exact(weights: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`_sf_cuts` unfiltered, one range at a time as the one-node
    reference ``_sf_cut`` cuts it: the prefix of all but the last item whose
    doubled sum from 0 lies nearest the range's ``math.fsum`` total."""
    cut = np.empty(len(a), dtype=np.int64)
    for j, (s, e) in enumerate(zip(a.tolist(), b.tolist())):
        gap = np.abs(2.0 * np.cumsum(weights[s : e - 1]) - math.fsum(memoryview(weights[s:e])))
        cut[j] = int(np.argmin(gap)) + 1
    return cut


def _layout(bounds: np.ndarray, split: Callable) -> tuple[np.ndarray, np.ndarray]:
    """Preorder ``lo`` and ``hi`` of trees over the consecutive ranges
    bounds[j]:bounds[j + 1], each nonempty, cut top down one level at a time.

    ``split(a, b)`` gets the ranges [a, b) of the frontier, each of two or
    more items, and returns their left sizes, each in 1..b - a - 1.
    """
    starts, ends = bounds[:-1], bounds[1:]
    roots = 2 * starts - np.arange(len(starts))
    size = 2 * int(bounds[-1]) - len(starts)
    lo, hi = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    lo[roots], hi[roots] = starts, ends
    wide = ends - starts > 1
    k, a, b = roots[wide], starts[wide], ends[wide]
    while len(k):
        cut = split(a, b)
        k, a, b = np.concatenate((k + 1, k + 2 * cut)), np.concatenate((a, a + cut)), np.concatenate((a + cut, b))
        lo[k], hi[k] = a, b
        wide = b - a > 1
        k, a, b = k[wide], a[wide], b[wide]
    return lo, hi


def _huffman(p: PriorVector, perm: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, ...]:
    """Huffman trees over the root ranges bounds[j]:bounds[j + 1] of
    ``perm``, laid out as ``perm``, ``lo`` and ``hi``.  Per root, the two
    lightest subtrees merge until one is left; weight ties break on the
    smallest item id.

    The merges run in rounds over every root at once (module docstring): a
    round sorts the live subtrees by (root, weight, smallest item id), and
    each root pairs from its head all of its subtrees lighter than the
    rounded sum s of its two lightest, or its first two when s absorbs the
    lightest.  A root with m items needs at most m - 1 rounds, typically
    about 2 log2(total weight / lightest weight).

    The rounds, latest first, lay the trees out: a root's top is node
    2 start - j over the range from its first item, a merged subtree's
    first child is the next node over the same start, and its second child
    follows the first's 2 c - 1 nodes and c items.
    """
    size, width = len(perm), np.diff(bounds)
    roots = len(width)
    nodes = 2 * size - roots
    # Subtree j < size is the leaf perm[j]; merged subtrees follow.  The
    # int64 arrays share one block: freeing one that large raises glibc's
    # dynamic trim threshold, so the heap stays resident for the executor.
    # Separate arrays left it trimmed after each build, and prepart_scale's
    # runs about a third slower (page faults; n = 1e4, 2-core x86-64 host).
    weight = np.empty(nodes)
    least, count, node, start = np.empty((4, nodes), dtype=np.int64)
    count[:] = 1
    weight[:size], least[:size] = p.probs[perm], perm
    # A root of one item is its leaf; the others enter the rounds.
    tops = bounds[:-1].copy()
    root = np.repeat(np.arange(roots), width)
    live = np.flatnonzero(width[root] > 1)
    root = root[live]
    rounds, merged = [], size
    while len(live):
        order = np.lexsort((least[live], weight[live], root))
        live, root = live[order], root[order]
        head = np.flatnonzero(np.concatenate(([True], root[1:] != root[:-1])))
        run = np.diff(np.append(head, len(live)))
        w = weight[live]
        pairs = np.maximum(np.add.reduceat(w < (w[head] + w[head + 1]).repeat(run), head) >> 1, 1)
        last = pairs.cumsum()
        k = int(last[-1])
        at = np.repeat(head - 2 * (last - pairs), pairs) + np.arange(0, 2 * k, 2)
        a, b = live[at], live[at + 1]
        new = slice(merged, merged + k)
        weight[new], least[new], count[new] = w[at] + w[at + 1], np.minimum(least[a], least[b]), count[a] + count[b]
        rounds.append((merged, a, b))
        # A root with two live subtrees is done once they merge.
        done = run == 2
        tops[root[head[done]]] = merged + last[done] - 1
        unpaired = np.ones(len(live), dtype=bool)
        unpaired[at] = unpaired[at + 1] = False
        stay = np.repeat(~done, pairs)
        live = np.concatenate((live[unpaired], np.arange(merged, merged + k)[stay]))
        root = np.concatenate((root[unpaired], root[at[stay]]))
        merged += k
    node[tops], start[tops] = 2 * bounds[:-1] - np.arange(roots), bounds[:-1]
    for first, a, b in reversed(rounds):
        new = slice(first, first + len(a))
        v, at, c = node[new], start[new], count[a]
        node[a], start[a] = v + 1, at
        node[b], start[b] = v + 2 * c, at + c
    lo, hi = np.empty(nodes, dtype=np.int64), np.empty(nodes, dtype=np.int64)
    lo[node], hi[node] = start, start + count
    laid = np.empty_like(perm)
    laid[start[:size]] = least[:size]
    return laid, lo, hi


def _trees(p: PriorVector, construction: str, perm: np.ndarray, bounds: np.ndarray) -> dict:
    """One tree per root range of ``perm``: the cut constructions laid out
    level by level, Huffman's from its merge rounds."""
    if construction == "max_entropy":
        # p = 1 items, only at singleton roots, split nothing: depth 0 keeps
        # the sums finite.
        q = p.probs[perm]
        xs = np.append(-np.log1p(-np.where(q < 1.0, q, 0.0)), np.inf)
        sums = _root_sums(xs, bounds)
        lo, hi = _layout(bounds, lambda a, b: _me_cuts(xs, sums, a, b))
    elif construction == "shannon_fano":
        # Each root's items by descending weight, ties by item id.
        root_of = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        perm = perm[np.lexsort((perm, -p.probs[perm], root_of))]
        weights = np.append(p.probs[perm], np.inf)
        sums = _root_sums(weights, bounds)
        lo, hi = _layout(bounds, lambda a, b: _sf_cuts(weights, sums, a, b))
    elif construction == "huffman":
        perm, lo, hi = _huffman(p, perm, bounds)
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


def word_lanes(n: int) -> int:
    """How many truths one 64-bit word of :func:`prefix_counts` packs when
    its counts run to n, one lane each of the smallest unsigned type that
    holds n: 8 below n = 256, 4 below 65,536, 2 below 2^32, else 1."""
    return 8 // np.min_scalar_type(n).itemsize


def prefix_counts(truths: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The defectives among ``index[:j]`` for every j and every row of a
    (T, n) bool block, item-major: row j of the result, len(index) + 1
    rows in all, holds the T counts, each a lane of the smallest unsigned
    type that holds len(index).

    One truth has one lane to a word, its own type.  A block of two or more
    packs :func:`word_lanes` lanes into each uint64 word, truth t in lane
    t % L of word t // L, and leaves the last word's spare lanes at 0.
    Numbers that no lane can exceed add lane by lane in their words, with
    no carry from one lane into the next.  No count exceeds len(index), so
    one running sum of words counts L truths at once."""
    rows, n = truths.shape
    lane = np.min_scalar_type(len(index))
    if rows == 1:
        # The truth's bytes widen as they are summed, which spares a pass
        # over the counts.
        counts = np.zeros((len(index) + 1, 1), dtype=lane)
        np.cumsum(truths[0].view(np.uint8)[index], dtype=lane, out=counts[1:, 0])
        return counts
    per = word_lanes(len(index))
    width = -(-rows // per)
    counts = np.zeros((len(index) + 1, width), dtype=np.uint64)
    lanes = np.zeros((n, width * per), dtype=lane)
    # numpy copies a transpose one short inner row at a time, so a block
    # of one word is laid out truth by truth.
    if width == 1:
        for t, truth in enumerate(truths):
            lanes[:, t] = truth
    else:
        lanes[:, :rows] = truths.T
    # take gathers rows several times faster than an index does, and with
    # mode="clip" (every index is valid) straight into counts, as cumsum
    # then sums in place.
    lanes.view(np.uint64).take(index, axis=0, out=counts[1:], mode="clip")
    np.cumsum(counts[1:], axis=0, out=counts[1:])
    return counts


def positive_pools(counts: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """How many of the pools ``index[lo[k]:hi[k]]``, at most len(index) of
    them, hold a defective, for each lane of ``counts`` from
    :func:`prefix_counts`, as int64: a pool holds one when its range's
    counts differ.  A count never falls, so each word's difference is its
    lanes' differences, and the 0-or-1 lanes add up per truth in one sum
    of words."""
    lane = np.min_scalar_type(len(counts) - 1)
    gap = counts.take(hi, axis=0)
    base = counts.take(lo, axis=0)
    if gap.dtype == lane:  # one lane to a word
        return np.count_nonzero(gap != base, axis=0)
    gap -= base
    lanes = gap.view(lane)
    np.not_equal(lanes, 0, out=lanes, casting="unsafe")
    return (np.ones(len(gap), dtype=gap.dtype) @ gap).view(lane).astype(np.int64)


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


def run_adaptive(plan: NestedPlan, truth: np.ndarray, eps: float = 0.0) -> AdaptiveRunResult:
    """Execute a plan with noiseless OR pools against a bool truth of length
    n, or against each row of a (T, n) block of truths in one numpy pass,
    which counts the block several truths to a 64-bit word
    (:func:`prefix_counts`) and answers only the pools whose outcome decides
    whether a child is tested, the plan's ``tested_pools``.

    Every root is tested, then the children of each positive pool.  With
    ``counts_both_children`` both children are measured.  Otherwise the left
    child is measured first and, when it comes back negative, the right
    child is inferred positive without spending a test.

    When ``eps`` is positive and the plan's covered prior mass is below it,
    the run returns all-zero without testing; that shortcut errs only when
    the truth is nonzero, which happens with probability at most the covered
    mass.  Pass ``eps=0`` to disable the shortcut.  Either way one truth's
    count is an int64 scalar and a block's an array.
    """
    truths = truth_array(plan.n, truth, block=True)
    # [()] gives one truth's count as a scalar and a block's as its array.
    if eps > 0.0 and plan.mu_covered < eps:
        return AdaptiveRunResult(np.zeros(truths.shape, dtype=bool), np.zeros(truths.shape[:-1], dtype=np.int64)[()])
    block = truths.reshape(-1, plan.n)
    counts = prefix_counts(block, plan.perm)
    first, second = plan.tested_pools
    left_tests = positive_pools(counts, *first)[: len(block)]
    right_tests = left_tests if second is first else positive_pools(counts, *second)[: len(block)]
    tests = (len(plan.roots) + left_tests + right_tests).reshape(truths.shape[:-1])[()]
    return AdaptiveRunResult(_recovered(plan, truths), tests)


def expected_tests(plan: NestedPlan, p: PriorVector) -> float:
    """Exact expected test count of a noiseless run with the shortcut off,
    in closed form: the number of roots plus each child's probability of
    being tested, the probability that its pool in the plan's
    ``tested_pools`` is positive.  In inference mode a right child is
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

    first, second = plan.tested_pools
    left = positive(*first)
    right = left if second is first else positive(*second)
    return len(plan.roots) + math.fsum(memoryview(left)) + math.fsum(memoryview(right))


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
