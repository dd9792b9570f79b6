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
under-sized-band items, and a band whose row budget is zero, get one
singleton row each.

Ids are drawn by inverse-CDF sampling through a guide table (Chen & Asau
1974): a table of K buckets, K a power of two at least 2n, gives each
uniform a start at or before its answer, and a few forward steps end on it.
Each draw costs O(1) on average, and since u K and b/K are exact for a
power of two, the ids equal those of a binary search over the same CDF.

A :class:`SampledDesign` is a design's law and its seed: per block the
items, the clipped CDF with its guide table, the row and draw counts and the
band label, plus the individually tested items and the zero set.  Its ids
are drawn on demand by one generator, max(1, CHUNK // g) rows at a time, so
a temporary holds at most ``CHUNK`` draws; a wider row is drawn ``CHUNK``
at a time and comes as its distinct ids.  PCG64 spends one 64-bit output
per double, so the chunks hold exactly the ids of one (t, g) draw, up to a
wide row's order and repeats.  The same law serves any seed.

Row counts are T4's budget ``bounds.sampled_budget`` rounded up; its slack
is checked by ``bounds.check_delta``.  A matrix is stored in compressed
sparse row form and compares by value (``priors.ValueEq``).  Every row is
measured from the truth's ``priors.prefix_counts`` over ``indices``, the
count that answers an adaptive plan's pools over ``perm``: a row is
positive when the counts at its ends differ.  Every negative row is
cleared in one scatter.  Repeated draws change neither, so sampled rows
keep each id once; for the same reason :func:`measure_design` measures the
drawn chunks directly, without sorting or deduplicating them, for Monte
Carlo runs.

:func:`measure_design` also stops drawing a block once every clear item in
it is cleared and skips the rest with ``PCG64.advance``; its docstring shows
why that is exact.  :meth:`SampledDesign.draws` and
:meth:`SampledDesign.to_matrix` stay complete: they are the reference that
measuring is tested against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .bounds import check_delta, sampled_budget
from .partition import build_partition
from .priors import INT64_MAX, PriorVector, ValueEq, index_array, prefix_counts, truth_array, whole_number

# Draws per chunk.  A design's ids are drawn and consumed max(1, CHUNK // g)
# rows at a time, so temporaries stay cache-sized however many rows it has,
# and measuring overshoots the draw where a block is settled by less than a
# chunk, or one row where a row is wider; such a row is drawn CHUNK at a time.
CHUNK = 1 << 13


def sampling_distribution(p: PriorVector) -> np.ndarray:
    """Row-sampling distribution (1 - p_i) / (n - mu); sums to one."""
    return _distribution(p.probs, p.n - p.mu)


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
    return _optimal_g_from(sampling_distribution(p), p.probs)


def num_tests_cca(p: PriorVector, delta: float) -> int:
    """Row budget ceil(4e (1+delta) mu ln n) for full-vector recovery with
    failure probability about n**-delta; 0 when mu = 0 or n = 1.

    The guarantee needs every p_i below 1/2; a warning is emitted otherwise
    and the count is still returned.
    """
    t = math.ceil(sampled_budget(p.mu, p.n, delta))
    if p.max_prob >= 0.5:
        warnings.warn(
            "recovery guarantee void: some prior probability is at least 1/2",
            stacklevel=2,
        )
    return t


@dataclass(frozen=True, eq=False)
class TestMatrix(ValueEq):
    """A boolean test matrix in compressed sparse row form.

    Row r tests ``indices[indptr[r]:indptr[r+1]]``, in build order: ascending
    for sampled rows, band order in the block design.  Both arrays are
    read-only int64, and their values must be integers: floats and bools
    are refused, not truncated.  ``zero_assigned`` lists items the decoder
    clears directly without any covering row; its ids must be integers in
    0..n-1 as well.  A design's block layout is read from the design, not
    stored here.  Matrices compare by value and are unhashable.
    """

    __test__ = False  # not a pytest class, despite the name
    __hash__ = None

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    zero_assigned: frozenset[int] = frozenset()

    def __post_init__(self):
        for name in ("indptr", "indices"):
            object.__setattr__(self, name, index_array(name, getattr(self, name)))
        object.__setattr__(self, "zero_assigned", frozenset(self.zero_assigned))
        indptr, indices = self.indptr, self.indices
        if len(indptr) == 0 or indptr[0] != 0 or indptr[-1] != len(indices) or (np.diff(indptr) < 0).any():
            raise ValueError("indptr must start at 0, never decrease and end at len(indices)")
        if len(indices) and (indices.min() < 0 or indices.max() >= self.n):
            raise ValueError("row contains an item id outside 0..n-1")
        zero = index_array("zero_assigned", list(self.zero_assigned))
        if len(zero) and (zero.min() < 0 or zero.max() >= self.n):
            raise ValueError("zero_assigned holds an item id outside 0..n-1")

    @property
    def t(self) -> int:
        return len(self.indptr) - 1

    @cached_property
    def rows(self) -> tuple[np.ndarray, ...]:
        """One read-only view into ``indices`` per row."""
        return tuple(np.split(self.indices, self.indptr[1:-1])) if self.t else ()


def _sampling_cdf(weights: np.ndarray) -> np.ndarray:
    """Running sum of ``weights`` clipped to at most 1 and ending at exactly
    1.  The clip keeps it sorted where rounding lifts a partial sum above 1
    before the last entry; every uniform lies below 1, so no draw moves."""
    cdf = np.minimum(np.cumsum(weights), 1.0)
    cdf[-1] = 1.0
    return cdf


@dataclass(frozen=True, eq=False)
class BlockLaw:
    """``t`` rows of ``g`` draws each, positions in the int64 array
    ``items`` drawn from the clipped sampling CDF ``cdf`` through its guide
    table ``guide``.  ``label`` names a block design's band, such as
    ``"band0"``, and is None in the whole-vector design; matrix JSON lists
    a design's blocks only when every one is labelled."""

    items: np.ndarray
    cdf: np.ndarray
    guide: np.ndarray
    t: int
    g: int
    label: str | None = None


def _block_law(items: np.ndarray, weights: np.ndarray, t: int, g: int, label: str | None = None) -> BlockLaw:
    """The law of t rows of g draws from ``weights`` over ``items``.  Its
    guide table has K buckets, K the smallest power of two at least 2n, and
    ``guide[b]`` is the binary search's answer for u = b/K."""
    cdf = _sampling_cdf(weights)
    k = 1 << (2 * len(cdf) - 1).bit_length()
    return BlockLaw(items, cdf, np.searchsorted(cdf, np.arange(k) / k, side="right"), t, g, label)


def _inverse_cdf(block: BlockLaw, u: np.ndarray) -> np.ndarray:
    """``searchsorted(block.cdf, u, "right")`` for an array of uniforms,
    through the guide table (Chen & Asau 1974; Devroye 1986, III.2.4): a
    draw starts at ``guide[floor(u K)]`` and steps forward while
    ``cdf[id] <= u``, at most n/K <= 1/2 steps on average.  Because K is a
    power of two, u K and b/K are exact, so the start never passes the
    answer and the steps stop exactly on it."""
    cdf, guide = block.cdf, block.guide
    ids = guide[(u * len(guide)).astype(np.intp)]
    flat_ids, flat_u = ids.reshape(-1), u.reshape(-1)
    todo = np.flatnonzero(cdf[flat_ids] <= flat_u)
    while len(todo):
        flat_ids[todo] += 1
        todo = todo[cdf[flat_ids[todo]] <= flat_u[todo]]
    return ids


def _block_chunks(block: BlockLaw, rng) -> Iterator[np.ndarray]:
    """One block's ids, drawn with replacement, as (r, g) int64 arrays of
    positions in the block's ``items`` in row order, r = max(1, CHUNK // g)
    rows or the block's rest.  Each chunk's uniforms are drawn when it is
    pulled, and map to ids by :func:`_inverse_cdf`: the ids equal a binary
    search's, from the same uniforms in the same order.  PCG64 spends one
    64-bit output per double, so successive (r, g) chunks of uniforms are
    exactly one (t, g) block's.

    A row wider than ``CHUNK`` is drawn ``CHUNK`` uniforms at a time into a
    mask over the block's items and comes as a (1, k) array of its k
    distinct ids, ascending: measuring and the matrix ignore the order and
    repeats of a row's ids, and no temporary holds more than ``CHUNK``
    draws.
    """
    rows = max(1, CHUNK // block.g)
    for lo in range(0, block.t, rows):
        if block.g <= CHUNK:
            yield _inverse_cdf(block, rng.random((min(rows, block.t - lo), block.g)))
            continue
        mask = np.zeros(len(block.items), dtype=bool)
        for drawn in range(0, block.g, CHUNK):
            mask[_inverse_cdf(block, rng.random(min(CHUNK, block.g - drawn)))] = True
        yield np.flatnonzero(mask)[None]


def _csr_rows(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of drawn ids as (row sizes, indices); duplicates collapse to set
    membership, leaving each row's ids ascending."""
    ids = np.sort(ids, axis=1)
    first = np.ones(ids.shape, dtype=bool)
    first[:, 1:] = ids[:, 1:] != ids[:, :-1]
    return first.sum(axis=1), ids[first]


@dataclass(frozen=True, eq=False)
class SampledDesign:
    """A sampled design as its law and seed; its ids are drawn on demand.

    ``blocks`` are drawn in order from one generator seeded with ``seed``.
    Every ``route`` item then gets one singleton row, and ``zero`` items get
    no row and are cleared by the decoder directly.  The same law serves
    every seed: ``dataclasses.replace(design, seed=s)`` is the design drawn
    with seed s.  Block k's rows follow the rows of blocks 0..k-1, and the
    route's rows follow every block's.  Every block of the block design is
    labelled with its band; the whole-vector design's one block is not.
    """

    n: int
    seed: int
    blocks: tuple[BlockLaw, ...]
    route: np.ndarray
    zero: np.ndarray

    @property
    def t(self) -> int:
        return sum(block.t for block in self.blocks) + len(self.route)

    def draws(self) -> Iterator[tuple[int, np.ndarray]]:
        """Every drawn id as (block index, ids) chunks: each block's
        :func:`_block_chunks` in block order from one generator.  Unlike
        :func:`measure_design`, which stops a block early, this never skips
        a row."""
        rng = np.random.default_rng(self.seed)
        for index, block in enumerate(self.blocks):
            for ids in _block_chunks(block, rng):
                yield index, ids

    def to_matrix(self) -> TestMatrix:
        sizes = [np.zeros(1, dtype=np.int64)]
        indices = []
        for index, ids in self.draws():
            row_sizes, local = _csr_rows(ids)
            sizes.append(row_sizes)
            indices.append(self.blocks[index].items[local])
        sizes.append(np.ones(len(self.route), dtype=np.int64))
        indices.append(self.route)
        return TestMatrix(
            n=self.n,
            indptr=np.cumsum(np.concatenate(sizes)),
            indices=np.concatenate(indices),
            zero_assigned=frozenset(self.zero.tolist()),
        )


def sample_cca(p: PriorVector, t: int, g: int, seed: int) -> SampledDesign:
    """t rows of g ids each from the whole-vector sampling distribution, t
    and g whole numbers (3.0 reads as 3).  Deterministic given the seed."""
    t, g = whole_number("t", t, -INT64_MAX), whole_number("g", g, -INT64_MAX)
    if t < 1:
        raise ValueError(f"the sampled design needs at least 1 row, got t={t}; its budget "
                         "4e(1+delta) mu ln n is 0 exactly when mu = 0 or n = 1, whatever delta")
    if g < 1:
        raise ValueError("g must be at least 1")
    law = _block_law(np.arange(p.n, dtype=np.int64), sampling_distribution(p), t, g)
    none = np.zeros(0, dtype=np.int64)
    return SampledDesign(n=p.n, seed=seed, blocks=(law,), route=none, zero=none)


def cca_design(p: PriorVector, delta: float, seed: int) -> SampledDesign:
    """The sampled design at its T4 budget: :func:`num_tests_cca` rows of
    :func:`optimal_g` draws each.  At mu = 0, where optimal_g is undefined,
    the budget is 0 rows and :func:`sample_cca` refuses it."""
    t = num_tests_cca(p, delta)
    return sample_cca(p, t, optimal_g(p) if t else 1, seed)


def sample_block(p: PriorVector, eps: float, delta: float, seed: int) -> SampledDesign:
    """Per-band draws over a pre-partition, the block design.

    Every ample band gets ceil(4e (1+delta) mu_s ln n_s) rows drawn from its
    own restricted distribution with its own optimal g; under-sized bands and
    the tail get one singleton row per item, after the bands' rows, and so
    does an ample band whose budget is zero rows, such as a one-item band
    (ln 1 = 0) when gamma is 1; zero-set items get no row.
    """
    check_delta(delta)
    part = build_partition(p, eps)
    blocks = []
    routed = [part.individual_route()]
    for k, band in enumerate(part.ample_bands()):
        n_s = band.size
        mu_s = p.restricted_mu(band.items)
        t_s = math.ceil(sampled_budget(mu_s, n_s, delta))
        if t_s == 0:
            routed.append(band.items)
            continue
        probs = p.probs[band.items]
        weights = _distribution(probs, n_s - mu_s)
        blocks.append(_block_law(band.items, weights, t_s, _optimal_g_from(weights, probs), f"band{k}"))
    return SampledDesign(n=p.n, seed=seed, blocks=tuple(blocks), route=np.concatenate(routed), zero=part.zero_items)


def build_cca_matrix(p: PriorVector, t: int, g: int, seed: int) -> TestMatrix:
    """The matrix of :func:`sample_cca`."""
    return sample_cca(p, t, g, seed).to_matrix()


def build_block_matrix(p: PriorVector, eps: float, delta: float, seed: int) -> TestMatrix:
    """The direct-sum matrix of :func:`sample_block`."""
    return sample_block(p, eps, delta, seed).to_matrix()


def measure_design(design: SampledDesign, truth: np.ndarray) -> tuple[int, np.ndarray]:
    """Measure a design's draws against a bool truth of length n and decode
    by COMP: ``(t, recovered)``, as :func:`run_nonadaptive` gives on its
    matrix.

    A row is positive when any of its draws is defective; every draw of a
    negative row and the zero set are cleared.  Repeated draws change
    neither, so rows are never sorted or deduplicated, and no more than one
    chunk of draws is held at a time; a row wider than a chunk comes as its
    distinct ids and counts as its g draws.

    Each block is measured only until every clear item in it is cleared;
    its later rows are never drawn.  This is exact: a negative row holds
    only clear items, so later rows could clear nothing more, and blocks
    are disjoint from each other and from the route and the zero set.  A
    block with no defective is measured as its stream of t g draws in rows
    of one draw, the same doubles in the same order: each of its rows is
    negative, so each draw clears its item whatever row it falls in, and
    the block can stop mid-row.  Either way the stop rule is tested once
    per chunk of at most ``CHUNK`` draws (or one wider row).  The
    generator then skips the block's unread uniforms with
    ``PCG64.advance``, which equals drawing them, one 64-bit output per
    double, so the next block gets the same ids.  ``t`` still counts every
    row of the design.
    """
    bits = truth_array(design.n, truth)
    cleared = np.zeros(design.n, dtype=bool)
    rng = np.random.default_rng(design.seed)
    for block in design.blocks:
        local = bits[block.items]
        done = local.copy()
        drawn = 0
        # With no defective every row is negative, so each draw clears its
        # item whatever row it falls in: read the same doubles as rows of one.
        law = block if local.any() else replace(block, t=block.t * block.g, g=1)
        chunks = _block_chunks(law, rng)
        # Test before pulling: a chunk's uniforms are spent once it is drawn.
        while not done.all() and (ids := next(chunks, None)) is not None:
            drawn += len(ids) * law.g
            done[ids[~local[ids].any(axis=1)]] = True
        rng.bit_generator.advance(block.t * block.g - drawn)
        cleared[block.items] = done & ~local
    cleared[design.route[~bits[design.route]]] = True
    cleared[design.zero] = True
    return design.t, ~cleared


def decode_comp(m: TestMatrix, outcomes: Sequence[int]) -> np.ndarray:
    """Clear every item seen in a negative row (plus the pre-cleared set);
    declare everything else defective.  Returns the estimate as a bool
    array.  ``outcomes`` holds one bool or integer 0 or 1 per row; anything
    else, such as 2 or 0.5, is refused, not cast."""
    positive = np.asarray(outcomes)
    if positive.dtype.kind in "iu" and ((positive == 0) | (positive == 1)).all() or not positive.size:
        positive = positive.astype(bool)
    if positive.dtype != np.bool_ or positive.shape != (m.t,):
        raise ValueError(f"outcomes must be {m.t} bools or 0/1 integers, got {positive.dtype} {positive.shape}")
    negative = ~positive
    cleared = np.zeros(m.n, dtype=bool)
    cleared[m.indices[np.repeat(negative, np.diff(m.indptr))]] = True
    cleared[list(m.zero_assigned)] = True
    return ~cleared


def run_nonadaptive(m: TestMatrix, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Measure every row against a bool truth of length n (noiseless OR) and
    decode: ``(outcomes, recovered)``, both bool arrays."""
    counts = prefix_counts(truth_array(m.n, truth)[None], m.indices)[:, 0]
    positive = counts[m.indptr[1:]] > counts[m.indptr[:-1]]
    return positive, decode_comp(m, positive)


def design_to_json_dict(design: SampledDesign) -> dict:
    """The design's matrix as JSON: ``n``, its ``rows``, and
    ``zero_assigned`` when the zero set is not empty.  When every block is
    labelled, as in the block design, ``blocks`` lists each block's rows
    [row_lo, row_hi), items and label: a block's row_lo is the sum of the
    row counts before it, and its row_hi adds its own.  The route's rows
    come last, labelled ``"individual"``, when it has items."""
    m = design.to_matrix()
    out: dict = {"n": m.n, "rows": [row.tolist() for row in m.rows]}
    if all(block.label is not None for block in design.blocks):
        layout = [(block.t, block.items, block.label) for block in design.blocks]
        if len(design.route):
            layout.append((len(design.route), design.route, "individual"))
        out["blocks"], row_lo = [], 0
        for t, items, label in layout:
            out["blocks"].append({"row_lo": row_lo, "row_hi": row_lo + t, "items": items.tolist(), "label": label})
            row_lo += t
    if m.zero_assigned:
        out["zero_assigned"] = sorted(m.zero_assigned)
    return out
