"""Property tests of the flat plans and the CSR test matrices.

Priors have at most 10 items and may hold the extreme values 0, 1, 1e-300
and exactly 1/2.  Every construction, built whole or pre-partitioned, must
give a plan that passes the constructor's check, covers every item once,
recovers every sampled truth exactly, and writes JSON whose index fields
are its arrays, the children and roots it derives included.  Both
executors must agree with the depth-first walk ``walk_plan`` from
``tests/helpers.py`` on every truth vector, in test count and recovered
vector, also on plans over some of the items and on the pre-partitioned
plans of the benchmark's n = 1e4 priors; and the
closed-form E[T] must agree with full enumeration.

The level-by-level builders must lay out exactly the plan of a per-node
reference kept here: a preorder walk that asks ``me_split`` or ``_sf_cut``
from ``tests/helpers.py``, or the Huffman merge, for one node's split at a
time.  Deterministic cases hold the Huffman merge rounds to the heap
reference on halving weights (one pair per round), on sums that absorb the
lightest weight, on weight ties and on pre-partitioned plans with many
singleton roots.  The vectorized constructor check must reject a corrupted
or renumbered plan, and every plan of up to three nodes, exactly when a
recursive-descent parse of ``lo`` and ``hi``, kept here, rejects it, and
derive the children and roots that the parse finds.

The filtered max-entropy and Shannon-Fano cuts must give the plans of their
exact fallback alone, with the margin patched to infinity, and the per-node
reference's on adversarial priors: p down to the least subnormal, p = 1
route items before wide bands, equal weights and pools of two and three.
At n = 1e5 fewer than 1% of ranges may fall back.

Band combining must give the partition of the per-band loop it replaced,
``combine_reference`` in ``tests/helpers.py``, on priors that fill chosen
bands with chosen counts, so that merged, skipped, void and absent ample
bands all occur.

Matrices have at most 12 items and may hold empty rows, repeated ids and a
pre-cleared set.  Measuring and decoding must agree with a per-row reference,
COMP must never miss a defective outside the pre-cleared set, the written
JSON must hold the matrix's rows, blocks and pre-cleared set, and the
constructor must reject malformed arrays.
The exhaustive matrix audit must agree with a per-truth loop over
:func:`run_nonadaptive`.

The guide-table sampler must return exactly the ids of a binary search over
the same CDF, also for uniforms on its bucket edges and on the CDF values,
taking its uniforms in order across chunk edges.  Measuring a sampled
design's drawn chunks must give the tests and recovery of running its
matrix, also at n = 1000 where designs span several chunks, and on
multi-band block designs where measuring stops blocks early, and a success
curve those of a per-trial matrix loop.
"""

import heapq
import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from priorgt import adaptive, sim
from priorgt.adaptive import (
    CONSTRUCTIONS,
    NestedPlan,
    _INDEX_FIELDS,
    _trees,
    build_plan,
    build_prepartitioned_plan,
    expected_tests,
    plan_to_json_dict,
    run_adaptive,
)
from priorgt.nonadaptive import (
    CHUNK,
    TestMatrix,
    _sampling_cdf,
    build_block_matrix,
    build_cca_matrix,
    design_to_json_dict,
    measure_design,
    optimal_g,
    run_nonadaptive,
    sample_block,
    sample_cca,
)
from priorgt.oracle import exact_expected_tests, exhaustive_decode_check
from priorgt.partition import band_boundaries, build_partition, combine_for_concentration
from priorgt.priors import PriorVector, generate_prior
from priorgt.sim import draw_truth, success_curve

from helpers import (
    _sf_cut,
    combine_reference,
    design_spans,
    drawn_ids,
    matrix_from_rows,
    me_first_stage,
    me_split,
    partition_fields,
    sf_build_tree,
    sf_first_stage,
    walk_plan,
)

probabilities = st.one_of(st.sampled_from([0.0, 1.0, 1e-300, 0.5]), st.floats(0.0, 1.0))
priors = st.lists(probabilities, min_size=1, max_size=10).map(lambda ps: PriorVector(tuple(ps)))
# eps None builds the whole-vector plan; a value builds the pre-partitioned one.
plan_specs = st.tuples(
    priors,
    st.sampled_from(CONSTRUCTIONS),
    st.booleans(),
    st.sampled_from([None, 0.01, 0.3]),
)
PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def make_plan(p, construction, counts_both_children, eps):
    if eps is None:
        return build_plan(p, construction, counts_both_children=counts_both_children)
    return build_prepartitioned_plan(p, eps, construction, counts_both_children)


@PROPERTY_SETTINGS
@given(plan_specs)
def test_plans_are_valid_and_cover_every_item_once(spec):
    plan = make_plan(*spec)
    p, eps = spec[0], spec[3]
    assert replace(plan) == plan  # re-runs the constructor's check
    assert sorted(plan.perm.tolist() + plan.auto_defective.tolist() + plan.auto_clear.tolist()) == list(range(p.n))
    clear_cut = 0.0 if eps is None else eps / (2 * p.n)
    assert all(p.probs[i] <= clear_cut for i in plan.auto_clear)
    assert all(p.probs[i] == 1.0 for i in plan.auto_defective)


@PROPERTY_SETTINGS
@given(plan_specs, st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5))
def test_plans_recover_sampled_truths_exactly(spec, seeds):
    plan = make_plan(*spec)
    for seed in seeds:
        truth = draw_truth(spec[0], seed)
        result = run_adaptive(plan, truth, eps=0.0)
        # The zero set of a pre-partitioned plan is declared clear untested.
        expected = truth.copy()
        expected[list(plan.auto_clear)] = False
        assert np.array_equal(result.recovered, expected)
        assert result.tests_used == len(walk_plan(plan, truth)[1])


def every_truth(n):
    return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)


def assert_executors_match_the_walk(plan, truths, eps=0.0):
    """``run_adaptive`` agrees with ``walk_plan`` on every row of a (T, n)
    block ``truths``, run as the block, alone and as a block of one row:
    the same test count, one per pool the walk tests, and the same
    recovered vector."""
    walks = [walk_plan(plan, truth, eps=eps) for truth in truths]
    tests = [len(transcript) for _, transcript in walks]
    assert [reference.tests_used for reference, _ in walks] == tests
    block = run_adaptive(plan, truths, eps=eps)
    ones = [run_adaptive(plan, truth, eps=eps) for truth in truths]
    rows = [run_adaptive(plan, truths[k : k + 1], eps=eps) for k in range(len(truths))]
    assert block.tests.dtype == np.int64 and block.tests.tolist() == tests
    assert [one.tests_used for one in ones] == [row.tests_used for row in rows] == tests
    assert all(row.tests.shape == (1,) for row in rows)
    recovered = np.stack([reference.recovered for reference, _ in walks])
    assert np.array_equal(block.recovered, recovered) and block.recovered.shape == truths.shape
    assert np.array_equal(np.stack([one.recovered for one in ones]), recovered)
    assert np.array_equal(np.concatenate([row.recovered for row in rows]), recovered)


@PROPERTY_SETTINGS
@given(plan_specs)
def test_batch_executor_matches_scalar_on_every_truth(spec):
    plan = make_plan(*spec)
    # The second eps lies above the covered mass, so the shortcut fires.
    for eps in (0.0, plan.mu_covered + 0.5):
        assert_executors_match_the_walk(plan, every_truth(spec[0].n), eps)


@pytest.mark.parametrize("kind", ["shannon_fano", "huffman"])
@pytest.mark.parametrize("counts_both_children", [True, False], ids=["both", "infer"])
def test_executors_match_the_walk_on_plans_over_some_items(kind, counts_both_children):
    # Items outside the plan's one pool read clear, whatever the truth.
    p = PriorVector((0.3, 0.05, 0.5, 0.2, 0.0, 0.1, 1.0, 0.4))
    for pool in [(3,), (1, 5, 7), (7, 0, 2, 6, 4)]:
        plan = replace(sf_build_tree(pool, p, kind), counts_both_children=counts_both_children)
        assert_executors_match_the_walk(plan, every_truth(p.n))


@pytest.mark.parametrize("construction", ["max_entropy", "huffman"])
@pytest.mark.parametrize("counts_both_children", [True, False], ids=["both", "infer"])
def test_executors_match_the_walk_on_benchmark_scale_plans(construction, counts_both_children):
    # The prepart_scale workload's priors and eps, 20 truths each.
    for family, mu, rho in [("uniform", 16.0, 0.99), ("uniform", 100.0, 0.99), ("exponential", 16.0, 0.999),
                            ("exponential", 48.0, 0.999)]:
        p = generate_prior(family, 10_000, mu, rho=rho)
        plan = build_prepartitioned_plan(p, 0.01, construction, counts_both_children)
        truths = np.stack([draw_truth(p, seed) for seed in range(20)])
        assert_executors_match_the_walk(plan, truths, eps=0.01)


@pytest.mark.parametrize("n", [255, 256, 65_535, 65_536])
def test_executors_match_the_walk_at_the_uint16_count_boundary(n):
    # Pools are answered from prefix counts in lanes of the smallest unsigned
    # type that holds len(perm), uint8 up to 255 items, uint16 up to 65,535
    # and uint32 from 65,536, packed per = 8, 4 or 2 to a 64-bit word.  An
    # all-defective truth takes the last count to len(perm).  Blocks of 2,
    # per - 1, per, per + 1 and 2 per + 1 truths end in one, in a word's last
    # lane or the first of a new word; a (0, n) block has no truth.
    p = generate_prior("uniform", n, 8.0)
    plan = build_plan(p, "huffman")
    assert len(plan.perm) == n
    per = 8 // np.min_scalar_type(n).itemsize
    truths = np.stack([draw_truth(p, seed) for seed in range(2 * per)] + [np.ones(n, dtype=bool)])
    assert_executors_match_the_walk(plan, truths)
    whole = run_adaptive(plan, truths)
    for height in (2, per - 1, per, per + 1):
        rows = np.r_[: height - 1, -1]
        block = run_adaptive(plan, truths[rows])
        assert block.tests.tolist() == whole.tests[rows].tolist()
        assert np.array_equal(block.recovered, whole.recovered[rows])
    empty = run_adaptive(plan, np.zeros((0, n), dtype=bool))
    assert empty.tests.shape == (0,) and empty.recovered.shape == (0, n)


@PROPERTY_SETTINGS
@given(plan_specs)
def test_plans_survive_json_roundtrip(spec):
    """The JSON text's index fields are the plan's arrays, and its children
    and roots those the reference parse finds; its stored fields give the
    plan back."""
    plan = make_plan(*spec)
    data = json.loads(json.dumps(plan_to_json_dict(plan)))
    assert all(data[name] == getattr(plan, name).tolist() for name in _INDEX_FIELDS)
    stored = {name: data[name] for name in FIELDS}
    assert [data["left"], data["right"], data["roots"]] == list(walk_check(plan.n, **stored))
    flags = dict(counts_both_children=data["counts_both_children"], mu_covered=data["mu_covered"])
    assert NestedPlan(data["n"], data["construction"], **stored, **flags) == plan


def huffman_merge(items, p):
    """Merge the two lightest subtrees until one is left, weight ties broken
    on the smallest item id; returns the leaves in depth-first order and the
    left-child sizes in preorder."""
    heap = [(p.probs[i], i, (i,), ()) for i in items]
    heapq.heapify(heap)
    while len(heap) > 1:
        w1, t1, leaves1, cuts1 = heapq.heappop(heap)
        w2, t2, leaves2, cuts2 = heapq.heappop(heap)
        heapq.heappush(heap, (w1 + w2, min(t1, t2), leaves1 + leaves2, (len(leaves1),) + cuts1 + cuts2))
    return heap[0][2], heap[0][3]


def reference_plan(p, construction, counts_both_children, eps):
    """The plan of ``make_plan``, laid out one node at a time in preorder."""
    perm, lo, hi = [], [], []

    def add_tree(pool, split):
        start = len(perm)
        perm.extend(pool)
        stack = [(start, len(perm))]
        while stack:
            a, b = stack.pop()
            lo.append(a)
            hi.append(b)
            if b - a > 1:
                mid = a + split(perm[a:b])
                stack += [(mid, b), (a, mid)]

    def add_pools(items):
        first_stage = me_first_stage if construction == "max_entropy" else sf_first_stage
        for pool in first_stage(p, items):
            if construction == "max_entropy":
                add_tree(pool, lambda sub: len(me_split(sub, p)[0]))
            elif construction == "shannon_fano":
                add_tree(sorted(pool, key=lambda i: (-p.probs[i], i)), lambda sub: _sf_cut(sub, p))
            else:
                leaves, cuts = huffman_merge(pool, p)
                add_tree(leaves, lambda sub, cuts=iter(cuts): next(cuts))

    if eps is None:
        add_pools([i for i in range(p.n) if 0.0 < p.probs[i] < 1.0])
        auto_defective = [i for i in range(p.n) if p.probs[i] >= 1.0]
        auto_clear = [i for i in range(p.n) if p.probs[i] <= 0.0]
    else:
        part = combine_for_concentration(build_partition(p, eps), p)
        for i in part.individual_route():
            add_tree((i,), None)
        for band in part.ample_bands():
            add_pools(band.items)
        auto_defective, auto_clear = [], part.zero_items
    return NestedPlan(p.n, construction, perm, lo, hi, auto_defective, auto_clear, counts_both_children, p.mu)


@PROPERTY_SETTINGS
@given(plan_specs)
def test_level_builders_match_per_node_reference(spec):
    assert make_plan(*spec) == reference_plan(*spec)


def test_level_builders_match_per_node_reference_at_scale():
    """Hundreds to thousands of items, so that levels hold ranges of many
    lengths and are split in several padded blocks."""
    rng = np.random.default_rng(5)
    extremes = rng.choice([0.0, 1e-17, 1e-300, 0.25, 0.5, 1.0], size=1500)
    mixed = np.where(rng.random(1500) < 0.2, extremes, rng.uniform(0.0, 0.05, 1500))
    priors = [
        generate_prior("exponential", 3000, 24.0, rho=0.999),
        generate_prior("uniform", 2000, 40.0),
        PriorVector(tuple(mixed.tolist())),
    ]
    for p in priors:
        for construction in CONSTRUCTIONS:
            for eps in (None, 0.01):
                spec = (p, construction, eps is None, eps)
                assert make_plan(*spec) == reference_plan(*spec), (p.n, construction, eps)


@pytest.mark.parametrize("q", [1e-17, 1e-300, 0.01, 0.2])
def test_equal_probabilities_split_like_the_reference(q):
    """Equal probabilities with odd pool sizes put the nearest-prefix search
    on a rounding tie.  Each range's sums start from 0, as me_split's do;
    differences of one prefix sum over the whole pool round differently and
    flip some of these ties (at 1e-300 with 5 items, for one)."""
    for n in range(3, 40, 2):
        p = PriorVector((q,) * n)
        for eps in (None, 0.3):
            spec = (p, "max_entropy", True, eps)
            assert make_plan(*spec) == reference_plan(*spec), (q, n, eps)
    for q, n, cuts in ((1e-300, 5, [2, 1, 2, 1]), (1e-17, 11, [6, 3, 1, 1, 1, 1, 3, 1, 1, 1])):
        plan = build_plan(PriorVector((q,) * n), "max_entropy")
        assert [plan.hi[plan.left[k]] - plan.lo[k] for k in range(len(plan.lo)) if plan.left[k] >= 0] == cuts


@pytest.fixture
def cut_rows(monkeypatch):
    """Counts the ranges the level builders split, those of them with three
    or more items, and the rows their exact fallbacks compute, by wrapping
    the four cut functions."""
    counts = dict.fromkeys(("ranges", "wide", "exact"), 0)

    def wrap(name, fast):
        real = getattr(adaptive, name)

        def wrapped(values, *args):
            a, b = args[-2:]
            if fast:
                counts["ranges"] += len(a)
                counts["wide"] += int((b - a > 2).sum())
            else:
                counts["exact"] += len(a)
            return real(values, *args)

        monkeypatch.setattr(adaptive, name, wrapped)

    for name in ("_me_cuts", "_sf_cuts"):
        wrap(name, True)
    for name in ("_me_exact", "_sf_exact"):
        wrap(name, False)
    return counts


def test_every_range_through_the_fallback_gives_the_filtered_plans(monkeypatch, cut_rows):
    """With an infinite margin no cut is certified: every range of three or
    more items goes through the exact fallback, once per distinct range
    (Shannon-Fano ranges of equal weights share one), pairs have one cut,
    and the plans stay the same."""
    rng = np.random.default_rng(9)
    extremes = rng.choice([5e-324, 1e-300, 1e-17, 0.25, 0.5, 1.0], size=600)
    priors = [
        (generate_prior("exponential", 3000, 24.0, rho=0.999), True),
        (generate_prior("linear", 1000, 10.0), True),
        (generate_prior("uniform", 2000, 40.0), False),
        (PriorVector(np.where(rng.random(1500) < 0.2, np.resize(extremes, 1500), rng.uniform(0, 0.05, 1500))), False),
    ]
    kinds = [(c, eps) for c in ("max_entropy", "shannon_fano") for eps in (None, 0.01)]
    specs = [(p, c, eps, distinct) for p, distinct in priors for c, eps in kinds]
    filtered = [make_plan(p, c, True, eps) for p, c, eps, _ in specs]
    monkeypatch.setattr(adaptive, "_MARGIN", np.inf)
    for (p, c, eps, distinct), plan in zip(specs, filtered):
        cut_rows.update(ranges=0, wide=0, exact=0)
        assert make_plan(p, c, True, eps) == plan, (p.n, c, eps)
        assert cut_rows["exact"] <= cut_rows["ranges"]
        assert cut_rows["wide"] <= cut_rows["exact"] if distinct or c == "max_entropy" else cut_rows["exact"] > 0


@pytest.mark.parametrize("construction", ["max_entropy", "shannon_fano"])
def test_few_ranges_fall_back_on_a_large_uniform_prior(cut_rows, construction):
    """The filter certifies nearly every cut, so the fast path runs: at
    n = 1e5 fewer than 1% of ranges are computed exactly."""
    build_plan(generate_prior("uniform", 100_000, 100.0), construction)
    assert cut_rows["ranges"] == 100_000 - 145 and cut_rows["exact"] < cut_rows["ranges"] / 100


def route_prior():
    """Three p = 1 items among 2,000 at 0.01: pre-partitioned, they are
    singleton roots just before the band's wide roots."""
    probs = np.full(2000, 0.01)
    probs[[3, 500, 1999]] = 1.0
    return PriorVector(probs)


def adversarial_priors():
    """Probabilities down to the least subnormal, p = 1 route items among
    wide bands, equal weights, and pools of two and three items."""
    rng = np.random.default_rng(13)
    tiny = [np.full(n, q) for q in (5e-324, 1e-300, 1e-17) for n in (2, 3, 8, 41)]
    mixed = rng.choice([5e-324, 1e-300, 1e-17, 0.01, 0.2], size=400)
    small = [(0.3, 0.3), (0.3, 0.3, 0.3), (1e-300, 0.4), (0.2, 1e-17, 0.2), (0.45, 0.45, 0.1)]
    return [PriorVector(q) for q in (*tiny, mixed, np.full(999, 0.004), np.full(64, 0.1), *small)] + [route_prior()]


@pytest.mark.parametrize("p", adversarial_priors(), ids=lambda p: f"n{p.n}-p{p.probs[0]:.0e}")
def test_filtered_cuts_match_the_reference_on_adversarial_priors(p, cut_rows):
    for construction in ("max_entropy", "shannon_fano"):
        for eps in (None, 0.01):
            spec = (p, construction, True, eps)
            assert make_plan(*spec) == reference_plan(*spec), (construction, eps)


def test_p_one_route_items_do_not_cross_the_prefix_sums(cut_rows):
    """The sums over all of ``perm`` count the p = 1 route items' infinite
    depths as 0, so the band after them still locates and certifies its
    cuts; only the ties of its equal weights fall back."""
    p = route_prior()
    for construction in ("max_entropy", "shannon_fano"):
        cut_rows.update(ranges=0, wide=0, exact=0)
        plan = build_prepartitioned_plan(p, 0.01, construction)
        assert plan.perm[:3].tolist() == [3, 500, 1999]
        assert cut_rows["exact"] < cut_rows["ranges"] / 100
        assert construction == "shannon_fano" or not cut_rows["exact"]


def assert_huffman_merges_like_the_heap(p, pools):
    """``_trees`` over consecutive root pools of item ids lays out, per pool,
    the leaves and left sizes of the heap merge."""
    perm = np.array([i for pool in pools for i in pool], dtype=np.int64)
    bounds = np.cumsum([0] + [len(pool) for pool in pools])
    trees = _trees(p, "huffman", perm, bounds)
    lo, hi = trees["lo"], trees["hi"]
    leaves, cuts = [], []
    for pool in pools:
        pool_leaves, pool_cuts = huffman_merge(pool, p)
        leaves += pool_leaves
        cuts += pool_cuts
    assert trees["perm"].tolist() == leaves
    # An internal node's left child is the next node.
    assert [int(hi[k + 1] - lo[k]) for k in range(len(lo)) if hi[k] - lo[k] > 1] == cuts


def test_huffman_rounds_merge_halving_weights_one_pair_at_a_time():
    """Each weight is the sum of all lighter ones plus the lightest, so every
    round pairs only the two lightest: the worst case, m - 1 rounds."""
    p = PriorVector(tuple((0.4 * 0.5 ** np.arange(60)).tolist()))
    for m in (2, 3, 7, 31, 60):
        assert_huffman_merges_like_the_heap(p, [list(range(m))])
        assert_huffman_merges_like_the_heap(p, [list(range(m))[::-1]])
    assert_huffman_merges_like_the_heap(p, [[i] for i in range(3)] + [list(range(3, 60))[::-1]])


@pytest.mark.parametrize("tiny, heavy", [(1e-300, 0.5), (1e-17, 0.3)])
def test_huffman_rounds_merge_two_when_the_sum_absorbs_the_lightest(tiny, heavy):
    """fl(tiny + heavy) == heavy: only the tiny subtree is lighter than the
    sum of the two lightest, and its merge ties the other heavy ones."""
    assert tiny + heavy == heavy
    p = PriorVector((heavy, heavy, tiny, heavy, heavy, tiny / 2, heavy, 0.1))
    for pool in ([2, 0, 1, 3], [0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [6, 5, 4, 3, 2], list(range(8)), [7, 1, 2, 0]):
        assert_huffman_merges_like_the_heap(p, [pool])
    assert_huffman_merges_like_the_heap(p, [[2, 0, 1], [5], [3, 4, 6, 7]])


@pytest.mark.parametrize("q", [1e-300, 1e-17, 0.01, 0.2])
def test_huffman_rounds_break_weight_ties_on_the_smallest_item(q):
    """Equal weights at odd counts leave a leaf to wait a round; weights q
    and 2q tie leaves with merged subtrees.  Ids run against pool order so
    that the position in a pool never agrees with the smallest item id."""
    for n in range(3, 40, 2):
        p = PriorVector((q,) * n)
        assert_huffman_merges_like_the_heap(p, [list(range(n))[::-1]])
        assert_huffman_merges_like_the_heap(p, [list(range(n))])
    p = PriorVector(tuple(q * (1 + (i % 3 == 0)) for i in range(39)))
    assert_huffman_merges_like_the_heap(p, [list(range(39))[::-1]])
    assert_huffman_merges_like_the_heap(p, [list(range(0, 39, 2)), list(range(1, 39, 2))[::-1]])


@pytest.mark.parametrize("eps", [0.01, 0.3])
def test_prepartitioned_huffman_with_many_singleton_roots(eps):
    """Singleton roots of the individual route sit between the band pools;
    they take no round, and every other root keeps its own merge."""
    rng = np.random.default_rng(3)
    mixed = np.concatenate((rng.uniform(0.5, 0.95, 60), rng.uniform(0.0, 0.02, 300)))
    for p in (generate_prior("exponential", 400, 40.0, rho=0.99), PriorVector(tuple(rng.permutation(mixed).tolist()))):
        spec = (p, "huffman", True, eps)
        plan = make_plan(*spec)
        widths = [plan.hi[k] - plan.lo[k] for k in plan.roots]
        assert widths.count(1) >= 20 and max(widths) > 1
        assert plan == reference_plan(*spec)


@st.composite
def combining_priors(draw):
    """(prior, eps) at n = 12..40, so gamma is 3 or 4: each band gets 0..6
    items, some exactly on its lower boundary, and the rest of the n items
    are 0, 1, 1/2, 1/4, 1/16 or eps/2n, in a drawn order."""
    eps = draw(st.sampled_from([0.05, 0.5]))
    n = draw(st.integers(12, 40))
    lo_cut = eps / (2 * n)
    bounds = band_boundaries(n, eps)
    probs = []
    for hi, lo in zip(bounds, bounds[1:]):
        lo = max(lo, lo_cut)
        member = st.one_of(st.just(lo), st.floats(lo, hi, exclude_min=True, exclude_max=True))
        probs += draw(st.lists(member, max_size=6))
    specials = st.sampled_from([0.0, 1.0, 0.5, 0.25, 0.0625, lo_cut])
    probs = probs[:n] + draw(st.lists(specials, min_size=n - len(probs[:n]), max_size=n - len(probs[:n])))
    return PriorVector(draw(st.permutations(probs))), eps


@PROPERTY_SETTINGS
@given(combining_priors())
# gamma 3 at n = 12, eps 0.5, and eps/2n = 1/48.  Ample bands of mass 0.15
# and 0.9 absorb both around a one-item band; one ample band of mass 0.15
# leaves the concentration void; no band is ample; items sit exactly on
# 1/4, 1/16 and eps/2n, with p = 0 and p = 1 beside them.
@example(case=(PriorVector([0.05] * 3 + [0.1] + [0.3] * 3 + [0.0] * 5), 0.5))
@example(case=(PriorVector([0.05] * 3 + [0.0] * 9), 0.5))
@example(case=(PriorVector([0.05, 0.1, 0.3, 0.7, 1.0] + [0.0] * 7), 0.5))
@example(case=(PriorVector([0.25] * 3 + [0.0625] * 3 + [1 / 48, 0.0, 1.0] + [0.3] * 3), 0.5))
def test_combining_matches_the_per_band_reference(case):
    p, eps = case
    part = build_partition(p, eps)
    combined = combine_for_concentration(part, p)
    assert partition_fields(combined) == partition_fields(combine_reference(part, p))
    assert all(b.items.dtype == np.int64 and not b.items.flags.writeable for b in combined.bands)


def walk_check(n, perm, lo, hi, auto_defective, auto_clear):
    """The constructor's check as a recursive-descent parse of the nodes in
    order, from ``lo`` and ``hi`` alone: each root's range starts where the
    last one ended, a node's left child is the next node and starts where
    it does, and its right child follows the left child's tree and ends
    where it does.  Returns each node's left and right child (-1 at a leaf)
    and the roots, as the parse meets them."""
    ids = perm + auto_defective + auto_clear
    if len(set(ids)) != len(ids) or any(not 0 <= i < n for i in ids):
        raise ValueError("ids")
    if len(hi) != len(lo):
        raise ValueError("lengths")
    left, right, roots = [-1] * len(lo), [-1] * len(lo), []
    k = 0

    def parse(a):
        """Consume the tree of the next node, which must start at a and hold
        an item, and return where it ends."""
        nonlocal k
        node = k
        if node == len(lo) or lo[node] != a or hi[node] <= a:
            raise ValueError("node")
        k += 1
        if hi[node] - a > 1:
            left[node] = k
            mid = parse(a)
            right[node] = k
            if parse(mid) != hi[node]:
                raise ValueError("partition")
        return hi[node]

    cursor = 0
    while k < len(lo):
        roots.append(k)
        cursor = parse(cursor)
    if cursor != len(perm):
        raise ValueError("cover")
    return left, right, roots


FIELDS = ("perm", "lo", "hi", "auto_defective", "auto_clear")


def assert_same_verdict(n, fields):
    """The constructor accepts ``fields`` exactly when the walk does, and
    then derives the walk's children and roots."""
    try:
        links = walk_check(n, **fields)
    except ValueError:
        links = None
    try:
        plan = NestedPlan(n, "max_entropy", **fields)
    except ValueError:
        plan = None
    assert (plan is None) == (links is None), (n, fields)
    if plan is not None:
        assert [plan.left.tolist(), plan.right.tolist(), plan.roots.tolist()] == list(links), (n, fields)
    return plan is not None


def renumbered(plan, i, j):
    """The plan's fields with nodes i and j trading ranges: the same pools,
    numbered out of preorder unless i = j or the ranges are equal."""
    fields = {name: list(getattr(plan, name)) for name in FIELDS}
    for values in (fields["lo"], fields["hi"]):
        values[i], values[j] = values[j], values[i]
    return fields


@PROPERTY_SETTINGS
@given(plan_specs, st.data())
def test_plan_check_rejects_corruptions_like_the_walk(spec, data):
    """One field corrupted: an entry set, appended or deleted, two entries
    swapped, or n moved by one."""
    plan = make_plan(*spec)
    fields = {name: list(getattr(plan, name)) for name in FIELDS}
    n = plan.n
    name = data.draw(st.sampled_from(FIELDS + ("n",)))
    if name == "n":
        n += data.draw(st.sampled_from([-1, 1]))
    else:
        values = fields[name]
        top = max(n, len(plan.lo)) + 2
        edit = data.draw(st.sampled_from(["set", "append", "delete", "swap"] if values else ["append"]))
        if edit == "append":
            values.append(data.draw(st.integers(-2, top)))
        else:
            k = data.draw(st.integers(0, len(values) - 1))
            if edit == "set":
                values[k] = data.draw(st.integers(-2, top))
            elif edit == "delete":
                del values[k]
            else:
                j = data.draw(st.integers(0, len(values) - 1))
                values[k], values[j] = values[j], values[k]
    assert_same_verdict(n, fields)


def test_plan_check_rejects_renumberings_like_the_walk():
    """Every pair of nodes over equally many items traded: every node keeps
    its width, so only the ranges of a node's neighbours in preorder can
    tell."""
    rng = np.random.default_rng(17)
    for _ in range(12):
        p = PriorVector(tuple(rng.uniform(0.02, 0.45, size=int(rng.integers(2, 9))).tolist()))
        for construction in CONSTRUCTIONS:
            for eps in (None, 0.3):
                plan = make_plan(p, construction, True, eps)
                width = [b - a for a, b in zip(plan.lo, plan.hi)]
                for i in range(len(width)):
                    for j in range(i, len(width)):
                        if width[i] == width[j]:
                            assert_same_verdict(plan.n, renumbered(plan, i, j))


def test_plan_check_matches_the_walk_on_every_small_plan():
    """Every ``lo`` and ``hi`` of up to three nodes with entries in 0..3,
    over ``perm`` = range(m) for m in 0..3.  Five of them are plans: none,
    one, two or three singleton roots, and one pair split into two leaves."""
    accepted = 0
    for m in range(4):
        for size in range(4):
            for lo in itertools.product(range(4), repeat=size):
                for hi in itertools.product(range(4), repeat=size):
                    fields = dict(perm=list(range(m)), lo=list(lo), hi=list(hi), auto_defective=[], auto_clear=[])
                    accepted += assert_same_verdict(3, fields)
    assert accepted == 5


@PROPERTY_SETTINGS
@given(plan_specs)
def test_closed_form_expected_tests_match_enumeration(spec):
    plan = make_plan(*spec)
    p = spec[0]
    exact = exact_expected_tests(plan, p).value
    assert math.isclose(expected_tests(plan, p), exact, rel_tol=1e-12, abs_tol=1e-12)


@st.composite
def matrices(draw):
    """A CSR matrix over n <= 12 items, with a truth vector of the same width."""
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=6), max_size=10))
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = np.asarray([i for row in rows for i in row], dtype=np.int64)
    zero = frozenset(draw(st.sets(st.integers(0, n - 1))))
    truth = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    m = TestMatrix(n=n, indptr=indptr, indices=indices, zero_assigned=zero)
    return m, rows, truth


@pytest.mark.parametrize("size", [255, 256, 65_535, 65_536])
def test_matrix_runs_match_the_per_row_reference_at_count_dtype_boundaries(size):
    # Rows are answered from prefix counts over all ``size`` ids in the
    # smallest unsigned type that holds ``size``: uint8 up to 255 ids, uint16
    # up to 65,535, uint32 beyond.  An all-defective truth takes the last
    # count to ``size``.
    rng = np.random.default_rng(size)
    n = 300
    ids = rng.integers(0, n, size=size)
    rows = np.split(ids, np.sort(rng.integers(0, size + 1, size=20)))
    m = matrix_from_rows(n, rows)
    assert len(m.indices) == size
    last = np.zeros(n, dtype=bool)
    last[ids[-1]] = True
    for truth in (np.ones(n, dtype=bool), last, rng.random(n) < 0.002, np.zeros(n, dtype=bool)):
        outcomes, _ = run_nonadaptive(m, truth)
        assert outcomes.tolist() == [bool(truth[row].any()) for row in rows]


@PROPERTY_SETTINGS
@given(matrices())
def test_matrix_run_matches_per_row_reference(case):
    m, rows, truth = case
    outcomes, recovered = run_nonadaptive(m, truth)
    assert outcomes.dtype == recovered.dtype == np.bool_
    assert outcomes.tolist() == [bool(truth[row].any()) for row in rows]
    cleared = set(m.zero_assigned)
    for row, y in zip(rows, outcomes):
        if not y:
            cleared.update(row)
    assert recovered.tolist() == [i not in cleared for i in range(m.n)]
    # COMP is one-sided: it never misses a defective outside the pre-cleared set.
    assert all(recovered[i] for i in range(m.n) if truth[i] and i not in m.zero_assigned)


@PROPERTY_SETTINGS
@given(matrices(), st.data())
def test_matrix_constructor_rejects_malformed_arrays(case, data):
    m = case[0]
    indptr, indices = m.indptr.copy(), m.indices.copy()
    bad = [
        (indptr + 1, indices),  # does not start at 0
        (indptr, np.append(indices, 0)),  # does not end at len(indices)
        (np.append(indptr, indptr[-1] + 1), np.append(indices, m.n)),  # id n
        (np.append(indptr, indptr[-1] + 1), np.append(indices, -1)),  # id -1
    ]
    if m.t >= 2:
        r = data.draw(st.integers(1, m.t - 1))
        decreasing = indptr.copy()
        decreasing[r] = indptr[-1] + 1
        bad.append((decreasing, indices))
    for bad_indptr, bad_indices in bad:
        with pytest.raises(ValueError):
            TestMatrix(n=m.n, indptr=bad_indptr, indices=bad_indices)
    for zero in ({m.n}, {-1}, m.zero_assigned | {data.draw(st.integers(m.n, 2 * m.n))}):
        with pytest.raises(ValueError):
            TestMatrix(n=m.n, indptr=indptr, indices=indices, zero_assigned=zero)


@settings(PROPERTY_SETTINGS, max_examples=50)
@given(matrices(), st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12))
def test_matrix_audit_matches_per_truth_loop(case, probs):
    m = case[0]
    p = PriorVector(tuple(probs[: m.n]))
    checked = np.ones(m.n, dtype=bool)
    checked[list(m.zero_assigned)] = False
    passed, err_terms = True, []
    for mask in range(1 << m.n):
        truth = np.array([(mask >> i) & 1 for i in range(m.n)], dtype=bool)
        _, recovered = run_nonadaptive(m, truth)
        if (truth & ~recovered & checked).any():
            passed = False
            break
        if not np.array_equal(recovered, truth):
            err_terms.append(math.prod(q if bit else 1.0 - q for q, bit in zip(p.probs, truth.tolist())))
    check = exhaustive_decode_check(m, p)
    assert check.passed == passed
    if passed:
        assert check.error_probability == math.fsum(err_terms)


class _FixedUniforms:
    """Stands in for a generator, handing out chosen uniforms in order."""

    def __init__(self, u):
        self.u, self.used = u, 0

    def random(self, shape):
        size = math.prod(shape)
        out = self.u[self.used : self.used + size].reshape(shape)
        self.used += size
        return out


@PROPERTY_SETTINGS
@given(
    st.one_of(st.integers(1, 400), st.sampled_from([1, 2, 64, 256])),
    st.sampled_from(["random", "zeros", "skewed", "equal"]),
    st.integers(0, 2**32 - 1),
)
def test_draw_ids_match_binary_search(n, shape, seed):
    rng = np.random.default_rng(seed)
    weights = rng.random(n)
    if shape == "zeros":
        weights[rng.random(n) < 0.7] = 0.0
        weights[rng.integers(n)] = 1.0
    elif shape == "skewed":
        weights = weights**30 + 1e-300
    elif shape == "equal":
        weights = np.ones(n)
    weights /= weights.sum()
    cdf = _sampling_cdf(weights)
    assert (np.diff(cdf) >= 0).all() and cdf[-1] == 1.0
    # The guide table has K buckets, K the smallest power of two >= 2n.
    k = 1 << (2 * n - 1).bit_length()
    edges = np.arange(k) / k
    u = np.concatenate((edges, np.nextafter(edges, 0.0), cdf, np.nextafter(cdf, 0.0), rng.random(200)))
    u = u[(u >= 0.0) & (u < 1.0)]
    # Rows of 7 draws, cycling through the chosen uniforms, over more than
    # two chunks: the sampler must take them in order across chunk edges.
    g = 7
    t = -(-max(len(u), 2 * CHUNK + 1) // g)
    u = np.resize(u, t * g)
    fixed = _FixedUniforms(u)
    ids = drawn_ids(fixed, weights, t, g)
    assert ids.dtype == np.int64 and fixed.used == len(u)
    assert np.array_equal(ids.reshape(-1), np.searchsorted(cdf, u, side="right"))
    # A real generator is consumed exactly as by one (t, g) block of uniforms.
    drawn = drawn_ids(np.random.default_rng(seed), weights, 7, 5)
    assert np.array_equal(drawn, np.searchsorted(cdf, np.random.default_rng(seed).random((7, 5)), side="right"))


@st.composite
def sampled_priors(draw):
    """Priors of 3..40 items holding a zero-set item (p = 0) and a tail item
    (p = 0.7), so that the block design has a pre-cleared set and an
    individual route, with truths that need not follow the prior."""
    n = draw(st.integers(3, 40))
    entries = st.one_of(st.floats(0.0, 0.45), st.sampled_from([0.0, 1e-300, 0.5, 1.0]))
    probs = draw(st.lists(entries, min_size=n - 2, max_size=n - 2))
    p = PriorVector((0.0, 0.7, *probs))
    truths = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=1, max_size=3))
    return p, [np.array(bits, dtype=bool) for bits in truths] + [draw_truth(p, draw(st.integers(0, 2**32 - 1)))]


@PROPERTY_SETTINGS
@given(
    sampled_priors(),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.01, 0.3]),
    st.sampled_from([0.5, 1.0]),
)
def test_measured_draws_match_matrix_runs(case, t, seed, eps, delta):
    p, truths = case
    g = optimal_g(p)
    designs = [
        (sample_cca(p, t, g, seed), build_cca_matrix(p, t, g, seed)),
        (sample_block(p, eps, delta, seed), build_block_matrix(p, eps, delta, seed)),
    ]
    assert len(designs[1][0].zero) and design_spans(designs[1][0])[-1][3] == "individual"
    for design, m in designs:
        assert design.to_matrix() == m
        for truth in truths:
            t_used, recovered = measure_design(design, truth)
            _, expected = run_nonadaptive(m, truth)
            assert t_used == m.t
            assert np.array_equal(recovered, expected)



@st.composite
def sampled_designs(draw):
    """A block design or a whole-vector design of 1..40 rows over a prior
    from :func:`sampled_priors`."""
    p = draw(sampled_priors())[0]
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return sample_block(p, draw(st.sampled_from([0.01, 0.3])), draw(st.sampled_from([0.5, 1.0])), seed)
    return sample_cca(p, draw(st.integers(1, 40)), optimal_g(p), seed)


@PROPERTY_SETTINGS
@given(sampled_designs())
def test_matrix_survives_json_roundtrip(design):
    """The JSON text holds the drawn rows, each block's row range, items and
    label, and the pre-cleared set, and a "blocks" key exactly when every
    block is labelled, as in the block design.  Each written row lies inside
    its block's items."""
    m = design.to_matrix()
    data = json.loads(json.dumps(design_to_json_dict(design)))
    assert data["n"] == m.n and data["rows"] == [row.tolist() for row in m.rows]
    spans = design_spans(design)
    assert spans[-1][1] == m.t if spans else m.t == 0
    written = [{"row_lo": lo, "row_hi": hi, "items": items.tolist(), "label": label} for lo, hi, items, label in spans]
    labelled = all(block.label is not None for block in design.blocks)
    assert data.get("blocks") == (written if labelled else None)
    for lo, hi, items, _ in spans:
        assert all(set(row) <= set(items.tolist()) for row in data["rows"][lo:hi])
    assert data.get("zero_assigned", []) == sorted(design.zero.tolist()) == sorted(m.zero_assigned)

@st.composite
def banded_priors(draw):
    """Priors over several probability bands at eps = 0.01, two of them with
    at least gamma = 4 items, plus zero-set items (p = 0) and certain items
    (p = 1) in shuffled order.  Truths: all clear, every zero-set item
    defective, free bits and a draw from the prior."""
    ranges = [(0.25, 0.5), (1 / 16, 0.25), (1 / 256, 1 / 16), (2.0**-16, 1 / 256)]
    sizes = [draw(st.integers(0, 6)), draw(st.integers(4, 8)), draw(st.integers(4, 8)), draw(st.integers(0, 6))]
    probs = [draw(st.floats(lo, hi, exclude_max=True)) for (lo, hi), size in zip(ranges, sizes) for _ in range(size)]
    probs += [0.0] * draw(st.integers(1, 3)) + [1.0] * draw(st.integers(1, 2))
    p = PriorVector(tuple(draw(st.permutations(probs))))
    zero = p.probs == 0.0
    bits = np.asarray(draw(st.lists(st.booleans(), min_size=p.n, max_size=p.n)))
    truths = [np.zeros(p.n, dtype=bool), zero, bits, draw_truth(p, draw(st.integers(0, 2**32 - 1)))]
    return p, truths


@PROPERTY_SETTINGS
@given(banded_priors(), st.integers(1, 200), st.integers(0, 2**32 - 1), st.sampled_from([0.5, 1.0]))
def test_early_stopped_measure_matches_full_matrix_runs(case, t, seed, delta):
    # measure_design stops each block once its clear items are cleared and
    # skips the block's unread uniforms; run_nonadaptive on the full matrix
    # is the reference.  Each block is also measured with all its items
    # defective, which needs no row of it.
    p, truths = case
    block = sample_block(p, 0.01, delta, seed)
    assert len(block.blocks) >= 2 and len(block.zero) and len(block.route)
    for design in (block, sample_cca(p, t, optimal_g(p), seed)):
        m = design.to_matrix()
        cases = list(truths)
        for law in design.blocks:
            bits = truths[2].copy()
            bits[law.items] = True
            cases.append(bits)
        for truth in cases:
            t_used, recovered = measure_design(design, truth)
            assert t_used == m.t
            assert np.array_equal(recovered, run_nonadaptive(m, truth)[1])


@pytest.mark.parametrize("family", ["uniform", "exponential"])
def test_measured_draws_match_matrix_runs_across_chunks(family):
    # At n = 1000 and mu = 8 the CCA design is 1202 rows of 124 or 129 draws,
    # 19 or 20 chunks, and the block design is one band of 19 chunks (uniform)
    # or four bands, one of them a single row of 109,105 draws (exponential).
    p = generate_prior(family, 1000, 8.0)
    g = optimal_g(p)
    rng = np.random.default_rng(23)
    truths = [draw_truth(p, int(s)) for s in rng.integers(0, 2**32, size=6)]
    truths.append(rng.random(1000) < 0.002)
    for design, m in [
        (sample_cca(p, 1202, g, 8), build_cca_matrix(p, 1202, g, 8)),
        (sample_block(p, 0.01, 1.0, 8), build_block_matrix(p, 0.01, 1.0, 8)),
    ]:
        assert sum(1 for _ in design.draws()) > len(design.blocks)
        for truth in truths:
            t_used, recovered = measure_design(design, truth)
            assert t_used == m.t
            assert np.array_equal(recovered, run_nonadaptive(m, truth)[1])


def test_success_curve_matches_per_trial_matrix_loop(monkeypatch):
    p = generate_prior("exponential", 80, 3.0)
    grid, trials, seed = [1, 10, 40, 160], 12, 77
    g = optimal_g(p)
    expected = []
    for ti, t in enumerate(grid):
        successes = 0
        for trial_index in range(trials):
            ss = np.random.SeedSequence([seed, ti, trial_index])
            truth_seed, matrix_seed = (int(s) for s in ss.generate_state(2, dtype=np.uint64))
            truth = np.random.default_rng(truth_seed).random(p.n) < p.probs
            _, recovered = run_nonadaptive(build_cca_matrix(p, t, g, matrix_seed), truth)
            successes += np.array_equal(recovered, truth)
        expected.append((t, successes / trials))
    assert 0.0 < expected[2][1] < 1.0  # the grid spans partial recovery
    assert success_curve(p, grid, trials, seed) == expected
    # Blocks of 5 truths split each budget's 12 trials into 5, 5 and 2.
    monkeypatch.setattr(sim, "TRUTH_BLOCK_CELLS", 5 * p.n)
    assert success_curve(p, grid, trials, seed) == expected
