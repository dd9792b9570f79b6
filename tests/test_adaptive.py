import hashlib
import itertools
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from priorgt import adaptive
from priorgt.adaptive import (
    _INDEX_FIELDS,
    NestedPlan,
    build_plan,
    build_prepartitioned_plan,
    plan_from_json_dict,
    plan_to_json_dict,
    run_adaptive,
    run_adaptive_batch,
    run_prepartitioned_adaptive,
)
from priorgt.partition import build_partition, combine_for_concentration
from priorgt.priors import PriorVector, generate_prior
from priorgt.sim import draw_truth

from helpers import me_first_stage, me_split, sf_build_tree, sf_first_stage, walk_plan


def pool(plan, k):
    """Items tested by node ``k``."""
    return tuple(plan.perm[plan.lo[k] : plan.hi[k]].tolist())


def leaf_depths(plan):
    """Map item -> depth of its leaf (every root at depth 0)."""
    out = {}
    stack = [(k, 0) for k in plan.roots]
    while stack:
        k, depth = stack.pop()
        if plan.left[k] < 0:
            out[pool(plan, k)[0]] = depth
        else:
            stack += [(plan.left[k], depth + 1), (plan.right[k], depth + 1)]
    return out


def all_truths(n):
    for bits in itertools.product((0, 1), repeat=n):
        yield np.array(bits, dtype=bool)


# ---------------------------------------------------------------- first stage


def test_me_first_stage_exact_half_beats_pair():
    groups = me_first_stage(PriorVector((0.5, 0.3)))
    assert groups == [(0,), (1,)]


def test_me_first_stage_prefix_scan():
    # products 0.7, 0.49, 0.343, 0.2401 -> distances 0.2, 0.01, 0.157, 0.26
    groups = me_first_stage(PriorVector((0.3, 0.3, 0.3, 0.3)))
    assert groups == [(0, 1), (2, 3)]


def test_me_first_stage_single_item():
    assert me_first_stage(PriorVector((0.9,))) == [(0,)]


def test_me_first_stage_certain_items_become_leading_singletons():
    groups = me_first_stage(PriorVector((0.3, 1.0, 0.3)))
    assert groups[0] == (1,)
    assert groups[1:] == [(0, 2)]


def test_me_first_stage_drops_impossible_items():
    groups = me_first_stage(PriorVector((0.0, 0.5, 0.0)))
    assert groups == [(1,)]


def test_me_first_stage_pools_probabilities_below_rounding():
    # 1 - 1e-17 rounds to 1, so only log-domain sums see these items at all.
    p = PriorVector((1e-17,) * 8)
    assert me_first_stage(p) == [tuple(range(8))]
    assert len(build_plan(p, "max_entropy").roots) == 1


def test_max_entropy_meets_t2_when_most_probabilities_are_below_rounding():
    # 6664 of these 10000 probabilities lie below 1.1e-16.
    p = generate_prior("exponential", 10000, 4.0)
    plan = build_plan(p, "max_entropy")
    tests = [run_adaptive(plan, draw_truth(p, seed)).tests_used for seed in range(20)]
    assert sum(tests) / len(tests) <= 2 * p.entropy_bits + 2 * p.mu


def test_sf_first_stage_growth_stops_at_half():
    # products 0.7 then 0.49: the second item would break the constraint
    assert sf_first_stage(PriorVector((0.3, 0.3, 0.3))) == [(0,), (1,), (2,)]


def test_sf_first_stage_groups_three():
    # products 0.8, 0.64, 0.512 all stay at or above 1/2
    assert sf_first_stage(PriorVector((0.2, 0.2, 0.2))) == [(0, 1, 2)]


def test_sf_first_stage_forced_singleton():
    assert sf_first_stage(PriorVector((0.6,))) == [(0,)]


def test_sf_groups_satisfy_mass_cap():
    """Whenever the product constraint holds, the group's mass is at most 1."""
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        p = PriorVector(tuple(rng.uniform(0.001, 0.7, size=n)))
        for group in sf_first_stage(p):
            prod = math.prod(1 - p.probs[i] for i in group)
            if prod >= 0.5:
                assert sum(p.probs[i] for i in group) <= 1.0 + 1e-12


# ---------------------------------------------------------------- splitting


def test_me_split_two_items():
    left, right = me_split((3, 7), PriorVector((0.1, 0.2, 0.3, 0.1, 0.1, 0.1, 0.1, 0.5)))
    assert (left, right) == ((3,), (7,))


def test_me_split_half_half():
    # only proper prefix: ratio (1-0.5)/(1-0.25) = 2/3
    left, right = me_split((0, 1), PriorVector((0.5, 0.5)))
    assert (left, right) == ((0,), (1,))


def test_me_split_conditional_ratio():
    # ratios 0.2908, 0.5525, 0.7880 -> k=2
    left, right = me_split((0, 1, 2, 3), PriorVector((0.1, 0.1, 0.1, 0.1)))
    assert left == (0, 1)
    assert right == (2, 3)


def test_me_split_returns_best_prefix():
    """Exhaustive scan: no prefix split beats the returned one."""
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        probs = tuple(rng.uniform(0.01, 0.9, size=n))
        p = PriorVector(probs)
        items = tuple(range(n))
        left, _ = me_split(items, p)
        denom = 1 - math.prod(1 - q for q in probs)

        def objective(k):
            prod = math.prod(1 - probs[i] for i in range(k))
            return abs((1 - prod) / denom - 0.5)

        best = min(objective(k) for k in range(1, n))
        assert objective(len(left)) == pytest.approx(best, abs=1e-12)


# ---------------------------------------------------------------- code trees


def test_huffman_textbook_depths():
    p = PriorVector((0.5, 0.25, 0.25))
    depths = leaf_depths(sf_build_tree((0, 1, 2), p, "huffman"))
    assert depths == {0: 1, 1: 2, 2: 2}


@pytest.mark.parametrize("kind", ["huffman", "shannon_fano"])
def test_two_equal_weights_depth_one(kind):
    p = PriorVector((0.25, 0.25))
    depths = leaf_depths(sf_build_tree((0, 1), p, kind))
    assert depths == {0: 1, 1: 1}


def test_shannon_fano_depth_bound_on_legal_groups():
    """Depth audit: within groups the first stage can emit, every positive
    item sits no deeper than ceil(log2(1/p))."""
    rng = np.random.default_rng(42)
    audited = 0
    for _ in range(400):
        n = int(rng.integers(2, 60))
        p = PriorVector(tuple(rng.uniform(0.001, 0.5, size=n)))
        for group in sf_first_stage(p):
            if len(group) < 2:
                continue
            depths = leaf_depths(sf_build_tree(group, p, "shannon_fano"))
            for i in group:
                assert depths[i] <= math.ceil(math.log2(1.0 / p.probs[i]))
                audited += 1
    assert audited > 1000


def test_huffman_expected_depth_no_worse_than_shannon_fano():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        p = PriorVector(tuple(rng.uniform(0.001, 0.3, size=n)))
        group = tuple(range(n))
        hd = leaf_depths(sf_build_tree(group, p, "huffman"))
        sd = leaf_depths(sf_build_tree(group, p, "shannon_fano"))
        h_cost = sum(p.probs[i] * hd[i] for i in group)
        s_cost = sum(p.probs[i] * sd[i] for i in group)
        assert h_cost <= s_cost + 1e-12


def test_zero_weight_items_sink_to_deepest_leaves():
    p = PriorVector((0.3, 0.0, 0.2, 0.0))
    for kind in ("huffman", "shannon_fano"):
        depths = leaf_depths(sf_build_tree((0, 1, 2, 3), p, kind))
        deepest = max(depths.values())
        assert depths[1] == deepest or depths[3] == deepest
        assert min(depths[1], depths[3]) >= max(depths[0], depths[2])


def flat(n, perm, lo, hi, left, right, roots=(0,), **fields):
    return NestedPlan(n, "max_entropy", perm, lo, hi, left, right, roots, **fields)


def test_nested_plan_validation():
    # a well-formed plan: root {0, 1} split into two leaves
    flat(2, (0, 1), (0, 0, 1), (2, 1, 2), (1, -1, -1), (2, -1, -1))
    with pytest.raises(ValueError, match="singletons"):
        flat(2, (0, 1), (0,), (2,), (-1,), (-1,))  # non-singleton leaf
    with pytest.raises(ValueError, match="partition their parent"):
        # children {0} and {2} do not split the parent {0, 1}
        flat(3, (0, 1, 2), (0, 0, 2), (2, 1, 3), (1, -1, -1), (2, -1, -1))
    with pytest.raises(ValueError, match="partition their parent"):
        flat(2, (0, 1), (0, 0, 2), (2, 2, 2), (1, -1, -1), (2, -1, -1))  # empty right child
    with pytest.raises(ValueError, match="two children or none"):
        flat(2, (0, 1), (0, 0, 1), (2, 1, 2), (1, -1, -1), (-1, -1, -1))
    with pytest.raises(ValueError, match="distinct"):
        flat(2, (0, 0), (0, 0, 1), (2, 1, 2), (1, -1, -1), (2, -1, -1))  # repeated id
    with pytest.raises(ValueError, match="distinct"):
        flat(2, (0, 2), (0, 0, 1), (2, 1, 2), (1, -1, -1), (2, -1, -1))  # id out of range
    with pytest.raises(ValueError, match="distinct"):
        flat(2, (0,), (0,), (1,), (-1,), (-1,), auto_clear=(0,))  # tested and auto-cleared
    with pytest.raises(ValueError, match="preorder"):
        flat(2, (0, 1), (0, 1, 0), (2, 2, 1), (2, -1, -1), (1, -1, -1))  # right child first
    with pytest.raises(ValueError, match="tile perm"):
        flat(2, (0, 1), (1, 0), (2, 1), (-1, -1), (-1, -1), roots=(0, 1))
    with pytest.raises(ValueError, match="belong to a root"):
        flat(2, (0, 1), (0,), (1,), (-1,), (-1,))  # item 1 in no tree
    with pytest.raises(ValueError, match="construction"):
        NestedPlan(1, "binary", (0,), (0,), (1,), (-1,), (-1,), (0,))


# The plan of test_nested_plan_validation's first case, over n = 4 items
# with item 2 declared defective and item 3 clear.
SMALL_PLAN = dict(
    perm=(0, 1), lo=(0, 0, 1), hi=(2, 1, 2), left=(1, -1, -1), right=(2, -1, -1), roots=(0,),
    auto_defective=(2,), auto_clear=(3,),
)


@pytest.mark.parametrize("name", list(SMALL_PLAN))
def test_nested_plan_rejects_index_fields_that_are_not_one_dimensional(name):
    NestedPlan(4, "max_entropy", **SMALL_PLAN)
    for shape in ((1, -1), (-1, 1)):
        fields = {**SMALL_PLAN, name: np.array(SMALL_PLAN[name]).reshape(shape)}
        with pytest.raises(ValueError, match="one-dimensional"):
            NestedPlan(4, "max_entropy", **fields)
    with pytest.raises(ValueError, match="one-dimensional"):
        NestedPlan(4, "max_entropy", **{**SMALL_PLAN, name: np.int64(0)})


def test_nested_plan_refuses_index_values_that_are_not_integers():
    # The float perm (0.9, 1.2) was truncated to [0, 1].
    with pytest.raises(ValueError, match="plan field perm must hold integers"):
        NestedPlan(2, "max_entropy", (0.9, 1.2), (0, 0, 1), (2, 1, 2), (1, -1, -1), (2, -1, -1), (0,))
    for name in SMALL_PLAN:
        ints = SMALL_PLAN[name]
        for values in (np.asarray(ints, dtype=float), (True,) * len(ints), (*ints, True), [*ints, 1.0]):
            with pytest.raises(ValueError, match=f"plan field {name} must hold integers"):
                NestedPlan(4, "max_entropy", **{**SMALL_PLAN, name: values})
    for huge in ((2**63,), (3, 2**64), np.array([2**63], dtype=np.uint64)):
        with pytest.raises(ValueError, match="plan field auto_clear holds an index beyond int64"):
            NestedPlan(4, "max_entropy", **{**SMALL_PLAN, "auto_clear": huge})
    # The empty defaults stay valid.
    plan = NestedPlan(2, "max_entropy", (0, 1), (0, 0, 1), (2, 1, 2), (1, -1, -1), (2, -1, -1), (0,))
    assert plan.auto_defective.dtype == plan.auto_clear.dtype == np.int64
    assert len(plan.auto_defective) == len(plan.auto_clear) == 0


def test_nested_plan_index_fields_are_read_only_int64_arrays():
    p = generate_prior("exponential", 60, 4.0)
    source = np.array([0, 1], dtype=np.int32)
    plans = [
        build_plan(PriorVector((1.0, 0.3, 0.2, 0.0)), "huffman"),
        build_prepartitioned_plan(p, 0.05, "shannon_fano"),
        plan_from_json_dict(plan_to_json_dict(build_plan(p, "max_entropy"))),
        NestedPlan(4, "max_entropy", **{**SMALL_PLAN, "perm": source}),
    ]
    for plan in plans:
        for name in SMALL_PLAN:
            value = getattr(plan, name)
            assert type(value) is np.ndarray and value.dtype == np.int64 and value.ndim == 1, name
            assert not value.flags.writeable, name
            with pytest.raises(ValueError):
                value[:1] = 0
    # The plan holds its own copy: the caller's array stays writeable and
    # writing to it leaves the plan alone.
    source[0] = 3
    assert plans[-1].perm.tolist() == [0, 1]


def test_nested_plans_compare_and_hash_by_value():
    p = generate_prior("linear", 200, 6.0)
    for construction in ("max_entropy", "shannon_fano", "huffman"):
        plan, again = build_prepartitioned_plan(p, 0.01, construction), build_prepartitioned_plan(p, 0.01, construction)
        assert plan is not again and plan == again and hash(plan) == hash(again)
        assert len({plan, again}) == 1
        assert plan != replace(plan, counts_both_children=False)
    plan = NestedPlan(4, "max_entropy", **SMALL_PLAN)
    assert plan == NestedPlan(4, "max_entropy", **{k: list(v) for k, v in SMALL_PLAN.items()})
    # One perm entry apart, every other field equal.
    base = NestedPlan(4, "max_entropy", **{**SMALL_PLAN, "auto_clear": ()})
    changed = NestedPlan(4, "max_entropy", **{**SMALL_PLAN, "perm": (0, 3), "auto_clear": ()})
    assert base != changed and changed != base
    assert plan != "plan"


def test_plan_trees_are_laminar_with_singleton_leaves():
    rng = np.random.default_rng(23)
    for construction in ("max_entropy", "shannon_fano", "huffman"):
        n = 40
        p = PriorVector(tuple(rng.uniform(0.01, 0.49, size=n)))
        plan = build_plan(p, construction)
        covered = []
        stack = list(plan.roots)
        while stack:
            k = stack.pop()
            if plan.left[k] < 0:
                assert len(pool(plan, k)) == 1
                covered.append(pool(plan, k)[0])
            else:
                left, right = pool(plan, plan.left[k]), pool(plan, plan.right[k])
                assert sorted(left + right) == sorted(pool(plan, k))
                stack.extend([plan.left[k], plan.right[k]])
        assert sorted(covered) == list(range(n))


# ---------------------------------------------------------------- execution


def test_run_adaptive_all_negative_costs_one_test_per_root():
    p = PriorVector((0.3, 0.3, 0.3, 0.3, 0.3, 0.3))
    plan = build_plan(p, "max_entropy")
    truth = np.array((0,) * 6, dtype=bool)
    result = run_adaptive(plan, truth)
    assert result.tests_used == len(plan.roots)
    assert all(outcome == 0 for _, outcome in walk_plan(plan, truth)[1])
    assert result.recovered.tolist() == truth.tolist()


def test_run_adaptive_single_positive_item():
    p = PriorVector((0.4,))
    plan = build_plan(p, "max_entropy")
    result = run_adaptive(plan, np.array((1,), dtype=bool))
    assert result.tests_used == 1
    assert result.recovered.tolist() == [1]


def test_run_adaptive_matches_hand_walked_transcript():
    """Reference walk for the (0.3 x 4) plan with truth (0,1,0,0):
    test {0,1} -> positive, test {0} -> negative, test {1} -> positive,
    test {2,3} -> negative.  The walk records the pools; the executor must
    spend one test per pool and recover the same vector."""
    p = PriorVector((0.3, 0.3, 0.3, 0.3))
    plan = build_plan(p, "max_entropy")
    truth = np.array((0, 1, 0, 0), dtype=bool)
    walked, transcript = walk_plan(plan, truth)
    assert transcript == (
        ((0, 1), 1),
        ((0,), 0),
        ((1,), 1),
        ((2, 3), 0),
    )
    result = run_adaptive(plan, truth)
    assert result.tests_used == walked.tests_used == 4
    assert result.recovered.tolist() == walked.recovered.tolist() == [0, 1, 0, 0]


@pytest.mark.parametrize("construction", ["max_entropy", "shannon_fano", "huffman"])
@pytest.mark.parametrize("counts_both", [True, False])
def test_run_adaptive_exact_for_every_truth(construction, counts_both):
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        p = PriorVector(tuple(rng.uniform(0.05, 0.95, size=n)))
        plan = build_plan(p, construction, counts_both_children=counts_both)
        for truth in all_truths(n):
            result = run_adaptive(plan, truth, eps=0.0)
            assert result.recovered.tolist() == truth.tolist()
            assert result.tests_used == len(walk_plan(plan, truth)[1])


def test_run_adaptive_batch_rejects_malformed_truths():
    plan = build_plan(PriorVector((0.2, 0.3, 0.4)), "max_entropy")
    good = np.zeros((2, 3), dtype=bool)
    assert run_adaptive_batch(plan, good)[0].tolist() == [len(plan.roots)] * 2
    for bad in (np.zeros((2, 4), dtype=bool), np.zeros(3, dtype=bool), np.zeros((2, 3), dtype=int)):
        with pytest.raises(ValueError):
            run_adaptive_batch(plan, bad)


def test_inference_mode_never_uses_more_tests():
    rng = np.random.default_rng(37)
    p = PriorVector(tuple(rng.uniform(0.05, 0.4, size=12)))
    both = build_plan(p, "max_entropy", counts_both_children=True)
    infer = build_plan(p, "max_entropy", counts_both_children=False)
    for truth in all_truths(12):
        t_both = run_adaptive(both, truth).tests_used
        t_infer = run_adaptive(infer, truth).tests_used
        assert t_infer <= t_both


def test_transcript_is_laminar_consistent():
    """Every tested pool is a root group or a child of an earlier positive pool."""
    rng = np.random.default_rng(41)
    p = PriorVector(tuple(rng.uniform(0.1, 0.5, size=10)))
    plan = build_plan(p, "max_entropy")
    children = {}
    stack = list(plan.roots)
    while stack:
        k = stack.pop()
        if plan.left[k] >= 0:
            children[pool(plan, k)] = {pool(plan, plan.left[k]), pool(plan, plan.right[k])}
            stack.extend([plan.left[k], plan.right[k]])
    roots = {pool(plan, k) for k in plan.roots}
    for _ in range(50):
        truth = np.array(tuple(rng.integers(0, 2, size=10)), dtype=bool)
        _, transcript = walk_plan(plan, truth)
        assert run_adaptive(plan, truth).tests_used == len(transcript)
        positive_so_far = set()
        for items, outcome in transcript:
            if items not in roots:
                assert any(items in children.get(parent, ()) for parent in positive_so_far)
            if outcome:
                positive_so_far.add(items)


def test_shortcut_returns_zero_without_tests():
    p = PriorVector((0.001, 0.002))
    plan = build_plan(p, "max_entropy")
    result = run_adaptive(plan, np.array((1, 0), dtype=bool), eps=0.01)
    assert result.tests_used == 0
    assert result.recovered.tolist() == [0, 0]


def test_shortcut_error_rate_bounded_by_eps():
    # mu = 0.003 < eps = 0.01: the only error source is a nonzero truth.
    p = PriorVector((0.001, 0.001, 0.001))
    plan = build_plan(p, "max_entropy")
    rng = np.random.default_rng(43)
    errors = 0
    trials = 2000
    for _ in range(trials):
        truth = np.array(tuple(rng.random(3) < np.array(p.probs)), dtype=bool)
        result = run_adaptive(plan, truth, eps=0.01)
        errors += result.recovered.tolist() != truth.tolist()
    assert errors / trials <= 0.01


def test_auto_items_are_declared_without_tests():
    p = PriorVector((1.0, 0.3, 0.0))
    plan = build_plan(p, "max_entropy")
    assert plan.auto_defective.tolist() == [0]
    assert plan.auto_clear.tolist() == [2]
    result = run_adaptive(plan, np.array((1, 0, 0), dtype=bool))
    assert result.tests_used == 1  # only item 1's pool is tested
    assert result.recovered.tolist() == [1, 0, 0]


# ------------------------------------------------------- pre-partitioned run


def test_prepartitioned_all_zero_set():
    p = PriorVector((1e-9, 1e-9, 1e-9))
    result = run_prepartitioned_adaptive(p, 0.5, np.array((0, 0, 0), dtype=bool))
    assert result.tests_used == 0
    assert result.recovered.tolist() == [0, 0, 0]


def test_prepartitioned_all_tail_tests_individually():
    p = PriorVector((0.6, 0.9, 0.7))
    truth = np.array((1, 0, 1), dtype=bool)
    result = run_prepartitioned_adaptive(p, 0.5, truth)
    assert result.tests_used == 3
    assert result.recovered.tolist() == truth.tolist()


def test_prepartitioned_recovers_banded_population():
    p = generate_prior("uniform", 400, 6.0)
    rng = np.random.default_rng(47)
    for construction in ("max_entropy", "huffman"):
        plan = build_prepartitioned_plan(p, 0.01, construction)
        for _ in range(20):
            truth = np.array(tuple(rng.random(400) < np.array(p.probs)), dtype=bool)
            result = run_prepartitioned_adaptive(p, 0.01, truth, construction=construction)
            assert result.recovered.tolist() == truth.tolist()
            assert result.tests_used == len(walk_plan(plan, truth, eps=0.01)[1])


def test_prepartitioned_plan_layout():
    """Individually routed items come first as singleton roots, the ample
    bands' trees follow, and the zero set is cleared without tests."""
    rng = np.random.default_rng(53)
    # 5 zero-set items, a tail of 2, an under-sized band of 3 and a band of 30
    probs = [1e-9] * 5 + [0.7, 1.0] + [0.3] * 3 + list(rng.uniform(0.07, 0.2, size=30))
    p = PriorVector(tuple(rng.permutation(probs)))
    part = combine_for_concentration(build_partition(p, 0.05), p)
    plan = build_prepartitioned_plan(p, 0.05, "huffman", counts_both_children=False)
    route = part.individual_route()
    assert len(route) == 5 and len(part.ample_bands()) == 1 and len(part.zero_items) == 5
    assert [pool(plan, k) for k in plan.roots[: len(route)]] == [(i,) for i in route]
    banded = plan.perm[len(route) :].tolist()
    assert sorted(banded) == sorted(i for b in part.ample_bands() for i in b.items)
    assert plan.auto_clear.tolist() == list(part.zero_items) and plan.auto_defective.tolist() == []
    assert plan.mu_covered == p.mu and not plan.counts_both_children
    for _ in range(20):
        truth = np.array(rng.random(40) < np.array(p.probs), dtype=bool)
        direct = run_prepartitioned_adaptive(p, 0.05, truth, "huffman", counts_both_children=False)
        planned = run_adaptive(plan, truth, eps=0.05)
        assert direct.tests_used == planned.tests_used
        assert np.array_equal(direct.recovered, planned.recovered)
        assert np.array_equal(direct.recovered, truth)


# sha256 of the sorted-key JSON of each construction's pre-partitioned plan
# on exponential n = 1000, mu = 8 at eps 0.01, where combining merges three
# of the four bands and 36 items fall in the zero set.
PINNED_PREPARTITIONED_PLANS = {
    "max_entropy": "5208708b6c15c9c1cf449cc4e8a99e41a150a17a44c090a20126a1403b638ef6",
    "shannon_fano": "3f4e38a91cabd0279f6ecb02ffa0dc493bda88876435f3e0f4397ef1950a3289",
    "huffman": "039e5d285d3706a802e5424da21ef18939a5649ec16cd5c198d5a8ef4a1c1278",
}


@pytest.mark.parametrize(
    "construction, margin",
    [
        pytest.param(c, margin, id=c + suffix)
        for c in sorted(PINNED_PREPARTITIONED_PLANS)
        for margin, suffix in ((adaptive._MARGIN, ""), (np.inf, "-exact"))
    ],
)
def test_prepartitioned_plan_json_is_pinned(monkeypatch, construction, margin):
    # With an infinite margin no cut is certified, so the exact fallback
    # alone must give the pinned plans.
    monkeypatch.setattr(adaptive, "_MARGIN", margin)
    p = generate_prior("exponential", 1000, 8.0)
    part = combine_for_concentration(build_partition(p, 0.01), p)
    assert (part.num_combined, len(part.bands), len(part.zero_items)) == (3, 2, 36)
    text = json.dumps(plan_to_json_dict(build_prepartitioned_plan(p, 0.01, construction)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_PREPARTITIONED_PLANS[construction]


# sha256 of the eight index arrays' bytes, in field order, of the
# max_entropy and shannon_fano plans at n = 1e5, mu = 100, built whole and
# pre-partitioned at eps 0.01, on the stage table's exponential prior
# (rho = 0.99999) and on the uniform prior, whose one band makes both its
# plans the same.  Computed with the per-range exact cuts, before the
# filtered level builders, so the filter is held to them at scale.
PINNED_LARGE_PLANS = {
    ("exponential", "max_entropy"): (
        "65e5acdceca3740902f91b722c183816353f01cef811992836b7836a23b2afa2",
        "03b39b3d9504619f0de105ee2c442bed473252daef9288289f11aa7b3a9d8f1f",
    ),
    ("exponential", "shannon_fano"): (
        "b43815002022fa88402e40e3a6f530ff7a1183564f43ed8427ace197ac29363f",
        "bbbcd03cdd28a780b6799d39c31981ed6597cc17db81d11e07ca5c3364eebcc7",
    ),
    ("uniform", "max_entropy"): ("1ec6f542ec7904472953a7fe322f8bf8b251ee72a7fd9bad4faafc5abfe8682e",) * 2,
    ("uniform", "shannon_fano"): ("da68a05d91f6d7b07e7aa3dc62bd6fb95d0dc3020408e8345f038204d6bc668c",) * 2,
}


@pytest.mark.parametrize("family, construction", sorted(PINNED_LARGE_PLANS))
def test_large_plan_index_arrays_are_pinned(family, construction):
    p = generate_prior(family, 100_000, 100.0, rho=0.99999)
    plans = (build_plan(p, construction), build_prepartitioned_plan(p, 0.01, construction))
    arrays = [b"".join(getattr(plan, f).tobytes() for f in _INDEX_FIELDS) for plan in plans]
    digests = tuple(hashlib.sha256(data).hexdigest() for data in arrays)
    assert digests == PINNED_LARGE_PLANS[family, construction]


def test_prepartitioned_mixed_routes():
    # one zero item, a tail item, and a small band forced to individual tests
    probs = (1e-9, 0.7, 0.3, 0.25)
    p = PriorVector(probs)
    truth = np.array((0, 1, 0, 1), dtype=bool)
    result = run_prepartitioned_adaptive(p, 0.5, truth)
    assert result.recovered.tolist() == truth.tolist()


# ---------------------------------------------------------- serialization


def test_plan_json_roundtrip():
    p = generate_prior("exponential", 60, 2.0)
    plan = build_plan(p, "huffman")
    data = plan_to_json_dict(plan)
    back = plan_from_json_dict(data)
    assert back == plan


def test_plan_json_rejects_malformed_and_nested_forms():
    p = PriorVector((0.3, 0.3, 0.3, 0.3))
    data = plan_to_json_dict(build_plan(p, "max_entropy"))
    assert data["format"] == 2
    nested = {k: v for k, v in data.items() if k not in ("format", "perm", "lo", "hi", "left", "right", "roots")}
    nested["root_groups"] = [
        {"items": [0, 1], "left": {"items": [0], "left": None, "right": None},
         "right": {"items": [1], "left": None, "right": None}},
    ]
    bad = [
        nested,
        [data],
        {**data, "format": 1},
        {k: v for k, v in data.items() if k != "hi"},
        {**data, "lo": 3},
        {**data, "perm": [0, 1, 2, 2]},
        {**data, "right": [-1] * len(data["right"])},
        {**data, "construction": "binary"},
        {**data, "counts_both_children": "false"},
        {**data, "n": 4.9},
        {**data, "perm": [0.9, 1, 2, 3]},
        {**data, "roots": [False, 3]},
        {**data, "mu_covered": "1e9"},
        {**data, "mu_covered": True},
        {**data, "mu_covered": None},
        {**data, "mu_covered": float("nan")},
        {**data, "mu_covered": float("inf")},
        {**data, "mu_covered": -0.5},
        {**data, "mu_covered": 10**400},
    ]
    for d in bad:
        with pytest.raises(ValueError):
            plan_from_json_dict(d)


def test_readme_plan_json_example_matches_build_plan():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index('```json\n{"format": 2') + len("```json\n")
    example = json.loads(text[start : text.index("```", start)])
    assert example == plan_to_json_dict(build_plan(PriorVector((0.3,) * 4), "max_entropy"))
