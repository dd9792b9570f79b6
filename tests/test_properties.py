"""Property tests of the flat plans over small priors.

Priors have at most 10 items and may hold the extreme values 0, 1, 1e-300
and exactly 1/2.  Every construction, built whole or pre-partitioned, must
give a plan that passes the constructor's check, covers every item once,
recovers every sampled truth exactly, and survives a JSON round trip.
"""

import json
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from priorgt.adaptive import (
    CONSTRUCTIONS,
    build_plan,
    build_prepartitioned_plan,
    plan_from_json_dict,
    plan_to_json_dict,
    run_adaptive,
)
from priorgt.priors import PriorVector
from priorgt.sim import draw_truth

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
    assert sorted(plan.perm + plan.auto_defective + plan.auto_clear) == list(range(p.n))
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
        expected = truth.as_array().copy()
        expected[list(plan.auto_clear)] = False
        assert np.array_equal(result.recovered.as_array(), expected)
        assert result.tests_used == len(result.transcript)


@PROPERTY_SETTINGS
@given(plan_specs)
def test_plans_survive_json_roundtrip(spec):
    plan = make_plan(*spec)
    assert plan_from_json_dict(json.loads(json.dumps(plan_to_json_dict(plan)))) == plan
