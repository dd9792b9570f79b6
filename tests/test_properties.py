"""Property tests of the flat plans and the CSR test matrices.

Priors have at most 10 items and may hold the extreme values 0, 1, 1e-300
and exactly 1/2.  Every construction, built whole or pre-partitioned, must
give a plan that passes the constructor's check, covers every item once,
recovers every sampled truth exactly, and survives a JSON round trip.  The
batch executor must agree with the scalar one on every truth vector.

Matrices have at most 12 items and may hold empty rows, repeated ids and a
pre-cleared set.  Measuring and decoding must agree with a per-row reference,
COMP must never miss a defective outside the pre-cleared set, the JSON round
trip must be lossless, and the constructor must reject malformed arrays.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priorgt.adaptive import (
    CONSTRUCTIONS,
    build_plan,
    build_prepartitioned_plan,
    plan_from_json_dict,
    plan_to_json_dict,
    run_adaptive,
    run_adaptive_batch,
)
from priorgt.nonadaptive import (
    BlockSpan,
    TestMatrix,
    matrix_from_json_dict,
    matrix_to_json_dict,
    run_nonadaptive,
)
from priorgt.priors import PopulationVector, PriorVector
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
def test_batch_executor_matches_scalar_on_every_truth(spec):
    plan = make_plan(*spec)
    n = spec[0].n
    truths = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)
    # The second eps lies above the covered mass, so the shortcut fires.
    for eps in (0.0, plan.mu_covered + 0.5):
        tests, recovered = run_adaptive_batch(plan, truths, eps=eps)
        assert tests.dtype == np.int64 and recovered.shape == truths.shape
        for truth, used, bits in zip(truths, tests, recovered):
            result = run_adaptive(plan, PopulationVector(truth), eps=eps)
            assert result.tests_used == used
            assert np.array_equal(result.recovered.as_array(), bits)


@PROPERTY_SETTINGS
@given(plan_specs)
def test_plans_survive_json_roundtrip(spec):
    plan = make_plan(*spec)
    assert plan_from_json_dict(json.loads(json.dumps(plan_to_json_dict(plan)))) == plan


@st.composite
def matrices(draw):
    """A CSR matrix over n <= 12 items, with a truth vector of the same width."""
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=6), max_size=10))
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = np.asarray([i for row in rows for i in row], dtype=np.int64)
    zero = frozenset(draw(st.sets(st.integers(0, n - 1))))
    spans = None
    if draw(st.booleans()):
        spans = (BlockSpan(row_lo=0, row_hi=len(rows), items=tuple(range(n)), label="band0"),)
    truth = PopulationVector(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    m = TestMatrix(n=n, indptr=indptr, indices=indices, block_spans=spans, zero_assigned=zero)
    return m, rows, truth


@PROPERTY_SETTINGS
@given(matrices())
def test_matrix_run_matches_per_row_reference(case):
    m, rows, truth = case
    outcomes, recovered = run_nonadaptive(m, truth)
    bits = truth.as_array()
    assert outcomes == tuple(int(bits[row].any()) for row in rows)
    cleared = set(m.zero_assigned)
    for row, y in zip(rows, outcomes):
        if not y:
            cleared.update(row)
    assert recovered.bits == tuple(int(i not in cleared) for i in range(m.n))
    # COMP is one-sided: it never misses a defective outside the pre-cleared set.
    assert all(recovered.bits[i] for i in range(m.n) if bits[i] and i not in m.zero_assigned)


@PROPERTY_SETTINGS
@given(matrices())
def test_matrix_survives_json_roundtrip(case):
    m = case[0]
    back = matrix_from_json_dict(json.loads(json.dumps(matrix_to_json_dict(m))))
    assert back.n == m.n
    assert np.array_equal(back.indptr, m.indptr)
    assert np.array_equal(back.indices, m.indices)
    assert back.block_spans == m.block_spans
    assert back.zero_assigned == m.zero_assigned


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
