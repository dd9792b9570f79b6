import json
import math

import numpy as np
import pytest

from priorgt.nonadaptive import (
    build_block_matrix,
    build_cca_matrix,
    decode_comp,
    matrix_from_json_dict,
    matrix_to_json_dict,
    num_tests_cca,
    optimal_g,
    run_nonadaptive,
    sampling_distribution,
    TestMatrix,
)
from priorgt.partition import build_partition
from priorgt.priors import PopulationVector, PriorVector, generate_prior


def test_sampling_distribution_uniform_when_equal():
    np.testing.assert_allclose(sampling_distribution(PriorVector((0.0, 0.0))), [0.5, 0.5])
    p = generate_prior("uniform", 10, 1.0)
    np.testing.assert_allclose(sampling_distribution(p), np.full(10, 0.1))


def test_sampling_distribution_direct_values():
    np.testing.assert_allclose(
        sampling_distribution(PriorVector((0.5, 0.0))), [1 / 3, 2 / 3], atol=1e-15
    )


def test_sampling_distribution_sums_to_one():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 400))
        p = PriorVector(tuple(rng.uniform(0, 0.9, size=n)))
        assert abs(sampling_distribution(p).sum() - 1.0) <= 1e-12


def test_optimal_g_uniform_inner_sum():
    # inner sum for uniform priors collapses to 1 - p; here -1/ln(0.99) = 99.499...
    p = generate_prior("uniform", 100, 1.0)
    assert optimal_g(p) == 99


def test_optimal_g_two_fair_items():
    # inner sum 0.5 -> -1/ln(0.5) = 1.4427 -> 1
    assert optimal_g(PriorVector((0.5, 0.5))) == 1


def test_optimal_g_approaches_n_for_vanishing_priors():
    p = generate_prior("uniform", 1000, 1.0)
    g = optimal_g(p)
    assert g == max(1, int(math.floor(-1 / math.log1p(-0.001) + 0.5)))
    assert 0.99 * 1000 <= g <= 1000


def test_optimal_g_floor_of_one():
    assert optimal_g(PriorVector((0.49, 0.49, 0.49))) == 1


def test_num_tests_cca_paper_scale_value():
    p = generate_prior("uniform", 1000, 8.0)
    # 4e * 2 * 8 * ln(1000) = 1201.742...
    assert num_tests_cca(p, 1.0) == 1202


def test_num_tests_cca_zero_mu():
    assert num_tests_cca(PriorVector((0.0, 0.0)), 1.0) == 0


def test_num_tests_formula_constant():
    # with ln n = 1, mu = 1, delta = 0 the budget would be ceil(4e) = 11
    assert math.ceil(4 * math.e) == 11


def test_num_tests_cca_warns_above_half():
    with pytest.warns(UserWarning):
        num_tests_cca(PriorVector((0.6, 0.1)), 1.0)


def test_build_cca_matrix_g1_rows_are_singletons():
    p = generate_prior("uniform", 20, 1.0)
    m = build_cca_matrix(p, t=50, g=1, seed=3)
    assert m.t == 50
    assert all(len(row) == 1 for row in m.rows)


def test_build_cca_matrix_concentrated_distribution():
    # nearly all sampling mass on item 1
    p = PriorVector((0.999, 0.0))
    m = build_cca_matrix(p, t=100, g=1, seed=5)
    ones = sum(1 for row in m.rows if list(row) == [1])
    assert ones >= 95


def test_build_cca_matrix_inclusion_frequency():
    # inclusion probability per row is 1 - (1 - 1/10)**5 = 0.40951
    p = generate_prior("uniform", 10, 1.0)
    t = 1000
    m = build_cca_matrix(p, t=t, g=5, seed=11)
    counts = np.zeros(10)
    for row in m.rows:
        counts[row] += 1
    expected = 1 - (1 - 0.1) ** 5
    sigma = math.sqrt(expected * (1 - expected) / t)
    assert np.all(np.abs(counts / t - expected) <= 3 * sigma)


def test_build_cca_matrix_seeded_determinism():
    p = generate_prior("linear", 50, 2.0)
    a = build_cca_matrix(p, t=30, g=7, seed=99)
    b = build_cca_matrix(p, t=30, g=7, seed=99)
    c = build_cca_matrix(p, t=30, g=7, seed=100)
    assert all(np.array_equal(x, y) for x, y in zip(a.rows, b.rows))
    assert any(not np.array_equal(x, y) for x, y in zip(a.rows, c.rows))


def test_decode_comp_forced_rule():
    m = TestMatrix.from_rows(3, (np.array([0, 1]), np.array([1, 2])))
    rec = decode_comp(m, (0, 1))
    assert rec.bits == (0, 0, 1)


def test_decode_comp_all_negative_clears_everything():
    m = TestMatrix.from_rows(4, (np.array([0, 1]), np.array([2, 3])))
    assert decode_comp(m, (0, 0)).bits == (0, 0, 0, 0)


def test_decode_comp_zero_assigned_and_uncovered():
    # item 2 is never tested: stays declared defective; item 3 pre-cleared
    m = TestMatrix.from_rows(4, (np.array([0]), np.array([1])), zero_assigned=frozenset({3}))
    rec = decode_comp(m, (0, 1))
    assert rec.bits == (0, 1, 1, 0)


def test_decode_comp_matches_bruteforce_forcing():
    """An item is forced non-defective exactly when some negative row holds it."""
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = 10
        t = int(rng.integers(1, 12))
        rows = tuple(
            np.unique(rng.integers(0, n, size=int(rng.integers(1, 6)))) for _ in range(t)
        )
        m = TestMatrix.from_rows(n, rows)
        truth = PopulationVector(tuple(rng.integers(0, 2, size=n)))
        outcomes, rec = run_nonadaptive(m, truth)
        for i in range(n):
            forced_zero = any(
                not outcomes[r] and i in set(int(x) for x in rows[r]) for r in range(t)
            )
            assert rec.bits[i] == (0 if forced_zero else 1)


def test_run_nonadaptive_trivial_cases():
    p = generate_prior("uniform", 6, 1.0)
    m = build_cca_matrix(p, t=12, g=3, seed=1)
    outcomes, rec = run_nonadaptive(m, PopulationVector((0,) * 6))
    assert outcomes == (0,) * 12
    assert rec.bits == (0,) * 6

    singles = TestMatrix.from_rows(4, tuple(np.array([i]) for i in range(4)))
    truth = PopulationVector((1, 0, 0, 1))
    _, rec = run_nonadaptive(singles, truth)
    assert rec.bits == truth.bits


def test_comp_one_sidedness():
    """Recovered dominates truth componentwise outside the pre-cleared set."""
    rng = np.random.default_rng(21)
    p = generate_prior("uniform", 30, 2.0)
    for seed in range(20):
        m = build_cca_matrix(p, t=25, g=8, seed=seed)
        truth = PopulationVector(tuple(rng.random(30) < np.array(p.probs)))
        _, rec = run_nonadaptive(m, truth)
        assert all(r >= t for r, t in zip(rec.bits, truth.bits))


def test_more_rows_never_hurt():
    rng = np.random.default_rng(29)
    p = generate_prior("uniform", 25, 2.0)
    big = build_cca_matrix(p, t=60, g=6, seed=8)
    small = TestMatrix.from_rows(25, big.rows[:20])
    for _ in range(20):
        truth = PopulationVector(tuple(rng.random(25) < np.array(p.probs)))
        _, rec_small = run_nonadaptive(small, truth)
        _, rec_big = run_nonadaptive(big, truth)
        # extra rows only clear more items, and never a true defective
        assert all(b <= s for s, b in zip(rec_small.bits, rec_big.bits))
        assert all(b >= t for b, t in zip(rec_big.bits, truth.bits))


# ---------------------------------------------------------------- block design


def test_block_matrix_all_zero_set():
    p = PriorVector((1e-9, 1e-9, 1e-9, 1e-9))
    m = build_block_matrix(p, eps=0.5, delta=1.0, seed=0)
    assert m.t == 0
    assert m.zero_assigned == frozenset({0, 1, 2, 3})
    _, rec = run_nonadaptive(m, PopulationVector((0, 0, 0, 0)))
    assert rec.bits == (0, 0, 0, 0)


def test_block_matrix_all_tail_singletons():
    p = PriorVector((0.7, 0.9))
    m = build_block_matrix(p, eps=0.5, delta=1.0, seed=0)
    assert m.t == 2
    assert all(len(row) == 1 for row in m.rows)
    truth = PopulationVector((0, 1))
    _, rec = run_nonadaptive(m, truth)
    assert rec.bits == truth.bits


def test_block_matrix_direct_sum_structure():
    rng = np.random.default_rng(31)
    for seed in range(10):
        n = int(rng.integers(50, 300))
        p = PriorVector(tuple(rng.uniform(0.001, 0.4, size=n)))
        m = build_block_matrix(p, eps=0.05, delta=1.0, seed=seed)
        assert m.block_spans is not None
        claimed = [set(s.items) for s in m.block_spans]
        for a in range(len(claimed)):
            for b in range(a + 1, len(claimed)):
                assert not (claimed[a] & claimed[b])
        for r, row in enumerate(m.rows):
            owners = [s for s in m.block_spans if s.row_lo <= r < s.row_hi]
            assert len(owners) == 1
            assert set(int(i) for i in row) <= set(owners[0].items)


def test_block_matrix_row_budget_per_band():
    p = generate_prior("uniform", 1000, 8.0)
    m = build_block_matrix(p, eps=0.01, delta=2.0, seed=4)
    part = build_partition(p, 0.01)
    band = part.ample_bands()[0]
    expected = math.ceil(4 * math.e * 3.0 * 8.0 * math.log(band.size))
    group_rows = [s for s in m.block_spans if s.label.startswith("band")]
    assert len(group_rows) == 1
    assert group_rows[0].row_hi - group_rows[0].row_lo == expected


def test_block_decoding_blockwise_equals_whole():
    rng = np.random.default_rng(37)
    p = PriorVector(tuple(rng.uniform(0.001, 0.4, size=120)))
    m = build_block_matrix(p, eps=0.05, delta=1.0, seed=2)
    truth = PopulationVector(tuple(rng.random(120) < np.array(p.probs)))
    outcomes, whole = run_nonadaptive(m, truth)

    merged = [0] * 120
    for i in range(120):
        if i not in m.zero_assigned and all(
            i not in set(int(x) for x in m.rows[r]) or outcomes[r] for r in range(m.t)
        ):
            merged[i] = 1
    assert whole.bits == tuple(merged)


# ---------------------------------------------------------------- serialization


def test_matrix_json_roundtrip():
    # Exponential block rows list their ids in band order, not id order; the
    # round trip keeps that order, so rewriting the read-back matrix gives
    # the same JSON.
    for p, eps in ((generate_prior("uniform", 40, 2.0), 0.1), (generate_prior("exponential", 200, 4.0), 0.01)):
        m = build_block_matrix(p, eps=eps, delta=1.0, seed=9)
        text = json.dumps(matrix_to_json_dict(m))
        back = matrix_from_json_dict(json.loads(text))
        assert back.n == m.n
        assert back.zero_assigned == m.zero_assigned
        assert back.block_spans == m.block_spans
        assert len(back.rows) == len(m.rows)
        assert all(np.array_equal(a, b) for a, b in zip(back.rows, m.rows))
        assert json.dumps(matrix_to_json_dict(back)) == text


def test_matrix_equality_is_by_value():
    a = TestMatrix.from_rows(2, [[0]])
    assert a == TestMatrix.from_rows(2, [[0]])
    assert a != TestMatrix.from_rows(2, [[1]])
    assert a != TestMatrix.from_rows(3, [[0]])
    assert a != TestMatrix.from_rows(2, [[0], []])
    assert a != TestMatrix.from_rows(2, [[0]], zero_assigned=frozenset({1}))
    assert a != "not a matrix"
    p = generate_prior("exponential", 200, 4.0)
    block = build_block_matrix(p, eps=0.01, delta=1.0, seed=9)
    assert block == build_block_matrix(p, eps=0.01, delta=1.0, seed=9)
    assert block != build_block_matrix(p, eps=0.01, delta=1.0, seed=10)


def test_matrix_rejects_out_of_range_ids():
    with pytest.raises(ValueError):
        TestMatrix.from_rows(2, (np.array([0, 2]),))


def test_sampling_distribution_degenerate():
    with pytest.raises(ValueError):
        sampling_distribution(PriorVector((1.0, 1.0)))


def test_optimal_g_domain_errors():
    # all-zero priors make the per-draw miss probability exactly 1
    with pytest.raises(ValueError):
        optimal_g(PriorVector((0.0, 0.0)))
