import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from priorgt import nonadaptive
from priorgt.adaptive import build_plan
from priorgt.nonadaptive import (
    CHUNK,
    _sampling_cdf,
    build_block_matrix,
    build_cca_matrix,
    decode_comp,
    design_to_json_dict,
    measure_design,
    num_tests_cca,
    optimal_g,
    run_nonadaptive,
    sample_block,
    sample_cca,
    sampling_distribution,
    TestMatrix,
)
from priorgt.partition import build_partition
from priorgt.priors import PriorVector, generate_prior
from priorgt.sim import draw_truth

from helpers import design_spans, drawn_ids, matrix_from_rows


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


def test_sampling_cdf_is_sorted_with_trailing_certain_items():
    # Items with p = 1 add zero weight, and the running sum can overshoot 1
    # before the last entry; here it reads 1.0000000000000002 from item 1 on.
    overshot = 0
    rng = np.random.default_rng(41)
    priors = [PriorVector((0.26, 0.46, 1.0, 1.0, 1.0))]
    for _ in range(200):
        head = rng.uniform(0.0, 0.5, int(rng.integers(1, 8)))
        priors.append(PriorVector((*head.tolist(), *(1.0,) * int(rng.integers(1, 4)))))
    for p in priors:
        weights = sampling_distribution(p)
        raw = np.cumsum(weights)
        raw[-1] = 1.0
        overshot += bool((raw > 1.0).any())
        cdf = _sampling_cdf(weights)
        assert (np.diff(cdf) >= 0).all()
        ids = drawn_ids(np.random.default_rng(p.n), weights, 20, 6)
        u = np.random.default_rng(p.n).random((20, 6))
        assert np.array_equal(ids, np.searchsorted(raw, u, side="right"))
        assert (weights[ids] > 0).all()  # certain items are never drawn
    assert overshot >= 10


def _one_block_reference(design, seed):
    """Each block's ids from one (t_s, g_s) block of uniforms per block, in
    block order from one generator, by binary search."""
    rng = np.random.default_rng(seed)
    return [np.searchsorted(b.cdf, rng.random((b.t, b.g)), side="right") for b in design.blocks]


def _block_draws(design):
    """Per block of ``design``, the chunks its draws come in."""
    chunks = [[] for _ in design.blocks]
    for index, ids in design.draws():
        chunks[index].append(ids)
    return chunks


def _assert_chunks_equal_reference(block, chunks, reference):
    """Rows no wider than CHUNK hold the reference's raw ids, chunk by chunk;
    a wider row comes as its distinct ids."""
    if block.g <= CHUNK:
        assert np.array_equal(np.concatenate(chunks), reference)
    else:
        assert len(chunks) == len(reference)
        assert all(np.array_equal(ids, np.unique(row)[None]) for ids, row in zip(chunks, reference))


@pytest.mark.parametrize(
    "t, g",
    [
        (2000, 124),  # CHUNK // 124 rows per chunk, the last one ragged
        (2 * CHUNK + 5, 1),  # rows of one draw
        (3, CHUNK + 3),  # a single row wider than a chunk
    ],
    ids=["ragged-rows", "one-draw-rows", "row-wider-than-chunk"],
)
def test_chunked_draws_equal_one_block_of_uniforms(t, g):
    p = generate_prior("uniform", 1000, 8.0)
    design = sample_cca(p, t, g, seed=5)
    [chunks] = _block_draws(design)
    rows = max(1, CHUNK // g)
    assert len(chunks) == -(-t // rows) > 2
    if g <= CHUNK:
        assert [ids.shape for ids in chunks] == [(min(rows, t - lo), g) for lo in range(0, t, rows)]
        assert all(ids.size <= CHUNK for ids in chunks)
    [reference] = _one_block_reference(design, 5)
    _assert_chunks_equal_reference(design.blocks[0], chunks, reference)
    rows = [np.unique(row) for row in reference]
    assert all(np.array_equal(a, b) for a, b in zip(design.to_matrix().rows, rows, strict=True))


def test_chunked_block_draws_equal_one_block_of_uniforms():
    # One band of this design is a single row of 109,105 draws, wider than
    # CHUNK; the other bands follow on the same generator.
    p = generate_prior("exponential", 1000, 8.0)
    design = sample_block(p, eps=0.01, delta=1.0, seed=9)
    assert any(b.t == 1 and b.g > CHUNK for b in design.blocks)
    expected = _one_block_reference(design, 9)
    for block, chunks, reference in zip(design.blocks, _block_draws(design), expected, strict=True):
        _assert_chunks_equal_reference(block, chunks, reference)


class _SpyGenerator:
    """A generator that records how many doubles each ``random`` call asks
    for."""

    def __init__(self, rng, asked):
        self.rng, self.asked, self.bit_generator = rng, asked, rng.bit_generator

    def random(self, size):
        self.asked.append(int(np.prod(size)))
        return self.rng.random(size)


def test_wide_rows_draw_at_most_a_chunk_of_uniforms_at_a_time(monkeypatch):
    # Three whole-vector rows of 5 CHUNK + 7 draws, and the block design
    # whose band0 is one row of 109,105 draws, with a defective in every
    # block so measuring reads each wide row whole.
    p = generate_prior("exponential", 1000, 8.0)
    designs = [sample_cca(p, 3, 5 * CHUNK + 7, seed=2), sample_block(p, eps=0.01, delta=1.0, seed=9)]
    truth = draw_truth(p, 4).copy()
    for block in designs[1].blocks:
        truth[block.items[0]] = True
    expected = []
    for design in designs:
        rows = []
        for block, ids in zip(design.blocks, _one_block_reference(design, design.seed)):
            rows += [block.items[np.unique(row)] for row in ids]
        rows += [[i] for i in design.route.tolist()]
        expected.append(matrix_from_rows(design.n, rows, zero_assigned=frozenset(design.zero.tolist())))
    assert any(b.g > CHUNK and truth[b.items].any() for d in designs for b in d.blocks)
    asked = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _SpyGenerator(real(seed), asked))
    for design, matrix in zip(designs, expected):
        assert design.to_matrix() == matrix
        t, recovered = measure_design(design, truth)
        assert t == matrix.t
        assert np.array_equal(recovered, run_nonadaptive(matrix, truth)[1])
    assert asked and max(asked) <= CHUNK


def test_measuring_holds_one_chunk_of_draws():
    # About 2M draws; the whole (t, g) block of ids alone would take 15 MiB.
    p = generate_prior("uniform", 1000, 8.0)
    truth = np.random.default_rng(3).random(1000) < p.probs
    tracemalloc.start()
    try:
        t, _ = measure_design(sample_cca(p, 16000, 124, seed=3), truth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t == 16000
    assert peak < 4 << 20


@pytest.mark.parametrize(
    "shape",
    [(1,), (CHUNK - 1,), (CHUNK,), (CHUNK + 1,), (264, 124), (3 * CHUNK + 7,), (1, CHUNK + 3), (3, CHUNK + 3)],
    ids=["one", "chunk-less-one", "chunk", "chunk-plus-one", "ragged-chunk", "three-chunks", "wide-row", "wide-rows"],
)
def test_pcg64_advance_equals_drawing_doubles(shape):
    # measure_design skips a block's unread uniforms with advance(k); that is
    # exact only while PCG64 spends one 64-bit output per double.
    skipped, drawn = np.random.default_rng(11), np.random.default_rng(11)
    assert isinstance(skipped.bit_generator, np.random.PCG64)
    skipped.bit_generator.advance(math.prod(shape))
    drawn.random(shape)
    assert np.array_equal(skipped.random((2, CHUNK + 3)), drawn.random((2, CHUNK + 3)))


def _count_drawn(monkeypatch, design):
    """Count, per block of ``design``, the draws that measuring reads.  A
    block with no defective is drawn through a law of rows of one draw, so
    blocks are found by their ``items``."""
    drawn = [0] * len(design.blocks)
    real = nonadaptive._block_chunks

    def counted(block, rng):
        index = next(k for k, b in enumerate(design.blocks) if b.items is block.items)
        for ids in real(block, rng):
            drawn[index] += len(ids) * block.g
            yield ids

    monkeypatch.setattr(nonadaptive, "_block_chunks", counted)
    return drawn


def _settled_draws(design, truth):
    """Per block, the draws measuring should read, replayed from the
    reference ids of one (t, g) block of uniforms: whole chunks up to the
    first row after which every clear item of the block is cleared, and at
    most the block's t g draws.  A block with no defective is read in rows
    of one draw, CHUNK draws a chunk."""
    expected = []
    for block, ids in zip(design.blocks, _one_block_reference(design, design.seed), strict=True):
        local = truth[block.items]
        rows = ids if local.any() else ids.reshape(-1, 1)
        negative = np.flatnonzero(~local[rows].any(axis=1))
        first = np.full(len(local), len(rows))
        np.minimum.at(first, rows[negative].reshape(-1), np.repeat(negative, rows.shape[1]))
        settled = first[~local].max(initial=-1) + 1
        per = max(1, CHUNK // rows.shape[1])
        expected.append(min(len(rows), -(-settled // per) * per) * rows.shape[1])
    return expected


def test_measuring_stops_each_block_once_its_clear_items_are_cleared(monkeypatch):
    # Three bands: 20 rows of 364 draws, 714 rows of 47 and 336 rows of 12.
    # The middle band is done after its first chunk of CHUNK // 47 rows, and
    # the last band must still draw its own ids: a quarter of its items are
    # defective, so few of its rows come back negative, and ids drawn from
    # the wrong uniforms leave clear items uncleared.  The first band holds
    # no defective and is read as one stream of draws.
    p = generate_prior("exponential", 400, 10.0)
    design = sample_block(p, eps=0.01, delta=1.0, seed=9)
    truth = draw_truth(p, 4).copy()
    last = design.blocks[-1].items
    truth[last[::4]] = True
    total = [b.t * b.g for b in design.blocks]
    assert [(b.t, b.g) for b in design.blocks] == [(20, 364), (714, 47), (336, 12)]
    assert [truth[b.items].any() for b in design.blocks] == [False, True, True]
    expected_draws = _settled_draws(design, truth)
    _, expected = run_nonadaptive(design.to_matrix(), truth)
    drawn = _count_drawn(monkeypatch, design)
    t, recovered = measure_design(design, truth)
    assert drawn == expected_draws
    assert drawn[1] == CHUNK // 47 * 47 < total[1] and sum(drawn) < sum(total)
    assert t == design.t
    assert np.array_equal(recovered, expected)


def test_measuring_draws_every_chunk_while_a_clear_item_cannot_be_drawn(monkeypatch):
    # Item 0 has p = 1, so the sampler never draws it.  While the truth leaves
    # it clear its block is never done, and COMP declares it defective.
    p = PriorVector((1.0,) + (0.01,) * 999)
    design = sample_cca(p, 1000, optimal_g(p), seed=2)
    truth = np.zeros(1000, dtype=bool)
    total = [b.t * b.g for b in design.blocks]
    assert total[0] > 2 * CHUNK
    _, expected = run_nonadaptive(design.to_matrix(), truth)
    drawn = _count_drawn(monkeypatch, design)
    t, recovered = measure_design(design, truth)
    assert drawn == total == _settled_draws(design, truth)
    assert t == 1000
    assert np.array_equal(recovered, expected)
    assert recovered[0]


def test_measuring_stops_a_block_with_no_defective_mid_row(monkeypatch):
    # band0 of this design is one row of 109,105 draws over 111 items.  With
    # no defective in it that row is negative, so measuring stops within a
    # chunk of the draw that covers its last item.  The later bands must still
    # get the ids of a full draw after the skip.
    p = generate_prior("exponential", 1000, 8.0)
    design = sample_block(p, eps=0.01, delta=1.0, seed=9)
    band0 = design.blocks[0]
    assert (band0.t, band0.g, len(band0.items)) == (1, 109105, 111)
    assert band0.label == "band0"
    truth = np.zeros(1000, dtype=bool)
    truth[design.blocks[2].items[::5]] = True
    expected_draws = _settled_draws(design, truth)
    _, expected = run_nonadaptive(design.to_matrix(), truth)
    drawn = _count_drawn(monkeypatch, design)
    t, recovered = measure_design(design, truth)
    assert 0 < drawn[0] <= CHUNK < band0.g
    assert drawn == expected_draws
    assert t == design.t
    assert np.array_equal(recovered, expected)


def test_block_design_tests_a_one_item_ample_band():
    # eps >= n/2 makes gamma 1, so a band of one item is ample, but its row
    # budget ceil(4e (1+delta) mu_s ln 1) is zero; it is tested on its own.
    p = PriorVector((0.3, 0.01))
    part = build_partition(p, 1.0)
    assert part.gamma == 1 and [b.items for b in part.ample_bands()] == [(0,)] and part.zero_items == (1,)
    design = sample_block(p, eps=1.0, delta=1.0, seed=0)
    assert design.route.tolist() == [0]
    assert [(lo, hi, items.tolist(), label) for lo, hi, items, label in design_spans(design)] == [(0, 1, [0], "individual")]
    for bits in ([False, False], [True, False]):
        truth = np.array(bits, dtype=bool)
        t, recovered = measure_design(design, truth)
        assert t == 1
        assert np.array_equal(recovered, truth)
        assert np.array_equal(recovered, run_nonadaptive(design.to_matrix(), truth)[1])


def test_decode_comp_forced_rule():
    m = matrix_from_rows(3, (np.array([0, 1]), np.array([1, 2])))
    rec = decode_comp(m, (0, 1))
    assert rec.dtype == np.bool_ and rec.tolist() == [0, 0, 1]


def test_decode_comp_takes_bools_or_zeros_and_ones_only():
    m = matrix_from_rows(3, (np.array([0, 1]), np.array([1, 2])))
    for outcomes in ((0, 1), [False, True], np.array([0, 1], dtype=np.uint8), [False, 1]):
        assert decode_comp(m, outcomes).tolist() == [0, 0, 1]
    assert decode_comp(matrix_from_rows(2, []), []).tolist() == [1, 1]
    for bad in ([2, 0], [0.5, 0], [1.0, 0.0], ["1", "0"], [0, 1, 0], [[0, 1]], 1):
        with pytest.raises(ValueError, match="outcomes must be 2 bools or 0/1 integers"):
            decode_comp(m, bad)


ZERO_BUDGET = "needs at least 1 row, got t=0; .* exactly when mu = 0 or n = 1"


@pytest.mark.parametrize(
    "t, g, error",
    [
        pytest.param(3.0, 3, None, id="t-3.0"),
        pytest.param(3, 3.0, None, id="g-3.0"),
        pytest.param(True, 3, "t must be a whole number", id="t-bool"),
        pytest.param(2.5, 3, "t must be a whole number", id="t-2.5"),
        pytest.param(3, True, "g must be a whole number", id="g-bool"),
        pytest.param(3, 2.5, "g must be a whole number", id="g-2.5"),
        pytest.param(3, "3", "g must be a whole number", id="g-str"),
        pytest.param(0, 3, ZERO_BUDGET, id="t-0"),
        pytest.param(0.0, 3, ZERO_BUDGET, id="t-0.0"),
        pytest.param(-1, 3, "got t=-1", id="t-neg"),
        pytest.param(3, 0, "g must be at least 1", id="g-0"),
    ],
)
def test_sample_cca_reads_whole_sizes_only(t, g, error):
    # A bool t built a one-row design, and 2.5 failed inside range or numpy
    # with a TypeError; 3.0 reads as 3, as in success_curve.  Sizes below
    # one keep their own messages.
    p = generate_prior("uniform", 20, 2.0)
    if error is None:
        design = sample_cca(p, t, g, seed=1)
        assert (type(design.blocks[0].t), type(design.blocks[0].g)) == (int, int)
        assert design.to_matrix() == sample_cca(p, 3, 3, seed=1).to_matrix()
    else:
        with pytest.raises(ValueError, match=error):
            sample_cca(p, t, g, seed=1)


def test_cca_design_is_the_sampled_design_at_its_budget():
    p = generate_prior("exponential", 200, 6.0)
    t = num_tests_cca(p, 1.0)
    assert nonadaptive.cca_design(p, 1.0, seed=3).to_matrix() == build_cca_matrix(p, t, optimal_g(p), seed=3)
    with pytest.raises(ValueError, match="exactly when mu = 0 or n = 1"):
        nonadaptive.cca_design(PriorVector((0.0, 0.0, 0.0)), 1.0, seed=3)


def test_decode_comp_all_negative_clears_everything():
    m = matrix_from_rows(4, (np.array([0, 1]), np.array([2, 3])))
    assert decode_comp(m, (0, 0)).tolist() == [0, 0, 0, 0]


def test_decode_comp_zero_assigned_and_uncovered():
    # item 2 is never tested: stays declared defective; item 3 pre-cleared
    m = matrix_from_rows(4, (np.array([0]), np.array([1])), zero_assigned=frozenset({3}))
    rec = decode_comp(m, (0, 1))
    assert rec.tolist() == [0, 1, 1, 0]


def test_decode_comp_matches_bruteforce_forcing():
    """An item is forced non-defective exactly when some negative row holds it."""
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = 10
        t = int(rng.integers(1, 12))
        rows = tuple(
            np.unique(rng.integers(0, n, size=int(rng.integers(1, 6)))) for _ in range(t)
        )
        m = matrix_from_rows(n, rows)
        truth = np.array(tuple(rng.integers(0, 2, size=n)), dtype=bool)
        outcomes, rec = run_nonadaptive(m, truth)
        for i in range(n):
            forced_zero = any(
                not outcomes[r] and i in set(int(x) for x in rows[r]) for r in range(t)
            )
            assert rec.tolist()[i] == (0 if forced_zero else 1)


def test_run_nonadaptive_trivial_cases():
    p = generate_prior("uniform", 6, 1.0)
    m = build_cca_matrix(p, t=12, g=3, seed=1)
    outcomes, rec = run_nonadaptive(m, np.array((0,) * 6, dtype=bool))
    assert outcomes.dtype == rec.dtype == np.bool_
    assert outcomes.tolist() == [0] * 12
    assert rec.tolist() == [0] * 6

    singles = matrix_from_rows(4, tuple(np.array([i]) for i in range(4)))
    truth = np.array((1, 0, 0, 1), dtype=bool)
    _, rec = run_nonadaptive(singles, truth)
    assert rec.tolist() == truth.tolist()


def test_comp_one_sidedness():
    """Recovered dominates truth componentwise outside the pre-cleared set."""
    rng = np.random.default_rng(21)
    p = generate_prior("uniform", 30, 2.0)
    for seed in range(20):
        m = build_cca_matrix(p, t=25, g=8, seed=seed)
        truth = np.array(tuple(rng.random(30) < np.array(p.probs)), dtype=bool)
        _, rec = run_nonadaptive(m, truth)
        assert all(r >= t for r, t in zip(rec.tolist(), truth.tolist()))


def test_more_rows_never_hurt():
    rng = np.random.default_rng(29)
    p = generate_prior("uniform", 25, 2.0)
    big = build_cca_matrix(p, t=60, g=6, seed=8)
    small = matrix_from_rows(25, big.rows[:20])
    for _ in range(20):
        truth = np.array(tuple(rng.random(25) < np.array(p.probs)), dtype=bool)
        _, rec_small = run_nonadaptive(small, truth)
        _, rec_big = run_nonadaptive(big, truth)
        # extra rows only clear more items, and never a true defective
        assert all(b <= s for s, b in zip(rec_small.tolist(), rec_big.tolist()))
        assert all(b >= t for b, t in zip(rec_big.tolist(), truth.tolist()))


# ---------------------------------------------------------------- block design


def test_block_matrix_all_zero_set():
    p = PriorVector((1e-9, 1e-9, 1e-9, 1e-9))
    m = build_block_matrix(p, eps=0.5, delta=1.0, seed=0)
    assert m.t == 0
    assert m.zero_assigned == frozenset({0, 1, 2, 3})
    _, rec = run_nonadaptive(m, np.array((0, 0, 0, 0), dtype=bool))
    assert rec.tolist() == [0, 0, 0, 0]


def test_block_matrix_all_tail_singletons():
    p = PriorVector((0.7, 0.9))
    m = build_block_matrix(p, eps=0.5, delta=1.0, seed=0)
    assert m.t == 2
    assert all(len(row) == 1 for row in m.rows)
    truth = np.array((0, 1), dtype=bool)
    _, rec = run_nonadaptive(m, truth)
    assert rec.tolist() == truth.tolist()


def test_block_matrix_direct_sum_structure():
    rng = np.random.default_rng(31)
    for seed in range(10):
        n = int(rng.integers(50, 300))
        p = PriorVector(tuple(rng.uniform(0.001, 0.4, size=n)))
        design = sample_block(p, eps=0.05, delta=1.0, seed=seed)
        m = design.to_matrix()
        assert m == build_block_matrix(p, eps=0.05, delta=1.0, seed=seed)
        spans = design_spans(design)
        claimed = [set(items.tolist()) for _, _, items, _ in spans]
        for a in range(len(claimed)):
            for b in range(a + 1, len(claimed)):
                assert not (claimed[a] & claimed[b])
        assert spans[-1][1] == m.t
        for r, row in enumerate(m.rows):
            owners = [items for lo, hi, items, _ in spans if lo <= r < hi]
            assert len(owners) == 1
            assert set(row.tolist()) <= set(owners[0].tolist())


def test_block_matrix_row_budget_per_band():
    p = generate_prior("uniform", 1000, 8.0)
    design = sample_block(p, eps=0.01, delta=2.0, seed=4)
    part = build_partition(p, 0.01)
    band = part.ample_bands()[0]
    expected = math.ceil(4 * math.e * 3.0 * 8.0 * math.log(band.size))
    group_rows = [(lo, hi) for lo, hi, _, label in design_spans(design) if label.startswith("band")]
    assert group_rows == [(0, expected)]
    assert [block["row_hi"] - block["row_lo"] for block in design_to_json_dict(design)["blocks"]] == [expected]


def test_block_decoding_blockwise_equals_whole():
    rng = np.random.default_rng(37)
    p = PriorVector(tuple(rng.uniform(0.001, 0.4, size=120)))
    m = build_block_matrix(p, eps=0.05, delta=1.0, seed=2)
    truth = np.array(tuple(rng.random(120) < np.array(p.probs)), dtype=bool)
    outcomes, whole = run_nonadaptive(m, truth)

    merged = [0] * 120
    for i in range(120):
        if i not in m.zero_assigned and all(
            i not in set(int(x) for x in m.rows[r]) or outcomes[r] for r in range(m.t)
        ):
            merged[i] = 1
    assert whole.tolist() == merged


# ---------------------------------------------------------------- serialization


def test_matrix_json_roundtrip():
    # Exponential block rows list their ids in band order, not id order; the
    # written rows keep that order.  Each field read back from the JSON text
    # equals the matrix's own, and the blocks the design's layout.
    for p, eps in ((generate_prior("uniform", 40, 2.0), 0.1), (generate_prior("exponential", 200, 4.0), 0.01)):
        design = sample_block(p, eps=eps, delta=1.0, seed=9)
        m = design.to_matrix()
        assert m == build_block_matrix(p, eps=eps, delta=1.0, seed=9)
        data = json.loads(json.dumps(design_to_json_dict(design)))
        assert data["n"] == m.n
        assert data["rows"] == [row.tolist() for row in m.rows]
        assert np.concatenate(data["rows"]).tolist() == m.indices.tolist()
        assert data["blocks"] == [
            {"row_lo": lo, "row_hi": hi, "items": items.tolist(), "label": label}
            for lo, hi, items, label in design_spans(design)
        ]
        assert data.get("zero_assigned", []) == sorted(m.zero_assigned)


def test_cca_matrix_has_no_block_spans():
    # The whole-vector design is one unlabelled block spanning every row:
    # its JSON has no "blocks" key.
    p = generate_prior("uniform", 50, 2.0)
    design = sample_cca(p, 30, optimal_g(p), seed=4)
    assert [label for _, _, _, label in design_spans(design)] == [None]
    assert design_spans(design)[0][:2] == (0, 30)
    m = design.to_matrix()
    assert m == build_cca_matrix(p, 30, optimal_g(p), seed=4)
    data = design_to_json_dict(design)
    assert sorted(data) == ["n", "rows"]
    assert data["rows"] == [row.tolist() for row in m.rows]


def test_matrix_equality_is_by_value():
    a = matrix_from_rows(2, [[0]])
    assert a == matrix_from_rows(2, [[0]])
    assert a != matrix_from_rows(2, [[1]])
    assert a != matrix_from_rows(3, [[0]])
    assert a != matrix_from_rows(2, [[0], []])
    assert a != matrix_from_rows(2, [[0]], zero_assigned=frozenset({1}))
    assert a != "not a matrix"
    p = generate_prior("exponential", 200, 4.0)
    block = build_block_matrix(p, eps=0.01, delta=1.0, seed=9)
    assert block == build_block_matrix(p, eps=0.01, delta=1.0, seed=9)
    assert block != build_block_matrix(p, eps=0.01, delta=1.0, seed=10)


def test_value_equality_is_unhashable_for_matrices_and_false_across_classes():
    m = matrix_from_rows(2, [[0]])
    with pytest.raises(TypeError, match="unhashable"):
        hash(m)
    p = PriorVector((0.3, 0.3))
    plan = build_plan(p, "max_entropy")
    for a, b in ((plan, p), (p, m), (m, plan)):
        assert (a == b) is False and (b == a) is False
        assert a != b and b != a


def test_matrix_rejects_out_of_range_ids():
    with pytest.raises(ValueError):
        matrix_from_rows(2, (np.array([0, 2]),))


def test_matrix_refuses_zero_assigned_ids_outside_the_items():
    # A -1 wrapped to item 2 and cleared its defective, which COMP's
    # one-sided rule never does: the run returned (0, 1, 0) on truth (0, 0, 1).
    for zero in ({-1}, {3}, {0, 7}):
        with pytest.raises(ValueError, match="zero_assigned holds an item id outside 0..n-1"):
            TestMatrix(3, [0, 1], [0], zero_assigned=zero)
    for zero in ({0.5}, {True}):
        with pytest.raises(ValueError, match="zero_assigned must hold integers"):
            TestMatrix(3, [0, 1], [0], zero_assigned=zero)
    m = TestMatrix(3, [0, 1], [0], zero_assigned={0, 2})
    assert run_nonadaptive(m, np.array((0, 1, 0), dtype=bool))[1].tolist() == [0, 1, 0]


def test_block_spans_hold_read_only_arrays_and_compare_by_value():
    # Two ample bands, then a tail of two items and an under-sized band of one,
    # tested one item at a time.  The layout is read from the design: each
    # band's read-only int64 items, and rows from the running row counts.
    p = PriorVector((0.7, 0.6, 0.3) + (0.1,) * 8 + (0.02,) * 8)
    design = sample_block(p, eps=0.05, delta=1.0, seed=9)
    spans = design_spans(design)
    *bands, individual = spans
    assert [items.tolist() for _, _, items, _ in bands] == [b.items.tolist() for b in design.blocks]
    assert [label for *_, label in bands] == [b.label for b in design.blocks] == ["band0", "band1"]
    assert [(lo, hi) for lo, hi, _, _ in spans] == [(0, 8), (8, 45), (45, 48)] and design.t == 48
    assert individual[3] == "individual" and individual[2].tolist() == design.route.tolist()
    assert all(b.items.dtype == np.int64 and not b.items.flags.writeable for b in design.blocks)
    data = json.loads(json.dumps(design_to_json_dict(design)))
    assert [(b["row_lo"], b["row_hi"], b["label"]) for b in data["blocks"]] == [
        (0, 8, "band0"), (8, 45, "band1"), (45, 48, "individual")
    ]
    assert [b["items"] for b in data["blocks"]] == [items.tolist() for _, _, items, _ in spans]
    # Designs drawn from one law compare by value through their matrices.
    again = sample_block(p, eps=0.05, delta=1.0, seed=9)
    assert again.to_matrix() == design.to_matrix() and design_to_json_dict(again) == design_to_json_dict(design)


def test_matrix_refuses_index_values_that_are_not_integers():
    # Such values were truncated: [0.7, 2.9] became row [0, 2].
    for rows in ([[0.7, 2.9]], [[0], [True]], [[0, True]], [[0.0, 1.0]], [[0, 1.0]]):
        with pytest.raises(ValueError, match="must hold integers"):
            matrix_from_rows(3, rows)
    with pytest.raises(ValueError, match="indptr must hold integers"):
        TestMatrix(3, [0.0, 1.5], [1])
    with pytest.raises(ValueError, match="indices must hold integers"):
        TestMatrix(3, [0, 2], [0.0, 2.0])
    with pytest.raises(ValueError, match="indices must hold integers"):
        TestMatrix(3, [0, 2], [0, False])
    empty = matrix_from_rows(3, [[], [2]])
    assert empty.indptr.tolist() == [0, 0, 1] and empty.indices.tolist() == [2]
    assert TestMatrix(3, [0], ()).t == 0


def test_sampling_distribution_degenerate():
    with pytest.raises(ValueError):
        sampling_distribution(PriorVector((1.0, 1.0)))


def test_optimal_g_domain_errors():
    # all-zero priors make the per-draw miss probability exactly 1
    with pytest.raises(ValueError):
        optimal_g(PriorVector((0.0, 0.0)))
