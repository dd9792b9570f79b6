import numpy as np
import pytest

from priorgt.partition import (
    band_boundaries,
    build_partition,
    combine_for_concentration,
    is_skewed,
    measure_factor,
)
from priorgt.priors import PriorVector, generate_prior

from helpers import partition_fields


def test_measure_factor_values():
    # ceil(log2(log2(1024))) = ceil(log2(10))
    assert measure_factor(512, 1.0) == 4
    # ceil(log2(log2(200000))) = ceil(log2(17.6096...))
    assert measure_factor(1000, 0.01) == 5
    # 2n/eps = 4: double log is exactly 1
    assert measure_factor(2, 1.0) == 1


def test_measure_factor_domain_error():
    with pytest.raises(ValueError):
        measure_factor(1, 1.0)  # 2n/eps = 2, double log = 0
    with pytest.raises(ValueError):
        measure_factor(10, 0.0)


def test_is_skewed_uniform_1000_is_not():
    p = PriorVector((0.008,) * 1000)
    # H ~ 67.2 bits > max(2 mu, gamma^2) = max(16, 25)
    assert is_skewed(p, 0.01) is False


def test_is_skewed_single_fair_item():
    assert is_skewed(PriorVector((0.5,)), 0.01) is True


def test_is_skewed_all_zero():
    assert is_skewed(PriorVector((0.0,) * 8), 0.5) is True


def test_band_boundaries_repeated_squaring():
    bounds = band_boundaries(1000, 0.01)
    assert bounds[:5] == [0.5, 0.25, 0.0625, 0.00390625, 1.52587890625e-05]
    assert bounds[-1] <= 0.01 / 2000
    for a, b in zip(bounds, bounds[1:]):
        assert b == a * a  # squaring powers of two is exact


def test_build_partition_interval_count_matches_measure_factor():
    # Spread items across (eps/2n, 1/2) so every interval is populated.
    rng = np.random.default_rng(42)
    n, eps = 1000, 0.01
    lo = eps / (2 * n)
    probs = tuple(np.exp(rng.uniform(np.log(lo * 1.01), np.log(0.499), size=n)))
    part = build_partition(PriorVector(probs), eps)
    assert len(part.bands) == measure_factor(n, eps) == 5


def test_build_partition_all_tail():
    part = build_partition(PriorVector((0.6, 0.7)), 0.5)
    assert part.bands == ()
    assert part.tail_items.tolist() == [0, 1]
    assert part.zero_items.tolist() == []


def test_build_partition_tiny_entry_in_zero_set():
    probs = [0.01] * 999 + [1e-9]
    part = build_partition(PriorVector(tuple(probs)), 0.01)
    assert part.zero_items == (999,)


def test_build_partition_boundary_tie_goes_up():
    # eps/2n = 0.025; bands are [0.0625, 0.25) and [0.25, 0.5) plus the clipped one.
    part = build_partition(PriorVector((0.25, 0.1, 0.3, 0.05)), 0.5)
    by_item = {}
    for band in part.bands:
        for i in band.items:
            by_item[i] = (band.lo, band.hi)
    assert by_item[0] == (0.25, 0.5)  # exactly on the boundary joins the band above
    assert by_item[2] == (0.25, 0.5)
    assert by_item[1] == (0.0625, 0.25)


def test_partition_disjoint_cover_and_balance():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(5, 200))
        probs = tuple(rng.uniform(0, 1, size=n))
        p = PriorVector(probs)
        eps = float(rng.uniform(0.01, 0.9))
        part = build_partition(p, eps)
        seen = list(part.zero_items) + list(part.tail_items)
        for band in part.bands:
            seen.extend(band.items)
            members = [probs[i] for i in band.items]
            assert max(members) ** 2 <= min(members) + 1e-15
            assert all(eps / (2 * n) < q < 0.5 for q in members)
        assert sorted(seen) == list(range(n))
        assert all(probs[i] <= eps / (2 * n) for i in part.zero_items)
        assert all(probs[i] >= 0.5 for i in part.tail_items)


def test_partition_is_deterministic():
    p = generate_prior("linear", 300, 5.0)
    a = build_partition(p, 0.01)
    b = build_partition(p, 0.01)
    assert partition_fields(a) == partition_fields(b)
    assert partition_fields(combine_for_concentration(a, p)) == partition_fields(combine_for_concentration(b, p))


def test_partition_item_sets_are_read_only_slices_of_one_stable_order():
    probs = np.array([0.3, 1e-9, 0.7, 0.1, 0.3, 0.0, 0.1, 1.0, 0.01, 0.2, 0.0625])
    part = build_partition(PriorVector(probs), 0.05)
    sets = [part.zero_items, *(b.items for b in part.bands), part.tail_items]
    for items in sets:
        assert items.dtype == np.int64 and not items.flags.writeable
    # Ascending probability, ties by item id.
    assert np.concatenate(sets).tolist() == sorted(range(len(probs)), key=lambda i: (probs[i], i))
    assert part.zero_items.tolist() == [5, 1] and part.tail_items.tolist() == [2, 7]
    # gamma is 4: only the band [1/16, 1/4) is ample, and 1/16 joins it.
    assert [b.items.tolist() for b in part.ample_bands()] == [[10, 3, 6, 9]]
    route = part.individual_route()
    assert route.dtype == np.int64 and route.tolist() == [8, 0, 4, 2, 7]


def test_combine_single_heavy_band_unchanged():
    p = generate_prior("uniform", 1000, 8.0)
    part = build_partition(p, 0.01)
    assert len(part.ample_bands()) == 1
    combined = combine_for_concentration(part, p)
    assert combined.num_combined == 1
    assert combined.concentration_void is False
    assert combined.bands == part.bands


def test_combine_crosses_threshold_at_third_band():
    # gamma = ceil(log2(log2(36))) = 3; three ample bands with sums
    # 0.15, 0.195, 0.78: the cumulative sum reaches 1/2 at the third.
    probs = (0.05, 0.05, 0.05, 0.065, 0.065, 0.065, 0.26, 0.26, 0.26)
    p = PriorVector(probs)
    part = build_partition(p, 0.5)
    assert part.gamma == 3
    assert len(part.ample_bands()) == 3
    combined = combine_for_concentration(part, p)
    assert combined.num_combined == 3
    assert combined.concentration_void is False
    assert len(combined.bands) == 1
    assert sorted(combined.bands[0].items) == list(range(9))


def test_combine_exhaustion_sets_flag_and_keeps_membership():
    # One ample band whose mass never reaches 1/2.
    probs = (0.05, 0.05, 0.05, 0.06)
    p = PriorVector(probs)
    part = build_partition(p, 0.5)
    combined = combine_for_concentration(part, p)
    assert combined.concentration_void is True
    assert combined.num_combined == len(part.ample_bands())
    assert combined.bands == part.bands


def test_combine_preserves_disjoint_cover():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(20, 300))
        p = PriorVector(tuple(rng.uniform(0.001, 0.49, size=n)))
        part = combine_for_concentration(build_partition(p, 0.05), p)
        seen = list(part.zero_items) + list(part.tail_items)
        for band in part.bands:
            seen.extend(band.items)
        assert sorted(seen) == list(range(n))

