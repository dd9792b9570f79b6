import math

import numpy as np
import pytest

from priorgt.bounds import (
    MIN_CONCENTRATION_DELTA,
    adaptive_concentration,
    adaptive_expected_upper,
    all_reports,
    block_upper,
    cca_upper,
    lower_bound,
)
from priorgt.partition import is_skewed, measure_factor
from priorgt.priors import PriorVector, generate_prior


def test_lower_bound_scales_entropy():
    p = PriorVector((0.5,) * 10)  # H = 10 exactly
    assert lower_bound(p, 0.1) == pytest.approx(9.0, abs=1e-12)
    assert lower_bound(p, 0.0) == 10.0
    with pytest.raises(ValueError):
        lower_bound(p, 1.0)


def test_lower_bound_paper_scale():
    p = generate_prior("uniform", 1000, 8.0)
    assert lower_bound(p, 0.01) == pytest.approx(0.99 * p.entropy_bits, abs=1e-9)


def test_adaptive_expected_upper_values():
    assert adaptive_expected_upper(PriorVector((0.5, 0.5))) == 6.0
    assert adaptive_expected_upper(PriorVector((0.0, 0.0))) == 0.0
    p = generate_prior("uniform", 1000, 8.0)
    assert adaptive_expected_upper(p) == pytest.approx(2 * p.entropy_bits + 16.0, abs=1e-9)


def test_adaptive_concentration_arithmetic():
    # delta = 2e-1, gamma = 5, H = 100: 4 * 2e * 8 * 100
    p = PriorVector((0.5,) * 100)  # H = 100; skewed check still evaluated
    eps = 0.003  # 2n/eps just above 2**16, so gamma lands on 5
    report = adaptive_concentration(p, eps=eps, delta=MIN_CONCENTRATION_DELTA)
    assert measure_factor(100, eps) == 5
    assert report.test_bound == pytest.approx(4 * 2 * math.e * 8 * 100, rel=1e-12)
    assert report.test_bound == pytest.approx(17397.00370213789, abs=1e-6)


def test_adaptive_concentration_applicability():
    skewed = PriorVector((0.5,))
    assert is_skewed(skewed, 0.01)
    assert adaptive_concentration(skewed, 0.01, MIN_CONCENTRATION_DELTA).applicable is False

    fine = generate_prior("uniform", 1000, 8.0)
    assert adaptive_concentration(fine, 0.01, MIN_CONCENTRATION_DELTA).applicable is True
    assert adaptive_concentration(fine, 0.01, MIN_CONCENTRATION_DELTA - 0.01).applicable is False


def test_cca_upper_values_and_flags():
    p = generate_prior("uniform", 1000, 8.0)
    report = cca_upper(p, delta=1.0)
    assert report.test_bound == pytest.approx(4 * math.e * 2 * 8 * math.log(1000), rel=1e-12)
    assert report.test_bound == pytest.approx(1201.7424416191477, abs=1e-9)
    assert report.error_bound == pytest.approx(1e-3, abs=1e-15)
    assert report.applicable is True

    assert cca_upper(PriorVector((0.0, 0.0)), 1.0).test_bound == 0.0
    assert cca_upper(PriorVector((0.6, 0.1)), 1.0).applicable is False


def test_block_upper_values_and_clamping():
    p = PriorVector((0.5,) * 50)  # H = 50
    report = block_upper(p, eps=0.01, delta=2.0)
    assert report.test_bound == pytest.approx((12 * math.e + 2) * 3 * 50, rel=1e-12)
    assert report.test_bound == pytest.approx(5192.907291226281, abs=1e-6)
    # max p = 0.5 and skewed-by-construction: not applicable
    assert report.applicable is False

    vacuous = block_upper(generate_prior("uniform", 1000, 8.0), eps=0.01, delta=1.0)
    # raw error 2 * gamma**0 + eps/2 > 1 clamps with a note
    assert vacuous.error_bound == 1.0
    assert "clamped" in vacuous.notes


def test_bound_ordering_for_sparse_non_skewed_priors():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 100:
        family = ("uniform", "linear", "exponential")[int(rng.integers(0, 3))]
        n = int(rng.integers(100, 1000))
        target = float(rng.uniform(1.0, n / 20))
        try:
            p = generate_prior(family, n, target)
        except ValueError:
            continue
        eps = 0.01
        if is_skewed(p, eps) or p.max_prob >= 0.5:
            continue
        delta = MIN_CONCENTRATION_DELTA
        lo = lower_bound(p, 0.0)
        mid = adaptive_expected_upper(p)
        hi = min(
            adaptive_concentration(p, eps, delta).test_bound,
            block_upper(p, eps, delta).test_bound,
        )
        assert lo <= mid <= hi
        checked += 1


def test_bounds_monotone_in_entropy():
    eps, delta = 0.01, 3.0
    values = []
    for target in (2.0, 8.0, 32.0, 100.0):
        p = generate_prior("uniform", 1000, target)
        values.append(
            (
                lower_bound(p, 0.0),
                adaptive_expected_upper(p),
                adaptive_concentration(p, eps, delta).test_bound,
                block_upper(p, eps, delta).test_bound,
            )
        )
    for a, b in zip(values, values[1:]):
        assert all(x < y for x, y in zip(a, b))


def test_entropy_exceeds_half_mu_log_ratio():
    """For uniform priors below 1/2, H > (mu/2) log2(n/mu)."""
    for n, target in ((100, 3.0), (1000, 8.0), (1000, 32.0), (5000, 100.0)):
        p = generate_prior("uniform", n, target)
        assert p.entropy_bits > 0.5 * target * math.log2(n / target)


def test_all_reports_shape():
    p = generate_prior("uniform", 1000, 8.0)
    reports = all_reports(p, eps=0.01, delta=1.0, pe=0.0)
    assert [r.theorem for r in reports] == ["T1", "T2", "T3", "T4", "T5"]
    assert reports[0].test_bound == p.entropy_bits  # pe = 0
    assert all(0.0 <= r.error_bound <= 1.0 for r in reports)


def test_zero_mass_prior_reports():
    p = PriorVector((0.0, 0.0, 0.0))
    report = adaptive_concentration(p, eps=0.5, delta=MIN_CONCENTRATION_DELTA)
    assert report.test_bound == 0.0
    assert report.error_bound == 1.0  # raw limit is vacuous
    assert report.applicable is False  # zero entropy is skewed
