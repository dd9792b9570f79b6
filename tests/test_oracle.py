import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from priorgt import oracle
from priorgt.adaptive import NestedPlan, build_plan, run_adaptive
from priorgt.nonadaptive import build_cca_matrix, run_nonadaptive
from priorgt.oracle import (
    check_lemma1,
    check_lemma2,
    exact_expected_tests,
    exact_stopping_time,
    exhaustive_decode_check,
    run_all_checks,
)
from priorgt.priors import PriorVector
from priorgt.sim import draw_truth

from helpers import matrix_from_rows


def simulate_collection_mean(p_hat, runs, seed):
    """Monte Carlo rival for the stopping-time formula: draw until every item
    has been seen at least once, via per-item first-occurrence positions."""
    n = len(p_hat)
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(p_hat)
    cdf[-1] = 1.0
    horizon = 1500  # generous: the chance any item hides this long is negligible
    draws = np.searchsorted(cdf, rng.random((runs, horizon)), side="right")
    stop = np.zeros(runs, dtype=np.int64)
    for i in range(n):
        hits = draws == i
        assert hits.any(axis=1).all(), "horizon too short"
        stop = np.maximum(stop, hits.argmax(axis=1) + 1)
    return float(stop.mean()), float(stop.std(ddof=1) / math.sqrt(runs))


def test_lemma1_instances():
    assert check_lemma1((0.2, 0.2, 0.2)) is True  # prod 0.512, sum 0.6
    assert check_lemma1((0.9,)) is True  # premise fails, vacuous
    with pytest.raises(ValueError):
        check_lemma1((0.0, 0.2))


def test_lemma1_randomized_audit():
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        k = int(rng.integers(1, 10))
        ps = tuple(rng.uniform(0.001, 0.8, size=k))
        assert check_lemma1(ps) is True


def test_lemma2_hand_values():
    assert check_lemma2(1) == (Fraction(1), Fraction(1))
    lhs, rhs = check_lemma2(3)
    assert lhs == rhs == Fraction(11, 6)  # 3 - 3/2 + 1/3


def test_lemma2_exact_through_20():
    for n in range(1, 21):
        lhs, rhs = check_lemma2(n)
        assert lhs == rhs


def test_lemma2_range_guard():
    with pytest.raises(ValueError):
        check_lemma2(0)
    with pytest.raises(ValueError):
        check_lemma2(26)


def test_stopping_time_classic_values():
    assert exact_stopping_time([0.5, 0.5]) == pytest.approx(3.0, abs=1e-12)
    assert exact_stopping_time([1 / 3] * 3) == pytest.approx(5.5, abs=1e-9)
    assert exact_stopping_time([1.0]) == pytest.approx(1.0, abs=1e-12)


def test_stopping_time_harmonic_identity_through_12():
    for n in range(1, 13):
        value = exact_stopping_time([1.0 / n] * n)
        harmonic = n * math.fsum(1.0 / r for r in range(1, n + 1))
        assert value == pytest.approx(harmonic, abs=1e-9)


def test_stopping_time_guards():
    with pytest.raises(ValueError):
        exact_stopping_time([0.5, 0.0, 0.5])
    with pytest.raises(ValueError):
        exact_stopping_time([0.4, 0.4])  # does not sum to one
    with pytest.raises(ValueError):
        exact_stopping_time([1.0 / 21] * 21)
    for weights in ([math.nan, 0.5], [0.5, math.nan, 0.5], [-0.5, 1.5]):
        with pytest.raises(ValueError, match="zero-probability entries"):
            exact_stopping_time(weights)


def test_stopping_time_matches_monte_carlo():
    rng = np.random.default_rng(7)
    for trial in range(4):
        n = int(rng.integers(2, 9))
        w = rng.uniform(0.2, 1.0, size=n)
        p_hat = w / w.sum()
        exact = exact_stopping_time(p_hat)
        mean, se = simulate_collection_mean(p_hat, runs=10_000, seed=100 + trial)
        assert abs(exact - mean) <= 3 * se


def test_exact_expected_tests_single_item():
    p = PriorVector((0.3,))
    plan = build_plan(p, "max_entropy")
    result = exact_expected_tests(plan, p)
    assert result.value == pytest.approx(1.0, abs=1e-12)
    assert result.terms == 2


def test_exact_expected_tests_hand_enumeration():
    # root {0, 1} splitting to leaves: 1 + Pr[positive] * 2 = 1 + 0.75 * 2
    plan = NestedPlan(
        n=2,
        construction="max_entropy",
        perm=(0, 1),
        lo=(0, 0, 1),
        hi=(2, 1, 2),
        mu_covered=1.0,
    )
    p = PriorVector((0.5, 0.5))
    assert exact_expected_tests(plan, p).value == pytest.approx(2.5, abs=1e-12)


def test_exact_expected_tests_within_adaptive_bound():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = PriorVector(tuple(rng.uniform(0.05, 0.45, size=10)))
        bound = 2 * p.entropy_bits + 2 * p.mu
        for construction in ("max_entropy", "shannon_fano", "huffman"):
            plan = build_plan(p, construction)
            assert exact_expected_tests(plan, p).value <= bound


def relabel_plan(plan, mapping):
    """The same pools over renamed items: only the item ids change."""
    return replace(
        plan,
        perm=tuple(mapping[i] for i in plan.perm),
        auto_defective=tuple(mapping[i] for i in plan.auto_defective),
        auto_clear=tuple(mapping[i] for i in plan.auto_clear),
    )


def test_exact_expected_tests_permutation_covariant():
    """Relabeling the items and the plan together leaves E[T] unchanged."""
    rng = np.random.default_rng(13)
    probs = tuple(rng.uniform(0.05, 0.45, size=8))
    p = PriorVector(probs)
    plan = build_plan(p, "huffman")
    base = exact_expected_tests(plan, p).value

    perm = tuple(int(i) for i in rng.permutation(8))  # new position j holds old item perm[j]
    old_to_new = {old: new for new, old in enumerate(perm)}
    p2 = PriorVector(tuple(probs[i] for i in perm))
    relabeled = relabel_plan(plan, old_to_new)
    assert not np.array_equal(relabeled.perm, plan.perm)
    assert exact_expected_tests(relabeled, p2).value == pytest.approx(base, abs=1e-9)


def test_exact_expected_tests_size_guard():
    p = PriorVector((0.1,) * 13)
    with pytest.raises(ValueError):
        exact_expected_tests(build_plan(p, "max_entropy"), p)


def test_exhaustive_decode_check_plans():
    rng = np.random.default_rng(17)
    for _ in range(5):
        n = int(rng.integers(2, 9))
        p = PriorVector(tuple(rng.uniform(0.02, 0.98, size=n)))
        plan = build_plan(p, "max_entropy")
        assert exhaustive_decode_check(plan, p).passed


def test_plan_oracles_share_one_executor_pass(monkeypatch):
    """E[T] and the decode audit of one plan read one executor run over the
    block of all truths, and give what separate runs give."""
    p = PriorVector(tuple(np.random.default_rng(19).uniform(0.05, 0.45, size=9)))
    plan = build_plan(p, "huffman")
    truths = (np.arange(1 << 9)[:, None] >> np.arange(9)) & 1 == 1
    result = run_adaptive(plan, truths, eps=0.0)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return run_adaptive(*args, **kwargs)

    monkeypatch.setattr(oracle, "run_adaptive", counted)
    oracle._plan_pass.cache_clear()
    exact = exact_expected_tests(plan, p)
    assert exhaustive_decode_check(build_plan(p, "huffman"), p).passed  # an equal plan, rebuilt
    assert calls == [plan]
    assert exact.value == math.fsum((oracle._truth_weights(p) * result.tests).tolist())
    assert np.array_equal(result.recovered, truths)
    with pytest.raises(ValueError):
        exhaustive_decode_check(plan, PriorVector((0.1,) * 8))


def test_exhaustive_decode_check_singleton_matrix_is_exact():
    p = PriorVector((0.2,) * 5)
    m = matrix_from_rows(5, [[i] for i in range(5)])
    check = exhaustive_decode_check(m, p)
    assert check.passed
    assert check.error_probability == pytest.approx(0.0, abs=1e-15)


def test_exhaustive_decode_error_probability_matches_monte_carlo():
    p = PriorVector((0.1,) * 10)
    m = build_cca_matrix(p, t=5, g=4, seed=3)
    check = exhaustive_decode_check(m, p)
    assert check.passed

    rng = np.random.default_rng(23)
    trials = 4000
    fails = 0
    for k in range(trials):
        truth = draw_truth(p, int(rng.integers(0, 2**31)))
        _, rec = run_nonadaptive(m, truth)
        fails += not np.array_equal(rec, truth)
    rate = fails / trials
    sigma = math.sqrt(max(check.error_probability * (1 - check.error_probability), 1e-12) / trials)
    assert abs(rate - check.error_probability) <= 4 * sigma + 1e-9


@pytest.mark.parametrize("n", [4, 6])
def test_exhaustive_decode_check_rejects_a_matrix_over_another_universe(n):
    m = matrix_from_rows(n, [[0, 1], [2, 3]])
    with pytest.raises(ValueError, match="matrix and prior disagree on the universe size"):
        exhaustive_decode_check(m, PriorVector((0.2,) * 5))


def test_exhaustive_decode_check_type_errors():
    p = PriorVector((0.1, 0.1))
    with pytest.raises(TypeError):
        exhaustive_decode_check("nope", p)


def test_run_all_checks_green():
    results = run_all_checks(seed=5)
    assert all(r.passed for r in results), [(r.name, r.detail) for r in results]
    names = {r.name for r in results}
    assert "lemma2_exact_rational" in names
