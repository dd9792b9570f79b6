"""Acceptance suite: one test per claimed guarantee, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are pinned here, not configurable; every randomized check
is seeded.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from priorgt.adaptive import build_plan, build_prepartitioned_plan, expected_tests, run_prepartitioned_adaptive
from priorgt.bounds import (
    MIN_CONCENTRATION_DELTA,
    adaptive_concentration,
    adaptive_expected_upper,
    block_upper,
    lower_bound,
)
from priorgt.cli import main as cli_main
from priorgt.nonadaptive import build_block_matrix, build_cca_matrix, num_tests_cca, optimal_g, run_nonadaptive
from priorgt.oracle import (
    check_lemma2,
    exact_expected_tests,
    exact_stopping_time,
    exhaustive_decode_check,
)
from priorgt.partition import build_partition, combine_for_concentration, is_skewed, measure_factor
from priorgt.priors import PriorVector, generate_prior
from priorgt.sim import (
    Campaign,
    draw_truth,
    run_campaign,
    success_curve,
    summarize,
)

from helpers import fit_slope, mann_kendall_increasing

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def report(num: int, detail: str, started: float) -> None:
    print(f"\ncriterion {num:02d} PASS ({time.time() - started:.1f}s): {detail}", flush=True)


def test_criterion_01_expected_tests_exact_small_scale():
    """Exact E[T] <= 2H + 2mu for 100 random priors, every construction.

    Entries are drawn from [0.05, 0.45] with at least four items: the
    inequality is provably false for nearly deterministic priors (a single
    item with p = 0.08 already forces E[T] = 1 > 2H + 2mu = 0.96), because
    any plan that tests at all spends one test.
    """
    started = time.time()
    rng = np.random.default_rng(101)
    worst_margin = math.inf
    for _ in range(100):
        n = int(rng.integers(4, 13))
        p = PriorVector(tuple(rng.uniform(0.05, 0.45, size=n)))
        bound = adaptive_expected_upper(p)
        for construction in ("max_entropy", "shannon_fano", "huffman"):
            plan = build_plan(p, construction)
            value = exact_expected_tests(plan, p).value
            assert value <= bound, (construction, p.probs, value, bound)
            worst_margin = min(worst_margin, bound - value)
    elapsed = time.time() - started
    assert elapsed < 30.0
    report(1, f"300 exact expectations within 2H+2mu, worst margin {worst_margin:.3f}", started)


def test_criterion_02_expected_tests_paper_scale():
    """Empirical mean tests per sweep point within 2H + 2mu + 3 SE, and the
    mean-vs-entropy slope lands in [1.0, 2.2] for every family and both
    tree constructions at n = 1000, 20 points x 200 trials."""
    started = time.time()
    sweep = tuple(float(x) for x in np.linspace(2.0, 40.0, 20))
    slopes = {}
    for family in ("uniform", "linear", "exponential"):
        campaign = Campaign(
            family=family,
            n=1000,
            sweep=sweep,
            trials=200,
            algorithms=("adaptive_me", "adaptive_huffman"),
            base_seed=202,
        )
        reports = run_campaign(campaign)
        rows = summarize(reports)
        for row in rows:
            bound = 2.0 * row["entropy"] + 2.0 * row["mu"]
            se = row["std_tests"] / math.sqrt(row["trials"])
            assert row["mean_tests"] <= bound + 3.0 * se, (family, row)
        for algorithm in ("adaptive_me", "adaptive_huffman"):
            pts = [(r["entropy"], r["mean_tests"]) for r in rows if r["algorithm"] == algorithm]
            slope = fit_slope(pts)
            assert 1.0 <= slope <= 2.2, (family, algorithm, slope)
            slopes[(family, algorithm)] = slope
    elapsed = time.time() - started
    assert elapsed < 600.0
    pretty = ", ".join(f"{f}/{a.split('_')[1]}={s:.2f}" for (f, a), s in slopes.items())
    report(2, f"all 120 points within bound; slopes {pretty}", started)


def test_criterion_02_exact_bound_at_paper_scale():
    """Closed-form E[T] <= 2H + 2mu at n = 10 000 for every family and
    construction, built whole and pre-partitioned (eps = 0.01), at mu = 4,
    16 and 40: the exact counterpart of criterion 02's Monte Carlo check."""
    started = time.time()
    worst_margin = math.inf
    for family in ("uniform", "linear", "exponential"):
        for target_mu in (4.0, 16.0, 40.0):
            p = generate_prior(family, 10_000, target_mu)
            bound = adaptive_expected_upper(p)
            for construction in ("max_entropy", "shannon_fano", "huffman"):
                for plan in (build_plan(p, construction), build_prepartitioned_plan(p, 0.01, construction)):
                    value = expected_tests(plan, p)
                    assert value <= bound, (family, target_mu, construction, value, bound)
                    worst_margin = min(worst_margin, bound - value)
    report(2, f"54 exact expectations at n=10000 within 2H+2mu, worst margin {worst_margin:.1f}", started)


def test_criterion_03_noiseless_exactness():
    """Fifty random plans recover every one of the 2**n truth vectors."""
    started = time.time()
    rng = np.random.default_rng(303)
    constructions = ("max_entropy", "shannon_fano", "huffman")
    for k in range(50):
        n = int(rng.integers(2, 13))
        p = PriorVector(tuple(rng.uniform(0.02, 0.98, size=n)))
        plan = build_plan(p, constructions[k % 3])
        assert exhaustive_decode_check(plan, p).passed, (n, p.probs)
    report(3, "50/50 plans exact on all truth vectors", started)


def test_criterion_04_sampled_design_budget():
    """At the row budget ceil(4e(1+delta) mu ln n) with delta = 1, full
    recovery succeeds in at least 99% of 200 trials for mu in {8, 16, 32}."""
    started = time.time()
    rates = {}
    for target_mu in (8.0, 16.0, 32.0):
        p = generate_prior("uniform", 1000, target_mu)
        t = num_tests_cca(p, 1.0)
        g = optimal_g(p)
        successes = 0
        for trial in range(200):
            ss = np.random.SeedSequence([404, int(target_mu), trial])
            truth_seed, matrix_seed = (int(s) for s in ss.generate_state(2, dtype=np.uint64))
            truth = draw_truth(p, truth_seed)
            m = build_cca_matrix(p, t, g, matrix_seed)
            _, rec = run_nonadaptive(m, truth)
            successes += np.array_equal(rec, truth)
        rate = successes / 200
        assert rate >= 0.99, (target_mu, t, rate)
        rates[int(target_mu)] = rate
    report(4, f"success at budget: {rates} (budgets 1202/2404/4807)", started)


def test_criterion_05_success_curves_nondecreasing():
    """Success vs row count over [0.2x, 1.2x] of the budget trends upward
    (one-sided Mann-Kendall, p < 0.05) for each mu."""
    started = time.time()
    pvals = {}
    for target_mu in (8.0, 16.0, 32.0):
        p = generate_prior("uniform", 1000, target_mu)
        t4 = num_tests_cca(p, 1.0)
        fracs = 0.2 * (6.0 ** (np.arange(13) / 12.0))  # geometric from 0.2x to 1.2x
        grid = sorted({max(1, int(round(f * t4))) for f in fracs})
        curve = success_curve(p, grid, trials=200, seed=505)
        trend = mann_kendall_increasing([rate for _, rate in curve])
        assert trend.p_value < 0.05, (target_mu, curve, trend)
        pvals[int(target_mu)] = round(trend.p_value, 4)
    report(5, f"Mann-Kendall increasing, p-values {pvals}", started)


def test_criterion_06_alternating_binomial_identity():
    """Exact rational equality of the alternating-binomial and harmonic sums
    for every n in 1..20."""
    started = time.time()
    for n in range(1, 21):
        lhs, rhs = check_lemma2(n)
        assert lhs == rhs, n
    elapsed = time.time() - started
    assert elapsed < 1.0
    report(6, "exact equality for n = 1..20", started)


def test_criterion_07_stopping_time_formula():
    """The inclusion-exclusion stopping time matches n * H_n to 1e-9 for
    uniform draws up to n = 12, and Monte Carlo collection (10,000 runs)
    within 3 sigma for ten random non-uniform distributions."""
    started = time.time()
    for n in range(1, 13):
        value = exact_stopping_time([1.0 / n] * n)
        harmonic = n * math.fsum(1.0 / r for r in range(1, n + 1))
        assert abs(value - harmonic) <= 1e-9, n

    rng = np.random.default_rng(707)
    worst_z = 0.0
    for trial in range(10):
        n = int(rng.integers(2, 9))
        w = rng.uniform(0.15, 1.0, size=n)
        p_hat = w / w.sum()
        exact = exact_stopping_time(p_hat)

        cdf = np.cumsum(p_hat)
        cdf[-1] = 1.0
        draws = np.searchsorted(cdf, np.random.default_rng(708 + trial).random((10_000, 1500)), side="right")
        stop = np.zeros(10_000, dtype=np.int64)
        for i in range(n):
            hits = draws == i
            assert hits.any(axis=1).all()
            stop = np.maximum(stop, hits.argmax(axis=1) + 1)
        mean = float(stop.mean())
        se = float(stop.std(ddof=1)) / math.sqrt(10_000)
        z = abs(exact - mean) / se
        assert z <= 3.0, (p_hat, exact, mean, se)
        worst_z = max(worst_z, z)
    report(7, f"harmonic identity to 1e-9; MC agreement, worst |z| = {worst_z:.2f}", started)


def test_criterion_08_concentration_budget_empirical():
    """Pre-partitioned adaptive runs stay under 4(1+delta)(gamma+3) H in at
    least 99% of 200 trials at delta = 2e-1, and the number of combined
    bands stays below the measure factor whenever combining happens."""
    started = time.time()
    p = generate_prior("uniform", 1000, 8.0)
    eps = 0.01
    assert not is_skewed(p, eps)
    gamma = measure_factor(1000, eps)
    budget = 4.0 * (1.0 + MIN_CONCENTRATION_DELTA) * (gamma + 3) * p.entropy_bits
    assert budget == pytest.approx(adaptive_concentration(p, eps, MIN_CONCENTRATION_DELTA).test_bound)

    part = combine_for_concentration(build_partition(p, eps), p)
    assert part.num_combined is not None and part.num_combined >= 1
    assert not part.concentration_void
    assert part.num_combined < gamma

    within = 0
    max_t = 0
    for trial in range(200):
        truth = draw_truth(p, int(np.random.SeedSequence([808, trial]).generate_state(1)[0]))
        result = run_prepartitioned_adaptive(p, eps, truth, construction="max_entropy")
        assert np.array_equal(result.recovered, truth)
        within += result.tests_used <= budget
        max_t = max(max_t, result.tests_used)
    assert within >= 198  # 99% of 200
    report(8, f"{within}/200 under budget {budget:.0f} (max observed {max_t}); combined {part.num_combined} < {gamma}", started)


def test_criterion_08_budget_holds_for_every_truth():
    """The exact certificate beside criterion 08's sampled one: a run tests
    each node of its plan at most once, so a pre-partitioned plan with no
    more nodes than the budget 4(1+delta)(gamma+3) H stays within it on every
    truth vector.  Checked for all three constructions in both modes."""
    started = time.time()
    p = generate_prior("uniform", 1000, 8.0)
    eps = 0.01
    budget = adaptive_concentration(p, eps, MIN_CONCENTRATION_DELTA).test_bound
    nodes = set()
    for construction in ("max_entropy", "shannon_fano", "huffman"):
        for counts_both in (True, False):
            plan = build_prepartitioned_plan(p, eps, construction, counts_both)
            assert len(plan.lo) <= budget, (construction, counts_both, len(plan.lo), budget)
            nodes.add(len(plan.lo))
    report(8, f"every plan has at most {max(nodes)} nodes <= budget {budget:.1f}, so T <= budget on every truth", started)


def test_criterion_09_block_design_structure_and_budget():
    """Fifty random non-skewed sparse priors: direct-sum structure holds,
    total rows stay under (12e+2)(1+delta) H at delta = 2, and decoding
    block-by-block equals decoding the whole matrix."""
    started = time.time()
    rng = np.random.default_rng(909)
    families = ("uniform", "linear", "exponential")
    checked = 0
    while checked < 50:
        family = families[int(rng.integers(0, 3))]
        n = int(rng.integers(100, 800))
        target = float(rng.uniform(1.0, n / 25))
        try:
            p = generate_prior(family, n, target)
        except ValueError:
            continue
        eps = 0.01
        if is_skewed(p, eps):
            continue
        m = build_block_matrix(p, eps, 2.0, seed=checked)

        budget = (12.0 * math.e + 2.0) * 3.0 * p.entropy_bits
        assert m.t <= budget, (family, n, target, m.t, budget)

        assert m.block_spans is not None
        span_items = [set(s.items) for s in m.block_spans]
        for a in range(len(span_items)):
            for b in range(a + 1, len(span_items)):
                assert not (span_items[a] & span_items[b])
        for r, row in enumerate(m.rows):
            owners = [s for s in m.block_spans if s.row_lo <= r < s.row_hi]
            assert len(owners) == 1
            assert set(int(i) for i in row) <= set(owners[0].items)

        truth = draw_truth(p, 3_000 + checked)
        outcomes, whole = run_nonadaptive(m, truth)
        blockwise = np.zeros(n, dtype=bool)
        for span in m.block_spans:
            rows = m.rows[span.row_lo : span.row_hi]
            outc = outcomes[span.row_lo : span.row_hi]
            cleared = set()
            negatives = [row for row, y in zip(rows, outc) if not y]
            if negatives:
                cleared = set(int(i) for i in np.unique(np.concatenate(negatives)))
            for i in span.items:
                blockwise[i] = i not in cleared
        for i in m.zero_assigned:
            blockwise[i] = False
        assert blockwise.tolist() == whole.tolist()
        checked += 1
    report(9, "50/50 block matrices: direct sum, budget, blockwise decode equal", started)


def test_criterion_10_bound_ordering():
    """lower(p, 0) <= 2H + 2mu <= min(concentration, block) on 100 random
    non-skewed, bounded-above priors."""
    started = time.time()
    rng = np.random.default_rng(1010)
    families = ("uniform", "linear", "exponential")
    checked = 0
    while checked < 100:
        family = families[int(rng.integers(0, 3))]
        n = int(rng.integers(50, 2000))
        target = float(rng.uniform(0.5, n / 25))
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
        t3 = adaptive_concentration(p, eps, delta)
        t5 = block_upper(p, eps, delta)
        assert t3.applicable and t5.applicable
        assert lo <= mid <= min(t3.test_bound, t5.test_bound), (family, n, target)
        checked += 1
    report(10, "100/100 priors respect the bound ordering", started)


def test_criterion_11_cli_determinism(tmp_path):
    """Every subcommand rerun with identical flags produces byte-identical
    output files."""
    started = time.time()
    prior_path = tmp_path / "prior.json"
    prior_path.write_text(json.dumps({"family": "uniform", "n": 100, "mu": 2.0}))
    campaign = os.path.join(REPO_ROOT, "campaigns", "quick.json")

    outputs = {}
    for tag in ("a", "b"):
        files = {
            "plan_me": tmp_path / f"plan_me_{tag}.json",
            "plan_cca": tmp_path / f"plan_cca_{tag}.json",
            "plan_block": tmp_path / f"plan_block_{tag}.json",
            "trials": tmp_path / f"trials_{tag}.csv",
            "summary": tmp_path / f"trials_{tag}.summary.csv",
            "bounds": tmp_path / f"bounds_{tag}.csv",
        }
        assert cli_main(["plan", "--prior", str(prior_path), "--algorithm", "me", "--out", str(files["plan_me"])]) == 0
        assert cli_main(
            ["plan", "--prior", str(prior_path), "--algorithm", "cca", "--seed", "9", "--out", str(files["plan_cca"])]
        ) == 0
        assert cli_main(
            ["plan", "--prior", str(prior_path), "--algorithm", "block", "--seed", "9", "--out", str(files["plan_block"])]
        ) == 0
        assert cli_main(["simulate", "--campaign", campaign, "--out", str(files["trials"])]) == 0
        assert cli_main(
            ["bounds", "--prior", str(prior_path), "--format", "csv", "--out", str(files["bounds"])]
        ) == 0
        outputs[tag] = files
    for key in outputs["a"]:
        assert outputs["a"][key].read_bytes() == outputs["b"][key].read_bytes(), key
    report(11, "plan/simulate/bounds outputs byte-identical across reruns", started)
