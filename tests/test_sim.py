import math

import numpy as np
import pytest

from priorgt.adaptive import build_plan, build_prepartitioned_plan
from priorgt.bounds import adaptive_expected_upper
from priorgt.nonadaptive import build_block_matrix, build_cca_matrix, num_tests_cca, optimal_g, run_nonadaptive
from priorgt import nonadaptive, sim
from priorgt.priors import DEFAULT_EXPONENTIAL_DECAY, PriorVector, generate_prior
from priorgt.sim import (
    ALGORITHMS,
    TRUTH_BLOCK_CELLS,
    Campaign,
    PointTrials,
    campaign_from_json_dict,
    draw_truth,
    run_campaign,
    success_curve,
    summarize,
    summary_csv_text,
    trials_csv_text,
)

from helpers import fit_slope, mann_kendall_increasing, walk_plan


def test_draw_truth_degenerate():
    assert draw_truth(PriorVector((0.0,) * 8), 1).tolist() == [0] * 8
    assert draw_truth(PriorVector((1.0,) * 8), 1).tolist() == [1] * 8


def test_draw_truth_is_a_read_only_bool_array():
    # Every algorithm of a trial shares the truth, so none may write to it.
    truth = draw_truth(generate_prior("uniform", 50, 5.0), 3)
    assert isinstance(truth, np.ndarray) and truth.dtype == np.bool_ and truth.shape == (50,)
    assert not truth.flags.writeable
    with pytest.raises(ValueError):
        truth[0] = True


def test_draw_truth_frequency():
    p = PriorVector((0.3,))
    hits = sum(draw_truth(p, seed)[0] for seed in range(10_000))
    sigma = math.sqrt(0.3 * 0.7 / 10_000)
    assert abs(hits / 10_000 - 0.3) <= 3 * sigma


def test_draw_truth_deterministic():
    p = generate_prior("linear", 100, 3.0)
    assert draw_truth(p, 9).tolist() == draw_truth(p, 9).tolist()
    assert draw_truth(p, 9).tolist() != draw_truth(p, 10).tolist()


# Base seeds and truth seeds at the edges of numpy's 32-bit entropy words.
EDGE_SEEDS = [0, 1, 2, 20240801, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 1, 2**96 + 7]


@pytest.mark.parametrize("base_seed", EDGE_SEEDS)
def test_trial_seeds_match_numpy_seed_sequence(base_seed):
    # Pins the hash to numpy's SeedSequence, which numpy keeps stable.
    for point_index in (0, 1, 7):
        expected = [
            tuple(int(w) for w in np.random.SeedSequence([base_seed, point_index, k]).generate_state(2, np.uint64))
            for k in range(300)
        ]
        assert sim.trial_seeds(base_seed, point_index, 300) == expected


def test_seed_words_match_numpy_past_the_pool():
    # Trial index 2**32 takes two entropy words, so one call mixes columns
    # of four and five words; 2**160 + 3 alone takes six.
    trials = [0, 2**32 - 1, 2**32, 2**40 + 9, 2**160 + 3]
    for head in ((5, 1), (2**32, 7), (2**96 + 7, 2**32 + 1)):
        state = sim._seed_state(*sim._entropy_words(head, trials), 8)
        for column, k in zip(state.T, trials):
            assert column.tolist() == np.random.SeedSequence([*head, k]).generate_state(8).tolist()


@pytest.mark.parametrize("n", [1, 1000])
def test_draw_truth_matches_numpy_default_rng(n):
    # Pins each truth to default_rng's PCG64 stream, whose seeding numpy
    # keeps stable, for one seed and for a block of seeds.
    p = PriorVector((0.3,)) if n == 1 else generate_prior("exponential", n, 8.0)
    seeds = EDGE_SEEDS + [2**128 - 1, 2**128, 2**300 + 1, *range(3, 40)]
    expected = np.array([np.random.default_rng(s).random(n) < p.probs for s in seeds])
    block = draw_truth(p, seeds)
    assert block.shape == (len(seeds), n) and block.dtype == np.bool_ and not block.flags.writeable
    assert np.array_equal(block, expected)
    for s, row in zip(seeds, expected):
        assert np.array_equal(draw_truth(p, s), row)
    assert draw_truth(p, []).shape == (0, n)


def test_draw_truth_reads_each_seed_as_a_whole_number():
    p = generate_prior("uniform", 20, 2.0)
    assert np.array_equal(draw_truth(p, 1.0), draw_truth(p, 1))
    assert np.array_equal(draw_truth(p, np.uint64(2**64 - 1)), draw_truth(p, 2**64 - 1))
    for seed in (True, 1.5, "3", -1, [4, False], [4, -2], [4, "5"]):
        with pytest.raises(ValueError, match="seed must be a whole number"):
            draw_truth(p, seed)


def test_run_campaign_single_cell():
    c = Campaign(family="uniform", n=20, sweep=(1.0,), trials=1, algorithms=("adaptive_me",))
    (point,) = run_campaign(c)
    assert point.n == 20 and len(point.seeds) == 1
    assert list(point.tests) == list(point.success) == ["adaptive_me"]
    assert len(point.tests["adaptive_me"]) == 1 and point.tests["adaptive_me"][0] >= 1


def test_run_campaign_deterministic():
    c = Campaign(
        family="linear",
        n=30,
        sweep=(1.0, 2.0),
        trials=5,
        algorithms=("adaptive_me", "cca"),
        base_seed=11,
    )
    assert run_campaign(c) == run_campaign(c)


def test_run_campaign_truth_shared_across_algorithms(monkeypatch):
    c = Campaign(
        family="uniform",
        n=25,
        sweep=(2.0,),
        trials=4,
        algorithms=("adaptive_me", "adaptive_huffman", "cca"),
        base_seed=3,
    )
    drawn = []

    def recorded(p, seeds):
        drawn.append(list(seeds))
        return draw_truth(p, seeds)

    monkeypatch.setattr(sim, "draw_truth", recorded)
    monkeypatch.setattr(sim, "TRUTH_BLOCK_CELLS", 3 * c.n)
    (point,) = run_campaign(c)
    # One draw per trial, from the trial's truth seed, for all three
    # algorithms, in blocks of at most TRUTH_BLOCK_CELLS // n trials.
    assert [seed for block in drawn for seed in block] == point.seeds and len(set(point.seeds)) == 4
    assert all(len(block) <= sim.TRUTH_BLOCK_CELLS // c.n for block in drawn)
    assert all(len(column) == 4 for column in [*point.tests.values(), *point.success.values()])


@pytest.mark.parametrize("block_trials", [3, TRUTH_BLOCK_CELLS // 200], ids=["blocks-of-3", "default-blocks"])
def test_run_campaign_matches_per_trial_scalar_reference(monkeypatch, block_trials):
    # Blocks of 3 trials split each point into blocks of 3, 3, 3 and 1; the
    # default size holds every trial in one block.  The first point's mass
    # lies below eps, so the adaptive shortcut fires there.
    monkeypatch.setattr(sim, "TRUTH_BLOCK_CELLS", 200 * block_trials)
    c = Campaign(
        family="exponential",
        n=200,
        sweep=(0.3, 4.0),
        trials=10,
        algorithms=ALGORITHMS,
        base_seed=6,
        eps=0.5,
    )
    construction = {"me": "max_entropy", "sf": "shannon_fano", "huffman": "huffman"}
    expected = []
    for point_index, target_mu in enumerate(c.sweep):
        seeds, tests, success = [], {a: [] for a in c.algorithms}, {a: [] for a in c.algorithms}
        p = generate_prior(c.family, c.n, target_mu, rho=c.rho)
        plans = {}
        for algorithm in c.algorithms[:6]:
            kind, suffix = algorithm.split("_")
            if kind == "adaptive":
                plans[algorithm] = build_plan(p, construction[suffix])
            else:
                plans[algorithm] = build_prepartitioned_plan(p, c.eps, construction[suffix])
        for trial_index in range(c.trials):
            ss = np.random.SeedSequence([c.base_seed, point_index, trial_index])
            truth_seed, matrix_seed = (int(s) for s in ss.generate_state(2, dtype=np.uint64))
            truth = np.random.default_rng(truth_seed).random(p.n) < p.probs
            seeds.append(truth_seed)
            for algorithm in c.algorithms:
                if algorithm in plans:
                    result, _ = walk_plan(plans[algorithm], truth, eps=c.eps)
                    cell = result.tests_used, np.array_equal(result.recovered, truth)
                else:
                    if algorithm == "cca":
                        m = build_cca_matrix(p, num_tests_cca(p, c.delta), optimal_g(p), matrix_seed)
                    else:
                        m = build_block_matrix(p, c.eps, c.delta, matrix_seed)
                    cell = m.t, np.array_equal(run_nonadaptive(m, truth)[1], truth)
                tests[algorithm].append(cell[0])
                success[algorithm].append(cell[1])
        expected.append(PointTrials(c.n, p.mu, p.entropy_bits, seeds, tests, success))
    assert run_campaign(c) == expected
    # c.algorithms[:3] are the whole-vector adaptive plans, which the shortcut can fail.
    assert not all(ok for point in expected for a in c.algorithms[:3] for ok in point.success[a])


def test_adaptive_campaign_stays_under_expected_bound():
    c = Campaign(family="uniform", n=200, sweep=(4.0,), trials=100, algorithms=("adaptive_me",))
    (point,) = run_campaign(c)
    p = generate_prior("uniform", 200, 4.0)
    tests = np.array(point.tests["adaptive_me"], dtype=float)
    se = tests.std(ddof=1) / math.sqrt(len(tests))
    assert tests.mean() <= adaptive_expected_upper(p) + 3 * se
    assert all(point.success["adaptive_me"])  # noiseless adaptive runs are exact


def test_fit_slope_exact_line():
    assert fit_slope([(1, 2), (2, 4), (3, 6)]) == pytest.approx(2.0, abs=1e-12)


def test_fit_slope_with_noise():
    rng = np.random.default_rng(42)
    pts = [(x, 2 * x + rng.normal(0, 1e-6)) for x in range(1, 10)]
    assert fit_slope(pts) == pytest.approx(2.0, abs=1e-4)


def test_fit_slope_degenerate():
    with pytest.raises(ValueError):
        fit_slope([(1.0, 2.0), (1.0, 3.0)])
    with pytest.raises(ValueError):
        fit_slope([(1.0, 2.0)])


def test_success_curve_small_grid():
    p = generate_prior("uniform", 30, 2.0)
    curve = success_curve(p, [2, 40, 160], trials=40, seed=5)
    assert [t for t, _ in curve] == [2, 40, 160]
    rates = [r for _, r in curve]
    assert all(0.0 <= r <= 1.0 for r in rates)
    assert rates[2] >= rates[0]  # far more rows, no worse recovery
    assert curve == success_curve(p, [2, 40, 160], trials=40, seed=5)


def test_success_curve_refuses_counts_that_are_not_whole_numbers():
    p = generate_prior("uniform", 30, 2.0)
    assert success_curve(p, [np.int64(10), 20.0], trials=3, seed=1) == success_curve(p, [10, 20], trials=3, seed=1)
    for grid, trials in (([10], 0), ([10], 2.5), ([10], True), ([10.7], 3), ([0], 3), (["10"], 3)):
        with pytest.raises(ValueError, match="whole number"):
            success_curve(p, grid, trials=trials, seed=1)


def test_success_curve_reads_its_seed_as_a_whole_number():
    p = generate_prior("uniform", 30, 2.0)
    assert success_curve(p, [10], trials=3, seed=3.0) == success_curve(p, [10], trials=3, seed=3)
    assert success_curve(p, [10], trials=3, seed=2**64 + 1) == success_curve(p, [10], trials=3, seed=2**64 + 1)
    for seed in (True, "3", 1.5, -1):
        with pytest.raises(ValueError, match="seed must be a whole number"):
            success_curve(p, [10], trials=3, seed=seed)


def test_mann_kendall_detects_increase():
    result = mann_kendall_increasing([0.1, 0.25, 0.32, 0.5, 0.61, 0.7, 0.88, 0.9, 0.95, 1.0])
    assert result.p_value < 0.001


def test_mann_kendall_flat_is_not_significant():
    assert mann_kendall_increasing([1.0] * 10).p_value >= 0.5


def test_mann_kendall_decreasing_is_not_significant():
    assert mann_kendall_increasing([0.9, 0.7, 0.5, 0.3, 0.1]).p_value > 0.95


def test_summarize_groups_by_point_and_algorithm():
    c = Campaign(
        family="uniform",
        n=20,
        sweep=(1.0, 2.0),
        trials=3,
        algorithms=("adaptive_me", "cca"),
        base_seed=1,
    )
    points = run_campaign(c)
    rows = summarize(points)
    assert len(rows) == 4
    assert {r["algorithm"] for r in rows} == {"adaptive_me", "cca"}
    for row in rows:
        tests = points[row["point_index"]].tests[row["algorithm"]]
        success = points[row["point_index"]].success[row["algorithm"]]
        assert row["trials"] == len(tests) == 3
        assert row["mean_tests"] == pytest.approx(sum(tests) / 3)
        assert row["std_tests"] == pytest.approx(float(np.std(tests, ddof=1)))
        assert row["success_rate"] == sum(success) / 3


def test_summarize_labels_sweep_points_and_keeps_repeats_apart():
    c = Campaign(
        family="uniform",
        n=20,
        sweep=(2.0, 2.0, 4.0),
        trials=3,
        algorithms=("adaptive_me", "cca"),
        base_seed=1,
    )
    points = run_campaign(c)
    rows = summarize(points)
    assert [(r["point_index"], r["algorithm"]) for r in rows] == [
        (0, "adaptive_me"),
        (0, "cca"),
        (1, "adaptive_me"),
        (1, "cca"),
        (2, "adaptive_me"),
        (2, "cca"),
    ]
    assert [r["mu"] for r in rows] == [2.0, 2.0, 2.0, 2.0, 4.0, 4.0]
    assert all(r["trials"] == 3 for r in rows)
    # the repeated point draws its own truths
    assert set(points[0].seeds).isdisjoint(points[1].seeds)
    assert summary_csv_text(rows).splitlines()[5].startswith("2,adaptive_me,20,4.0,")


def test_csv_text_shapes():
    c = Campaign(family="uniform", n=15, sweep=(1.0,), trials=2, algorithms=("cca",))
    points = run_campaign(c)
    trials_text = trials_csv_text(points)
    lines = trials_text.strip().splitlines()
    assert lines[0] == "trial_id,seed,algorithm,n,mu,entropy,tests,success"
    assert len(lines) == 3
    summary_text = summary_csv_text(summarize(points))
    assert summary_text.splitlines()[0].startswith("point_index,algorithm,")
    # identical inputs give identical bytes
    assert trials_text == trials_csv_text(points)


def test_campaign_json_parsing():
    c = campaign_from_json_dict(
        {
            "family": "exponential",
            "n": 100,
            "sweep": [1.0, 2.0],
            "trials": 7,
            "algorithms": ["adaptive_me", "block"],
            "base_seed": 4,
            "eps": 0.05,
            "delta": 2.0,
            "rho": 0.95,
        }
    )
    assert c.trials == 7 and c.rho == 0.95
    with pytest.raises(ValueError):
        campaign_from_json_dict(
            {"family": "uniform", "n": 5, "sweep": [1.0], "trials": 1, "algorithms": ["nope"]}
        )


def test_campaign_json_defaults_are_the_campaign_defaults():
    required = {"family": "exponential", "n": 50, "sweep": [2.0], "trials": 3, "algorithms": ["cca"]}
    c = campaign_from_json_dict(required)
    assert c == Campaign(family="exponential", n=50, sweep=(2.0,), trials=3, algorithms=("cca",))
    assert (c.base_seed, c.eps, c.delta, c.rho) == (0, 0.01, 1.0, DEFAULT_EXPONENTIAL_DECAY)


def test_campaign_validation():
    with pytest.raises(ValueError):
        Campaign(family="uniform", n=10, sweep=(), trials=1, algorithms=("cca",))
    with pytest.raises(ValueError):
        Campaign(family="uniform", n=10, sweep=(1.0,), trials=0, algorithms=("cca",))


def test_prepartitioned_and_block_algorithms_run():
    c = Campaign(
        family="uniform",
        n=60,
        sweep=(2.0,),
        trials=3,
        algorithms=("prepartitioned_me", "block"),
        base_seed=2,
        eps=0.05,
        delta=1.0,
    )
    (point,) = run_campaign(c)
    assert list(point.tests) == ["prepartitioned_me", "block"]
    assert all(len(column) == 3 and min(column) > 0 for column in point.tests.values())


def test_sampled_design_laws_are_built_once_per_point(monkeypatch):
    c = Campaign(
        family="exponential",
        n=200,
        sweep=(2.0, 4.0, 6.0),
        trials=5,
        algorithms=("block", "cca"),
        base_seed=4,
        eps=0.05,
    )
    priors = [generate_prior(c.family, c.n, mu) for mu in c.sweep]
    bands = sum(len(nonadaptive.sample_block(p, c.eps, c.delta, 0).blocks) for p in priors)
    calls = {"build_partition": 0, "_block_law": 0}

    def count(name):
        real = getattr(nonadaptive, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(nonadaptive, name, counted)

    for name in calls:
        count(name)
    assert [len(column) for point in run_campaign(c) for column in point.tests.values()] == [5] * 6
    # One partition per point, and one law per point for cca and per band
    # for block, not one per trial.
    assert calls == {"build_partition": 3, "_block_law": 3 + bands}
    calls.update(build_partition=0, _block_law=0)
    success_curve(priors[0], [2, 40, 160], trials=6, seed=5)
    assert calls == {"build_partition": 0, "_block_law": 3}
