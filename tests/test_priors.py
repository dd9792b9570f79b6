import json
import math
import re

import numpy as np
import pytest

from priorgt.adaptive import build_plan, run_adaptive
from priorgt.nonadaptive import build_cca_matrix, measure_design, run_nonadaptive, sample_cca
from priorgt.priors import (
    PriorVector,
    binary_entropy,
    generate_prior,
    prior_from_json_dict,
    truth_array,
)

from helpers import prior_to_json_dict


def plain_entropy_sum(probs):
    """Independent oracle: direct left-to-right summation of binary entropies."""
    total = 0.0
    for p in probs:
        if 0.0 < p < 1.0:
            total += -p * math.log2(p) - (1 - p) * math.log2(1 - p)
    return total


def test_entropy_two_fair_bits():
    assert PriorVector((0.5, 0.5)).entropy_bits == 2.0


def test_entropy_degenerate_entries_contribute_zero():
    assert PriorVector((0.0, 1.0)).entropy_bits == 0.0


def test_entropy_uniform_1000_matches_direct_summation():
    p = PriorVector((0.008,) * 1000)
    assert p.entropy_bits == pytest.approx(plain_entropy_sum(p.probs), abs=1e-9)


def test_entropy_permutation_invariant():
    rng = np.random.default_rng(42)
    probs = tuple(rng.uniform(0.0, 1.0, size=200))
    base = PriorVector(probs).entropy_bits
    for _ in range(5):
        perm = tuple(rng.permutation(probs))
        assert PriorVector(perm).entropy_bits == pytest.approx(base, abs=1e-9)


def test_entropy_additive_over_concatenation():
    rng = np.random.default_rng(7)
    a = tuple(rng.uniform(0, 1, size=50))
    b = tuple(rng.uniform(0, 1, size=80))
    total = PriorVector(a + b).entropy_bits
    assert total == pytest.approx(PriorVector(a).entropy_bits + PriorVector(b).entropy_bits, abs=1e-9)


def test_entropy_bounds_and_maximum():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        p = PriorVector(tuple(rng.uniform(0, 1, size=n)))
        assert 0.0 <= p.entropy_bits <= n + 1e-12
    assert PriorVector((0.5,) * 17).entropy_bits == 17.0


def test_mu_examples():
    assert PriorVector((0.5, 0.5)).mu == 1.0
    assert PriorVector((0.0,) * 10).mu == 0.0


def test_mu_linear_family_hits_target():
    p = generate_prior("linear", 1000, 8.0)
    assert abs(p.mu - 8.0) <= 1e-9


# Extreme probabilities: subnormal, tiny, one ulp either side of 1/2, one
# ulp below 1, and exactly 0 and 1.
EXTREME_GRID = [5e-324, 1e-310, 1e-300, 1e-200, 1e-17, 1e-12, 1e-6, 0.3, 0.5 - 2**-54, 0.5, 0.5 + 2**-53,
                0.7, 1 - 1e-12, 1 - 2**-53, 0.0, 1.0]


def binary_entropy_sum(probs):
    """The per-item reference: ``binary_entropy`` of every item, exactly summed."""
    return math.fsum(map(binary_entropy, probs.tolist()))


def test_entropy_bits_equals_per_item_binary_entropy_on_extremes():
    rng = np.random.default_rng(11)
    priors = [PriorVector(EXTREME_GRID)] + [PriorVector([q]) for q in EXTREME_GRID]
    priors += [PriorVector(rng.choice(EXTREME_GRID, size=int(rng.integers(1, 40)))) for _ in range(300)]
    # Repeated values mixed with distinct ones, and priors with no inner value.
    priors += [PriorVector(np.concatenate([rng.choice(EXTREME_GRID, 20), rng.uniform(0, 1, 20)])) for _ in range(50)]
    priors += [PriorVector([0.0, 1.0, 1.0]), PriorVector([0.0])]
    # A one-item prior's total is its one term, so a term one ulp off shows.
    priors += [PriorVector([q]) for q in rng.uniform(0.0, 1.0, 5000).tolist()]
    for p in priors:
        assert p.entropy_bits == binary_entropy_sum(p.probs)


@pytest.mark.parametrize("family", ["uniform", "linear", "exponential"])
@pytest.mark.parametrize("n", [1, 7, 1000, 10_000, 100_000])
def test_entropy_bits_equals_per_item_binary_entropy_on_families(family, n):
    for mu in (0.3, min(16.0, n / 4)) if n > 1 else (0.3,):
        p = generate_prior(family, n, mu, rho=0.999)
        assert p.entropy_bits == binary_entropy_sum(p.probs)


def test_binary_entropy_symmetry_and_edges():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    for p in (0.01, 0.2, 0.37):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-12)


def test_generate_uniform_forced_values():
    p = generate_prior("uniform", 4, 1.0)
    assert p.probs.tolist() == [0.25, 0.25, 0.25, 0.25]


def test_generate_linear_weights_1_to_n():
    p = generate_prior("linear", 4, 1.0)
    assert p.probs == pytest.approx((0.1, 0.2, 0.3, 0.4), abs=1e-12)


def test_generate_exponential_geometric_ratio_and_sum():
    rho = 0.8
    p = generate_prior("exponential", 3, 0.9, rho=rho)
    assert p.probs[1] / p.probs[0] == pytest.approx(rho, abs=1e-12)
    assert p.probs[2] / p.probs[1] == pytest.approx(rho, abs=1e-12)
    assert p.mu == pytest.approx(0.9, abs=1e-9)
    # closed-form geometric normalization
    scale = 0.9 * (1 - rho) / (1 - rho**3)
    assert p.probs[0] == pytest.approx(scale, abs=1e-12)


def test_generate_prior_is_deterministic():
    a = generate_prior("exponential", 50, 2.0)
    b = generate_prior("exponential", 50, 2.0)
    assert a.probs.tobytes() == b.probs.tobytes() and a == b
    with pytest.raises(TypeError):
        generate_prior("exponential", 50, 2.0, seed=1)  # generation takes no seed


@pytest.mark.parametrize("family", ["uniform", "linear", "exponential"])
def test_generate_prior_invariants(family):
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(10, 500))
        cap = n / 4
        if family == "exponential":
            # top entry is target * (1 - rho) / (1 - rho**n); keep it under 1/2
            cap = min(cap, 0.45 * (1 - 0.99**n) / (1 - 0.99))
        target = float(rng.uniform(0.4, cap))
        p = generate_prior(family, n, target)
        assert abs(p.mu - target) <= 1e-9
        assert p.max_prob < 0.5


def test_generate_prior_rejects_bad_parameters():
    with pytest.raises(ValueError):
        generate_prior("uniform", 4, 2.0)  # target_mu = n/2
    with pytest.raises(ValueError):
        generate_prior("linear", 4, 1.5)  # top entry would be 0.6
    with pytest.raises(ValueError):
        generate_prior("nope", 4, 1.0)
    with pytest.raises(ValueError):
        generate_prior("uniform", 0, 0.1)


def test_generate_prior_reads_n_as_a_whole_number():
    for n in (2.5, True, False, "3", None, 0, 0.0):
        with pytest.raises(ValueError, match="n must be a whole number"):
            generate_prior("uniform", n, 0.4)
    p = generate_prior("uniform", 3.0, 1.0)
    assert p == generate_prior("uniform", 3, 1.0)
    assert p.n == 3 and type(p.n) is int


def test_uniform_entropy_closed_form():
    for n, target in ((100, 5.0), (1000, 8.0), (1000, 32.0)):
        p = generate_prior("uniform", n, target)
        assert p.entropy_bits == pytest.approx(n * binary_entropy(target / n), abs=1e-9)


def test_prior_vector_validation():
    with pytest.raises(ValueError):
        PriorVector(())
    with pytest.raises(ValueError):
        PriorVector((0.5, 1.2))
    with pytest.raises(ValueError):
        PriorVector((-0.1,))


def test_prior_vector_holds_one_read_only_array_and_compares_by_value():
    given = np.array([0.1, -0.0, 0.5])
    p = PriorVector(given)
    given[0] = 0.9
    assert p.probs.tolist() == [0.1, 0.0, 0.5]
    assert p.probs.dtype == np.float64 and not p.probs.flags.writeable
    q = PriorVector([0.1, 0.0, 0.5])
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    assert p != PriorVector([0.1, 0.0, 0.25]) and p != (0.1, 0.0, 0.5)
    assert p.restricted_mu([]) == 0.0 and p.restricted_mu((0, 2)) == 0.6


def test_truth_array_takes_bool_vectors_and_never_casts():
    given = np.array([True, False, True])
    assert truth_array(3, given) is given
    assert truth_array(3, [True, False, True]).tolist() == [True, False, True]
    assert truth_array(0, np.zeros(0, dtype=bool)).shape == (0,)
    # A cast read 0.5 and 2 as defective.
    for bad in ([0.5, 0, 1], np.array([1, 0, 1]), np.array([2.0, 0.0, 1.0]), [1, 0, 1], np.zeros(4, dtype=bool),
                np.zeros((1, 3), dtype=bool), np.True_):
        with pytest.raises(ValueError, match=r"a truth must be a bool array of shape \(3,\)"):
            truth_array(3, bad)


def _bad_truths(n):
    """An int truth, a float truth, a truth one item too long, and a 2-D one."""
    ints = np.zeros(n, dtype=np.int64)
    floats = np.zeros(n)
    floats[0] = 0.5
    return [ints, floats, np.zeros(n + 1, dtype=bool), np.zeros((1, n), dtype=bool)]


def test_executors_refuse_truths_that_are_not_bool_vectors():
    p = PriorVector((0.2, 0.3, 0.4, 0.1))
    plan = build_plan(p, "max_entropy")
    design = sample_cca(p, 5, 2, seed=1)
    matrix = build_cca_matrix(p, 5, 2, seed=1)
    one_truth = [
        lambda truth: measure_design(design, truth),
        lambda truth: run_nonadaptive(matrix, truth),
    ]
    for run in one_truth:
        run(np.zeros(4, dtype=bool))
        for bad in _bad_truths(4):
            with pytest.raises(ValueError, match="a truth must be a bool array"):
                run(bad)
    # The adaptive executor also takes a (T, n) block, so its 2-D bad truth
    # has three axes.
    for good in (np.zeros(4, dtype=bool), np.zeros((1, 4), dtype=bool), np.zeros((2, 4), dtype=bool)):
        run_adaptive(plan, good)
    for bad in _bad_truths(4)[:3] + [np.zeros((1, 1, 4), dtype=bool)]:
        for truths in (bad, bad[None].repeat(2, axis=0)):
            with pytest.raises(ValueError, match="a truth must be a bool array"):
                run_adaptive(plan, truths)


def test_prior_json_roundtrip_is_lossless():
    rng = np.random.default_rng(11)
    p = PriorVector(tuple(rng.uniform(0, 0.5, size=64)))
    text = json.dumps(prior_to_json_dict(p))
    back = prior_from_json_dict(json.loads(text))
    assert back.probs.tobytes() == p.probs.tobytes()


def test_prior_json_generator_spec():
    spec = {"family": "exponential", "n": 20, "mu": 1.5, "rho": 0.9}
    p = prior_from_json_dict(spec)
    assert p == generate_prior("exponential", 20, 1.5, rho=0.9)
    with pytest.raises(ValueError):
        prior_from_json_dict({"nothing": 1})
    # Integers are JSON numbers too.
    assert prior_from_json_dict({"probs": [0, 1, 0.5]}).probs.tolist() == [0.0, 1.0, 0.5]
    assert prior_from_json_dict({"family": "uniform", "n": 100, "mu": 2}) == generate_prior("uniform", 100, 2.0)


@pytest.mark.parametrize(
    "spec, field",
    [
        ({"probs": ["0.5", 0.1]}, "probs[0]"),
        ({"probs": [0.5, True, 0.1]}, "probs[1]"),
        ({"probs": [0.5, 10**400]}, "probs[1]"),
        ({"family": "uniform", "n": 100, "mu": "2"}, "mu"),
        ({"family": "uniform", "n": 100, "mu": 10**400}, "mu"),
        ({"family": "exponential", "n": 100, "mu": 2.0, "rho": True}, "rho"),
    ],
)
def test_prior_json_numbers_must_be_json_numbers(spec, field):
    with pytest.raises(ValueError, match=rf"^{re.escape(field)} must "):
        prior_from_json_dict(spec)


@pytest.mark.parametrize("probs", ["0.1", {"0": 0.1}, 0.1])
def test_prior_json_probs_must_be_a_json_list(probs):
    # A string would otherwise be read as its characters, an object as its keys.
    with pytest.raises(ValueError, match=r"^probs must be a JSON list, got "):
        prior_from_json_dict({"probs": probs})
