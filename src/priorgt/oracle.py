"""Brute-force ground truth for the small-scale claims.

Everything here is deliberately exhaustive or exact: full truth-vector
enumeration, exact rational arithmetic, and the complete inclusion-exclusion
sum for the collection stopping time.  Size guards keep each check cheap
enough for CI.  The test suite trusts these verifiers over the production
algorithms wherever both can answer.

The plan oracles share one run of the adaptive executor over the block of
all 2**n truth vectors; the tests hold it to a depth-first walk of the plan.
The matrix audit measures and decodes the same truths in a few matrix
products, against :func:`run_nonadaptive` as the reference.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .adaptive import AdaptiveRunResult, NestedPlan, run_adaptive
# run_nonadaptive is not called here, but stays importable under this
# module's name: the benchmark tracer wraps ``oracle.run_nonadaptive``.
from .nonadaptive import TestMatrix, run_nonadaptive  # noqa: F401
from .priors import PriorVector

MAX_STOPPING_TIME_ITEMS = 20
MAX_PLAN_ITEMS = 12
MAX_MATRIX_ITEMS = 15
MAX_EXACT_RATIONAL_N = 25


def check_lemma1(ps: Sequence[float]) -> bool:
    """Instance check of the implication: if prod(1 - p_i) >= 1/2 then
    sum(p_i) <= 1.  Vacuously true when the premise fails."""
    for p in ps:
        if not (0.0 < p < 1.0):
            raise ValueError("entries must lie strictly between 0 and 1")
    premise = math.prod(1.0 - p for p in ps) >= 0.5
    if not premise:
        return True
    return math.fsum(ps) <= 1.0


def check_lemma2(n: int) -> tuple[Fraction, Fraction]:
    """Both sides of the alternating-binomial harmonic identity
    sum_r (-1)**(r-1) C(n,r)/r == sum_r 1/r, in exact rationals."""
    if not (1 <= n <= MAX_EXACT_RATIONAL_N):
        raise ValueError(f"n must lie in 1..{MAX_EXACT_RATIONAL_N}")
    lhs = Fraction(0)
    for r in range(1, n + 1):
        term = Fraction(math.comb(n, r), r)
        lhs += term if (r - 1) % 2 == 0 else -term
    rhs = sum((Fraction(1, r) for r in range(1, n + 1)), Fraction(0))
    return lhs, rhs


def exact_stopping_time(p_hat: Sequence[float]) -> float:
    """Expected number of draws to see every item at least once, by the full
    inclusion-exclusion sum over nonempty subsets.

    Subset sums are built by doubling and the alternating series is summed
    exactly with fsum, so only the per-term divisions round.  Every weight
    must be above zero, so zero, negative and NaN entries are rejected: an
    item that is never drawn has infinite collection time.
    """
    weights = [float(w) for w in p_hat]
    n = len(weights)
    if n < 1:
        raise ValueError("need at least one item")
    if n > MAX_STOPPING_TIME_ITEMS:
        raise ValueError(f"subset enumeration capped at {MAX_STOPPING_TIME_ITEMS} items")
    if not all(w > 0.0 for w in weights):
        raise ValueError("zero-probability entries make the stopping time infinite")
    if abs(math.fsum(weights) - 1.0) > 1e-9:
        raise ValueError("sampling probabilities must sum to 1")

    size = 1 << n
    totals = np.zeros(size)
    parity = np.zeros(size, dtype=np.int8)
    for i in range(n):
        lo = 1 << i
        totals[lo : 2 * lo] = totals[:lo] + weights[i]
        parity[lo : 2 * lo] = parity[:lo] ^ 1
    signs = np.where(parity[1:] == 1, 1.0, -1.0)
    return math.fsum((signs / totals[1:]).tolist())


@dataclass(frozen=True)
class ExactExpectation:
    value: float
    terms: int


def _truth_weights(p: PriorVector) -> np.ndarray:
    """Probability of every truth vector, indexed by bitmask (bit i = item i)."""
    weights = np.ones(1)
    for q in p.probs.tolist():
        weights = np.concatenate([weights * (1.0 - q), weights * q])
    return weights


@functools.lru_cache(maxsize=1)
def _truth_matrix(n: int) -> np.ndarray:
    """Every truth vector as one row of a read-only 2**n x n bool matrix, in
    bitmask order (bit i = item i).  The oracles enumerate the same n many
    times in a row, so the last matrix is kept."""
    truths = (np.arange(1 << n)[:, None] & (1 << np.arange(n))) != 0
    truths.flags.writeable = False
    return truths


@functools.lru_cache(maxsize=1)
def _plan_pass(plan: NestedPlan) -> AdaptiveRunResult:
    """The test count and recovered vector of ``plan`` on every truth in
    :func:`_truth_matrix` order, shortcut off, as read-only arrays.  Both
    plan oracles read this one pass.  A plan's index fields are read-only
    int64 arrays, and plans hash and compare by their values, so the last
    plan's pass also serves an equal plan built again."""
    result = run_adaptive(plan, _truth_matrix(plan.n), eps=0.0)
    result.tests.flags.writeable = result.recovered.flags.writeable = False
    return result


def exact_expected_tests(plan: NestedPlan, p: PriorVector) -> ExactExpectation:
    """Exact expected test count of a plan: run the executor on every truth
    vector, in one block, and weight by the prior."""
    n = p.n
    if plan.n != n:
        raise ValueError("plan and prior disagree on the universe size")
    if n > MAX_PLAN_ITEMS:
        raise ValueError(f"exhaustive enumeration capped at {MAX_PLAN_ITEMS} items")
    total = math.fsum((_truth_weights(p) * _plan_pass(plan).tests).tolist())
    return ExactExpectation(value=total, terms=1 << n)


# Truth vectors measured per matrix product, so that each product stays
# small however many rows the matrix has.
_TRUTH_CHUNK = 1 << 12


def _decode_all(m: TestMatrix, truths: np.ndarray) -> np.ndarray:
    """COMP estimates of ``m`` for every row of a (T, n) truth matrix, as
    :func:`run_nonadaptive` gives them one truth at a time, from two
    products with the 0/1 incidence matrix.  A float32 sum of ones is zero
    exactly when no term is one, so rounding never flips a row or an item."""
    incidence = np.zeros((m.n, m.t), dtype=np.float32)
    incidence[m.indices, np.repeat(np.arange(m.t), np.diff(m.indptr))] = 1.0
    negative = truths.astype(np.float32) @ incidence == 0.0
    cleared = negative.astype(np.float32) @ incidence.T > 0.0
    cleared[:, list(m.zero_assigned)] = True
    return ~cleared


@dataclass(frozen=True)
class DecodeCheck:
    passed: bool
    error_probability: float | None = None

    def __bool__(self) -> bool:
        return self.passed


def exhaustive_decode_check(target: NestedPlan | TestMatrix, p: PriorVector) -> DecodeCheck:
    """Full truth-vector decode audit.

    For a plan: exact recovery must hold for every truth vector (shortcut
    disabled); requires every covered item to sit in a tree, so priors with
    entries exactly 0 or 1 are out of scope.  For a matrix: recovery must
    never miss a defective outside the pre-cleared set, and the exact
    full-vector error probability is returned.
    """
    n = p.n
    if isinstance(target, NestedPlan):
        if target.n != n:
            raise ValueError("plan and prior disagree on the universe size")
        if n > MAX_PLAN_ITEMS:
            raise ValueError(f"plan enumeration capped at {MAX_PLAN_ITEMS} items")
        return DecodeCheck(passed=np.array_equal(_plan_pass(target).recovered, _truth_matrix(n)))

    if isinstance(target, TestMatrix):
        if target.n != n:
            raise ValueError("matrix and prior disagree on the universe size")
        if n > MAX_MATRIX_ITEMS:
            raise ValueError(f"matrix enumeration capped at {MAX_MATRIX_ITEMS} items")
        truths = _truth_matrix(n)
        recovered = np.concatenate(
            [_decode_all(target, truths[a : a + _TRUTH_CHUNK]) for a in range(0, len(truths), _TRUTH_CHUNK)]
        )
        checked = np.ones(n, dtype=bool)
        checked[list(target.zero_assigned)] = False
        if (truths & ~recovered & checked).any():
            return DecodeCheck(passed=False)
        wrong = (recovered != truths).any(axis=1)
        return DecodeCheck(passed=True, error_probability=math.fsum(_truth_weights(p)[wrong].tolist()))

    raise TypeError(f"expected a NestedPlan or TestMatrix, got {type(target).__name__}")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def run_all_checks(seed: int = 20240801) -> list[CheckResult]:
    """The oracle battery used by the command-line front end."""
    from .adaptive import build_plan
    from .bounds import adaptive_expected_upper
    from .nonadaptive import build_cca_matrix
    from .priors import generate_prior

    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    def record(name: str, fn) -> None:
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))

    def lemma1_audit():
        bad = 0
        for _ in range(10_000):
            k = int(rng.integers(1, 9))
            ps = rng.uniform(0.001, 0.6, size=k)
            if not check_lemma1(ps):
                bad += 1
        return bad == 0, f"{bad} violations in 10000 random instances"

    def lemma2_range():
        for n in range(1, 21):
            lhs, rhs = check_lemma2(n)
            if lhs != rhs:
                return False, f"mismatch at n={n}"
        return True, "exact equality for n=1..20"

    def stopping_identity():
        for n in range(1, 13):
            value = exact_stopping_time([1.0 / n] * n)
            harmonic = n * math.fsum(1.0 / r for r in range(1, n + 1))
            if abs(value - harmonic) > 1e-9:
                return False, f"identity off by {abs(value - harmonic):.3g} at n={n}"
        return True, "matches n * H_n to 1e-9 for n=1..12"

    def expectation_bound():
        for _ in range(10):
            k = int(rng.integers(4, 11))
            p = PriorVector(tuple(rng.uniform(0.05, 0.45, size=k)))
            for construction in ("max_entropy", "huffman"):
                plan = build_plan(p, construction)
                et = exact_expected_tests(plan, p).value
                if et > adaptive_expected_upper(p):
                    return False, f"E[T]={et:.4f} exceeds bound for n={k} ({construction})"
        return True, "expected tests within 2H+2mu on 10 random priors"

    def decode_exactness():
        for _ in range(5):
            k = int(rng.integers(2, 11))
            p = PriorVector(tuple(rng.uniform(0.02, 0.98, size=k)))
            plan = build_plan(p, "max_entropy")
            if not exhaustive_decode_check(plan, p):
                return False, f"adaptive decode mismatch at n={k}"
        p = generate_prior("uniform", 10, 1.0)
        m = build_cca_matrix(p, t=5, g=4, seed=seed)
        check = exhaustive_decode_check(m, p)
        if not check:
            return False, "matrix decode missed a defective"
        return True, "adaptive exact; matrix one-sided"

    record("lemma1_randomized_audit", lemma1_audit)
    record("lemma2_exact_rational", lemma2_range)
    record("stopping_time_harmonic_identity", stopping_identity)
    record("expected_tests_bound", expectation_bound)
    record("exhaustive_decode", decode_exactness)
    return results
