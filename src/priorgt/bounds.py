"""Closed-form test-count endpoints for the five recovery guarantees.

Each calculator returns a report carrying the test bound, the error
probability the guarantee allows, and whether the guarantee's preconditions
hold for the given prior.  T3, T4 and T5 are each a budget, a raw error and
a list of preconditions, made a report by :func:`_report`, which clamps an
error expression that exceeds one for small slack values to [0, 1] and
keeps the raw value in the notes.

Logarithm conventions: entropies are in bits (log base 2); the sampled-design
budget uses the natural log of n.

:func:`check_delta` is the one slack rule: delta must be positive and finite,
and no T3, T4 or T5 budget may overflow.  :func:`sampled_budget` is T4's
4e (1+delta) mu ln n; rounded up, it is the row count of the sampled design
and of each block design band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .partition import is_skewed, measure_factor
from .priors import PriorVector

THEOREM_TAGS = ("T1", "T2", "T3", "T4", "T5")

# Smallest slack the concentration argument supports.
MIN_CONCENTRATION_DELTA = 2.0 * math.e - 1.0


@dataclass(frozen=True)
class BoundReport:
    theorem: str
    test_bound: float
    error_bound: float
    applicable: bool
    notes: str = ""

    def __post_init__(self):
        if self.theorem not in THEOREM_TAGS:
            raise ValueError(f"unknown theorem tag {self.theorem!r}")
        if not (0.0 <= self.error_bound <= 1.0):
            raise ValueError("error_bound must be clamped to [0, 1]")


def check_delta(delta: float) -> float:
    """``delta`` if it is a usable slack, positive and finite; NaN and inf
    are refused."""
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    return delta


def _budget(tag: str, scale: float, delta: float, *factors: float) -> float:
    """scale (1+delta) times the factors, left to right; refused when delta
    is not a usable slack or the product overflows."""
    budget = math.prod(factors, start=scale * (1.0 + check_delta(delta)))
    if not math.isfinite(budget):
        raise ValueError(f"{tag} test budget overflows at delta={delta!r}")
    return budget


def sampled_budget(mu: float, n: int, delta: float) -> float:
    """T4's budget 4e (1+delta) mu ln n for n items of mass mu; it is 0 rows
    exactly when mu = 0 or n = 1, since ln 1 = 0."""
    return _budget("T4", 4.0 * math.e, delta, mu, math.log(n))


def _clamp_error(raw: float) -> tuple[float, str]:
    if raw > 1.0:
        return 1.0, f"error bound clamped from raw {raw:.6g} (vacuous)"
    if raw < 0.0:
        return 0.0, f"error bound clamped from raw {raw:.6g}"
    return raw, ""


def _report(tag: str, test_bound: float, raw_error: float, conditions: list[tuple[bool, str]]) -> BoundReport:
    """A guarantee's report: inapplicable exactly when a ``(failed, note)``
    condition holds, noting the failed ones in order, then the error's clamp."""
    error, clamp_note = _clamp_error(raw_error)
    notes = [note for failed, note in conditions if failed]
    return BoundReport(tag, test_bound, error, not notes, "; ".join(filter(None, [*notes, clamp_note])))


def lower_bound(p: PriorVector, pe: float) -> float:
    """Minimum test count (1 - pe) * H(X) any scheme needs at average error
    probability pe."""
    if not (0.0 <= pe < 1.0):
        raise ValueError("pe must lie in [0, 1)")
    return (1.0 - pe) * p.entropy_bits


def adaptive_expected_upper(p: PriorVector) -> float:
    """Expected-test ceiling 2 H(X) + 2 mu for the nested plans."""
    return 2.0 * p.entropy_bits + 2.0 * p.mu


def adaptive_concentration(p: PriorVector, eps: float, delta: float) -> BoundReport:
    """High-probability ceiling 4 (1+delta) (gamma+3) H(X) for the
    pre-partitioned nested plan; needs slack delta >= 2e-1 and a non-skewed
    prior."""
    gamma = measure_factor(p.n, eps)
    test_bound = _budget("T3", 4.0, delta, gamma + 3, p.entropy_bits)
    decay = (p.n / p.mu) ** (-(1.0 + delta) * p.mu) if p.mu > 0.0 else 1.0
    conditions = [(delta < MIN_CONCENTRATION_DELTA, f"delta below {MIN_CONCENTRATION_DELTA:.6g}"),
                  (is_skewed(p, eps), "prior is skewed")]
    return _report("T3", test_bound, decay + eps / 2.0, conditions)


def cca_upper(p: PriorVector, delta: float) -> BoundReport:
    """Sampled-design budget 4e (1+delta) mu ln n with error n**-delta; needs
    every prior probability below 1/2."""
    conditions = [(p.max_prob >= 0.5, "some p_i is at least 1/2")]
    return _report("T4", sampled_budget(p.mu, p.n, delta), float(p.n) ** (-delta), conditions)


def block_upper(p: PriorVector, eps: float, delta: float) -> BoundReport:
    """Block-design budget (12e+2) (1+delta) H(X) with error
    2 gamma**(1-delta) + eps/2; needs probabilities below 1/2 and a
    non-skewed prior.  The error term is informative only for delta > 1."""
    gamma = measure_factor(p.n, eps)
    test_bound = _budget("T5", 12.0 * math.e + 2.0, delta, p.entropy_bits)
    conditions = [(p.max_prob >= 0.5, "some p_i is at least 1/2"), (is_skewed(p, eps), "prior is skewed")]
    return _report("T5", test_bound, 2.0 * float(gamma) ** (-delta + 1.0) + eps / 2.0, conditions)


def all_reports(p: PriorVector, eps: float, delta: float, pe: float = 0.0) -> list[BoundReport]:
    """The five reports in tag order, for table output."""
    return [
        BoundReport("T1", lower_bound(p, pe), pe, True, "information lower bound"),
        BoundReport("T2", adaptive_expected_upper(p), 0.0, True, "expectation bound"),
        adaptive_concentration(p, eps, delta),
        cca_upper(p, delta),
        block_upper(p, eps, delta),
    ]
