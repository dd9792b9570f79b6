"""Prior probability vectors and the generators used by the experiment harness.

Every item i of a population carries an independent probability ``p_i`` of
being defective.  This module owns the vector of those probabilities, its two
summary statistics (expected number of defectives and total binary entropy),
the bit vector that holds a population's states, and deterministic
generators for the three experimental families: uniform, linear, and
exponential.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

PRIOR_FAMILIES = ("uniform", "linear", "exponential")
DEFAULT_EXPONENTIAL_DECAY = 0.99
INT64_MAX = (1 << 63) - 1


def whole_number(name: str, value, least: int = 1, most: float = INT64_MAX) -> int:
    """``value`` as an int in [least, most]: an int or a float with no
    fractional part, not a bool or a string.  Sizes default to what an int64
    holds, since they size numpy arrays and loops."""
    given = value
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or not least <= value <= most:
        raise ValueError(f"{name} must be a whole number in [{least}, {most}], got {given!r}")
    return value


def json_number(name: str, value) -> float:
    """``value`` as a float: a JSON number, that is an int or a float, not a
    bool or a numeric string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must fit in a float, got {value!r}") from None


def binary_entropy(p: float) -> float:
    """Entropy in bits of a Bernoulli(p) variable, with h(0) = h(1) = 0."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


@dataclass(frozen=True)
class PriorVector:
    """Per-item defect probabilities, indexed by item ids 0..n-1.

    Immutable after construction; the derived statistics are cached.  Entropy
    is accumulated with ``math.fsum`` so it is exactly rounded and therefore
    independent of item order.
    """

    probs: tuple[float, ...]

    def __post_init__(self):
        arr = np.array(self.probs, dtype=np.float64)
        if arr.ndim != 1 or len(arr) < 1:
            raise ValueError("prior vector must contain at least one item")
        bad = np.flatnonzero(~((arr >= 0.0) & (arr <= 1.0)))  # NaN fails both
        if len(bad):
            raise ValueError(f"probability out of [0, 1] at item {bad[0]}: {arr[bad[0]]}")
        arr.flags.writeable = False
        object.__setattr__(self, "probs", tuple(arr.tolist()))
        object.__setattr__(self, "_array", arr)

    @property
    def n(self) -> int:
        return len(self.probs)

    @cached_property
    def mu(self) -> float:
        """Expected number of defective items, sum of all p_i."""
        return math.fsum(self.probs)

    @cached_property
    def entropy_bits(self) -> float:
        """Total entropy in bits, sum of the per-item binary entropies."""
        return math.fsum(binary_entropy(p) for p in self.probs)

    @cached_property
    def max_prob(self) -> float:
        return max(self.probs)

    def as_array(self) -> np.ndarray:
        """The probabilities as one read-only float64 array, built once."""
        return self._array

    def restricted_mu(self, items: Iterable[int]) -> float:
        """Sum of p_i over ``items``, exactly rounded."""
        return math.fsum(self._array[np.fromiter(items, dtype=np.int64)].tolist())


class PopulationVector:
    """A defectiveness vector (1 = defective): a truth or a decoder's estimate.

    Stored as a read-only numpy bool array; ``bits`` gives a tuple view.
    """

    def __init__(self, bits):
        arr = np.array(bits, dtype=bool)
        if arr.ndim != 1:
            raise ValueError("a population vector is one-dimensional")
        arr.flags.writeable = False
        self._bits = arr

    @property
    def n(self) -> int:
        return len(self._bits)

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(self._bits.view(np.uint8).tolist())

    def as_array(self) -> np.ndarray:
        return self._bits

    def matches(self, other: "PopulationVector") -> bool:
        return np.array_equal(self._bits, other._bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, PopulationVector) and self.matches(other)


def generate_prior(
    family: str,
    n: int,
    target_mu: float,
    rho: float = DEFAULT_EXPONENTIAL_DECAY,
) -> PriorVector:
    """Build one of the three experimental prior families.

    uniform:      p_i = target_mu / n for every item.
    linear:       p_i proportional to i + 1, scaled to sum target_mu.
    exponential:  p_i proportional to rho**i, scaled to sum target_mu.

    Generation is fully deterministic given (family, n, target_mu, rho).
    Parameters that would force any entry to 1/2 or above are rejected.
    """
    if family not in PRIOR_FAMILIES:
        raise ValueError(f"unknown prior family {family!r}; expected one of {PRIOR_FAMILIES}")
    if n < 1:
        raise ValueError("n must be at least 1")
    if not (0.0 < target_mu < n / 2):
        raise ValueError(f"target_mu must lie in (0, n/2); got {target_mu} with n={n}")

    if family == "uniform":
        probs = [target_mu / n] * n
    elif family == "linear":
        total = n * (n + 1) / 2
        probs = [target_mu * (i + 1) / total for i in range(n)]
    else:
        if not (0.0 < rho < 1.0):
            raise ValueError(f"exponential decay must lie in (0, 1); got {rho}")
        weights = rho ** np.arange(n)
        probs = list(target_mu * weights / weights.sum())

    worst = max(probs)
    if worst >= 0.5:
        raise ValueError(
            f"parameters produce an entry >= 1/2 (max p_i = {worst:.6g}); "
            "reduce target_mu or flatten the family"
        )
    return PriorVector(tuple(probs))


def prior_to_json_dict(p: PriorVector) -> dict:
    """Serializable form; float repr is shortest-roundtrip, so probabilities
    survive a write/read cycle bit-for-bit."""
    return {"probs": list(p.probs)}


def prior_from_json_dict(data: dict) -> PriorVector:
    """Parse either an explicit {"probs": [...]} vector or a generator spec
    {"family": ..., "n": ..., "mu": ..., "rho"?: ...}.  Probabilities, mu
    and rho must be JSON numbers: numeric strings and booleans raise
    ValueError."""
    try:
        if "probs" in data:
            return PriorVector(tuple(json_number(f"probs[{i}]", x) for i, x in enumerate(data["probs"])))
        if "family" in data:
            rho = json_number("rho", data.get("rho", DEFAULT_EXPONENTIAL_DECAY))
            mu = json_number("mu", data["mu"])
            return generate_prior(data["family"], whole_number("n", data["n"]), mu, rho=rho)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed prior JSON: {exc!r}") from exc
    raise ValueError("prior spec needs either a 'probs' list or a 'family' generator block")


def load_prior(path: str) -> PriorVector:
    with open(path, "r", encoding="utf-8") as fh:
        return prior_from_json_dict(json.load(fh))
