"""Prior probability vectors and the generators used by the experiment harness.

Every item i of a population carries an independent probability ``p_i`` of
being defective.  This module owns the vector of those probabilities, held
as one read-only float64 array, its two summary statistics (expected number
of defectives and total binary entropy), the check that a population's
states, a truth, are a bool array of the right length, and deterministic
generators for the three experimental families: uniform, linear, and
exponential.

One shared rule lives here too: :class:`ValueEq` gives priors, plans and
test matrices compare-and-hash by value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

PRIOR_FAMILIES = ("uniform", "linear", "exponential")
DEFAULT_EXPONENTIAL_DECAY = 0.99
INT64_MAX = (1 << 63) - 1


def whole_number(name: str, value, least: int = 1, most: float = INT64_MAX) -> int:
    """``value`` as an int in [least, most]: an int (numpy's too) or a float
    with no fractional part, not a bool or a string.  Sizes default to what
    an int64 holds, since they size numpy arrays and loops."""
    given = value
    if isinstance(value, float) and value.is_integer() or isinstance(value, np.integer):
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or not least <= value <= most:
        raise ValueError(f"{name} must be a whole number in [{least}, {most}], got {given!r}")
    return value


def index_array(name: str, value) -> np.ndarray:
    """``value`` as a 1-D, read-only int64 array of its own.  Its values must
    be integers that int64 holds: floats and bools are refused, not
    truncated, and an empty sequence gives the empty array."""
    beyond = f"{name} holds an index beyond int64"
    if isinstance(value, np.ndarray) and value.dtype.kind in "iu":
        # A cast from uint64 wraps silently.
        if value.dtype.kind == "u" and value.size and value.max() > INT64_MAX:
            raise ValueError(beyond)
        arr = value.astype(np.int64)
    else:
        # numpy reads bools among ints as ints, and ints beyond int64 as
        # floats or objects, so entries are checked by type and converted to
        # int64 directly.
        types = set(map(type, value if np.iterable(value) else (value,)))
        if not all(issubclass(t, (int, np.integer)) and t is not bool for t in types):
            raise ValueError(f"{name} must hold integers, got {sorted(t.__name__ for t in types)}")
        try:
            arr = np.array(value, dtype=np.int64)
        except OverflowError:
            raise ValueError(beyond) from None
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    arr.flags.writeable = False
    return arr


def truth_array(n: int, value, block: bool = False) -> np.ndarray:
    """``value`` as a 1-D bool array of length n, the states of n items
    (True = defective), or with ``block`` also as a (T, n) bool array of T
    truths.  Any other dtype or shape is refused, not cast, so an int or a
    float such as 0.5 is never read as defective."""
    arr = np.asarray(value)
    if arr.dtype != np.bool_ or arr.shape[-1:] != (n,) or arr.ndim != 1 and not (block and arr.ndim == 2):
        shape = f"({n},) or (T, {n})" if block else f"({n},)"
        raise ValueError(f"a truth must be a bool array of shape {shape}, got {arr.dtype} {arr.shape}")
    return arr


class ValueEq:
    """Compare and hash a frozen dataclass by value: objects of the same
    class are equal when their fields are, array fields compared by their
    bytes.  Objects of other classes are never equal to it.  A class with an
    unhashable field sets ``__hash__ = None``."""

    def _key(self) -> tuple:
        values = (getattr(self, f.name) for f in fields(self))
        return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in values)

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


def json_number(name: str, value) -> float:
    """``value`` as a float: a JSON number, that is an int or a float, not a
    bool or a numeric string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must fit in a float, got {value!r}") from None


def json_list(name: str, value) -> list:
    """``value`` if it is a JSON list: a string, an object or a number is
    refused, not read as a sequence of its characters, keys or digits."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a JSON list, got {value!r}")
    return value


def binary_entropy(p: float) -> float:
    """Entropy in bits of a Bernoulli(p) variable, with h(0) = h(1) = 0."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


@dataclass(frozen=True, eq=False)
class PriorVector(ValueEq):
    """Per-item defect probabilities, indexed by item ids 0..n-1.

    ``probs`` is one read-only float64 array, copied from what is given
    (a -0.0 is held as 0.0), and priors compare and hash by its bytes, that
    is by value.  The derived statistics are cached.  Entropy is
    accumulated with ``math.fsum`` so it is exactly rounded and therefore
    independent of item order.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=np.float64)
        if arr.ndim != 1 or len(arr) < 1:
            raise ValueError("prior vector must contain at least one item")
        bad = np.flatnonzero(~((arr >= 0.0) & (arr <= 1.0)))  # NaN fails both
        if len(bad):
            raise ValueError(f"probability out of [0, 1] at item {bad[0]}: {arr[bad[0]]}")
        arr += 0.0  # -0.0 becomes 0.0, so equal values have equal bytes
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def n(self) -> int:
        return len(self.probs)

    @cached_property
    def mu(self) -> float:
        """Expected number of defective items, sum of all p_i."""
        return math.fsum(self.probs.tolist())

    @cached_property
    def entropy_bits(self) -> float:
        """Total entropy in bits, sum of the per-item binary entropies.

        Each distinct probability strictly between 0 and 1 is evaluated once,
        with :func:`binary_entropy`'s ``math.log2`` and IEEE products and
        difference, so its term is that function's bit for bit; ``math.fsum``
        then adds one copy per item, exactly."""
        values, counts = np.unique(self.probs, return_counts=True)
        inner = (values > 0.0) & (values < 1.0)
        p, q = values[inner], 1.0 - values[inner]
        log_p, log_q = (np.fromiter(map(math.log2, x.tolist()), np.float64, len(x)) for x in (p, q))
        terms = (-p) * log_p - q * log_q
        return math.fsum(np.repeat(terms, counts[inner]).tolist())

    @cached_property
    def max_prob(self) -> float:
        return float(self.probs.max())

    def restricted_mu(self, items) -> float:
        """Sum of p_i over ``items``, exactly rounded."""
        return math.fsum(self.probs[np.asarray(items, dtype=np.int64)].tolist())


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
    ``n`` is a whole number of at least 1 (3.0 reads as 3; a bool, 2.5 or
    a string is refused).  Parameters that would force any entry to 1/2 or
    above are rejected.
    """
    if family not in PRIOR_FAMILIES:
        raise ValueError(f"unknown prior family {family!r}; expected one of {PRIOR_FAMILIES}")
    n = whole_number("n", n)
    if not (0.0 < target_mu < n / 2):
        raise ValueError(f"target_mu must lie in (0, n/2); got {target_mu} with n={n}")

    if family == "uniform":
        probs = np.full(n, target_mu / n)
    elif family == "linear":
        total = n * (n + 1) / 2
        probs = target_mu * np.arange(1, n + 1) / total
    else:
        if not (0.0 < rho < 1.0):
            raise ValueError(f"exponential decay must lie in (0, 1); got {rho}")
        weights = rho ** np.arange(n)
        probs = target_mu * weights / weights.sum()

    worst = probs.max()
    if worst >= 0.5:
        raise ValueError(
            f"parameters produce an entry >= 1/2 (max p_i = {worst:.6g}); "
            "reduce target_mu or flatten the family"
        )
    return PriorVector(probs)


def prior_from_json_dict(data: dict) -> PriorVector:
    """Parse either an explicit {"probs": [...]} vector or a generator spec
    {"family": ..., "n": ..., "mu": ..., "rho"?: ...}.  ``probs`` must be a
    JSON list, and probabilities, mu and rho JSON numbers: anything else,
    numeric strings and booleans included, raises ValueError."""
    try:
        if "probs" in data:
            return PriorVector([json_number(f"probs[{i}]", x) for i, x in enumerate(json_list("probs", data["probs"]))])
        if "family" in data:
            rho = json_number("rho", data.get("rho", DEFAULT_EXPONENTIAL_DECAY))
            mu = json_number("mu", data["mu"])
            return generate_prior(data["family"], data["n"], mu, rho=rho)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed prior JSON: {exc!r}") from exc
    raise ValueError("prior spec needs either a 'probs' list or a 'family' generator block")


def load_prior(path: str) -> PriorVector:
    with open(path, "r", encoding="utf-8") as fh:
        return prior_from_json_dict(json.load(fh))
