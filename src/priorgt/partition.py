"""Pre-partitioning of a prior vector into probability bands.

Items are sorted by probability and trimmed into three regions: a zero set
(probability at most eps/2n, declared non-defective without testing), a tail
(probability at least 1/2, tested individually), and a middle covered by
bands with repeatedly squared boundaries 1/2, 1/4, 1/16, ...  Squaring makes
every band well balanced: for members i, j of one band, p_i**2 <= p_j.  Bands
with fewer than ``gamma`` members lack the size needed for group-level
guarantees and are routed to individual testing as well.

The three regions are consecutive ranges of one stable sort of the items by
probability, so the zero set, the tail and every band's items are read-only
int64 slices of that one order.  Only a merged band, see
:func:`combine_for_concentration`, holds an array of its own.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .priors import PriorVector


def measure_factor(n: int, eps: float) -> int:
    """Granularity factor ceil(log2(log2(2n/eps))), at least 1.

    Controls both the number of probability bands and the minimum band size
    admitted to group testing.  Requires 2n/eps > 2 so the double logarithm
    is positive.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not eps > 0.0:  # also refuses NaN
        raise ValueError("eps must be positive")
    ratio = 2.0 * n / eps
    if ratio <= 2.0:
        raise ValueError(f"2n/eps must exceed 2 for the double log to be positive (got {ratio})")
    return max(1, math.ceil(math.log2(math.log2(ratio))))


def is_skewed(p: PriorVector, eps: float) -> bool:
    """True when the entropy budget is too small for concentration guarantees.

    A prior is skewed when H(X) <= max(2*mu, gamma**2); the pre-partitioned
    guarantees only hold on non-skewed inputs.  Callers may still run every
    algorithm on skewed priors; bound reports mark themselves inapplicable.
    """
    gamma = measure_factor(p.n, eps)
    return p.entropy_bits <= max(2.0 * p.mu, float(gamma * gamma))


@dataclass(frozen=True, eq=False)
class Band:
    """One middle subset: the items, a read-only int64 array in ascending
    order of probability, whose probability falls in [lo, hi)."""

    lo: float
    hi: float
    items: np.ndarray

    @property
    def size(self) -> int:
        return len(self.items)


@dataclass(frozen=True, eq=False)
class Partition:
    """Ordered classification of items into zero / band / individual routes.

    ``zero_items`` and ``tail_items`` are read-only int64 arrays in
    ascending order of probability.  ``num_combined`` and
    ``concentration_void`` are populated by
    :func:`combine_for_concentration`.
    """

    n: int
    eps: float
    gamma: int
    zero_items: np.ndarray
    bands: tuple[Band, ...]
    tail_items: np.ndarray
    num_combined: int | None = None
    concentration_void: bool = False

    def ample_bands(self) -> tuple[Band, ...]:
        return tuple(b for b in self.bands if b.size >= self.gamma)

    def individual_route(self) -> np.ndarray:
        """Items tested one at a time, as one int64 array: the under-sized
        bands' items, band by band, then the tail."""
        return np.concatenate([b.items for b in self.bands if b.size < self.gamma] + [self.tail_items])


def band_boundaries(n: int, eps: float) -> list[float]:
    """Descending boundaries 1/2, 1/4, 1/16, ... down to the first value at or
    below eps/2n.  Squaring powers of two is exact in floating point."""
    lo_cut = eps / (2.0 * n)
    bounds = [0.5]
    while bounds[-1] > lo_cut:
        bounds.append(bounds[-1] * bounds[-1])
    return bounds


def build_partition(p: PriorVector, eps: float) -> Partition:
    """Sort, trim, and band a prior vector.

    Items with probability exactly on a band boundary join the band above it;
    probability exactly 0 lands in the zero set and exactly 1 in the tail.
    Sorting is stable on (probability, item id) so the result is
    deterministic.
    """
    n = p.n
    gamma = measure_factor(n, eps)
    lo_cut = eps / (2.0 * n)
    probs = p.probs
    order = np.argsort(probs, kind="stable")
    order.flags.writeable = False
    ranked = probs[order]
    # Ascending probabilities: the zero set is a prefix and the tail a suffix.
    start, stop = int(ranked.searchsorted(lo_cut, side="right")), int(ranked.searchsorted(0.5))

    bounds = band_boundaries(n, eps)
    # Ascending band ranges [lo, hi); the lowest is clipped at eps/2n.  Every
    # hi lies above eps/2n, and the last is 1/2.
    ranges = [
        (max(bounds[k + 1], lo_cut), bounds[k])
        for k in reversed(range(len(bounds) - 1))
    ]
    ends = ranked.searchsorted([hi for _, hi in ranges]).tolist()
    bands = [Band(lo=lo, hi=hi, items=order[a:b]) for (lo, hi), a, b in zip(ranges, [start] + ends, ends) if b > a]

    return Partition(
        n=n,
        eps=eps,
        gamma=gamma,
        zero_items=order[:start],
        bands=tuple(bands),
        tail_items=order[stop:],
    )


def combine_for_concentration(part: Partition, p: PriorVector) -> Partition:
    """Merge leading ample bands until their probability mass reaches 1/2.

    Bands are consumed in ascending probability order.  ``num_combined``
    records how many were folded into the merged band, which takes the first
    one's place and holds their items in band order.  If the ample mass
    never reaches 1/2 the partition is returned structurally unchanged with
    ``concentration_void`` set; the concentration guarantee is then
    unavailable.  The merged band is not re-checked for balance: guarantees
    fall back on the band count staying below the measure factor.

    The running mass adds each band's exactly rounded sum (``math.fsum``)
    in turn, and a filter decides where it first reaches 1/2 from numpy's
    band sums instead.  A floating-point addition of nonnegative terms
    rounds by at most u = 2^-53 relative, and is exact at subnormal
    results, so with m items in the first j bands the two running masses
    lie within about 2 (m + j) u of each other, relative to the mass.  A
    numpy running mass that clears 1/2 by 4 (m + j) u of itself lies on the
    same side as the exact one; the exact per-band loop decides only when
    the first running mass that does not clear 1/2 from below lies within
    that margin of it.
    """
    ample = [k for k, b in enumerate(part.bands) if b.size >= part.gamma]
    mass = np.cumsum([p.probs[part.bands[k].items].sum() for k in ample])
    terms = np.cumsum([part.bands[k].size + 1 for k in ample])
    close = np.abs(mass - 0.5) <= 4.0 * 2.0**-53 * terms * mass
    settled = np.flatnonzero(close | (mass > 0.5))
    taken = int(settled[0]) + 1 if len(settled) else None
    if taken and close[taken - 1]:
        exact = itertools.accumulate(p.restricted_mu(part.bands[k].items) for k in ample)
        taken = next((j for j, total in enumerate(exact, 1) if total >= 0.5), None)
    if taken is None:
        return replace(part, num_combined=len(ample), concentration_void=True)
    if taken == 1:
        return replace(part, num_combined=1, concentration_void=False)

    first, *rest = absorbed = ample[:taken]
    items = np.concatenate([part.bands[k].items for k in absorbed])
    items.flags.writeable = False
    merged = Band(lo=part.bands[first].lo, hi=part.bands[rest[-1]].hi, items=items)
    bands = tuple(merged if k == first else b for k, b in enumerate(part.bands) if k not in rest)
    return replace(part, bands=bands, num_combined=taken, concentration_void=False)
