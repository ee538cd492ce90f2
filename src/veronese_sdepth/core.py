"""Circular subsets of [n], their scalar masks, the package's caps, and
the closed-form quantities attached to (n, d).

Subsets of [n] are masks with bit i-1 standing for element i: ``mask_of``
and ``members_of`` convert, ``submasks`` walks an interval.  ``bitops``
holds the numpy kernels over arrays of such masks.  Nothing here imports
numpy, so the oracle and the block structures run without it.

Everything here is exact integer arithmetic.  Floor-of-square-root
expressions are evaluated with ``math.isqrt`` rather than floating point:
the regime boundaries are exact integer statements, and a float rounding
error at a perfect square (e.g. 5 + 4d = 9) would misclassify an instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import isqrt
from typing import Iterable, Iterator

from .errors import (
    InternalCheckError,
    PreconditionViolatedError,
    UniverseMismatchError,
)


# The widest universe a mask array holds (uint64).
MAX_UNIVERSE = 64

DEFAULT_SWEEP_CAP = 5_000_000

# The largest n that ``verify.select_build`` gives the construction rather
# than the layered build; 2^26 also bounds the construction's sweep.
MATERIALIZE_LIMIT = 26


def mask_of(members) -> int:
    """The mask of an iterable of 1-indexed members."""
    m = 0
    for x in members:
        m |= 1 << (x - 1)
    return m


def members_of(mask: int) -> list[int]:
    """The 1-indexed members of ``mask`` in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def submasks(lower: int, upper: int) -> Iterator[int]:
    """Every mask C with lower <= C <= upper, from ``upper`` down to
    ``lower``; ``lower`` must be a submask of ``upper``."""
    diff = upper & ~lower
    sub = diff
    while True:
        yield lower | sub
        if not sub:
            return
        sub = (sub - 1) & diff


def _check_nd(n: int, d: int) -> None:
    if d < 1 or d > n:
        raise PreconditionViolatedError(f"need 1 <= d <= n, got n={n}, d={d}")


@dataclass(frozen=True)
class CircularSet:
    """A subset of {1, ..., universe} viewed on the circular representation.

    The universe is part of the value: the same member set over different
    universes compares unequal, because sets are constantly moved between
    circles of different sizes.
    """

    universe: int
    members: tuple[int, ...]
    mask: int = field(init=False, compare=False, repr=False)

    def __init__(self, universe: int, members: Iterable[int] = ()):
        if universe < 1:
            raise ValueError(f"universe must be positive, got {universe}")
        norm = tuple(sorted(set(members)))
        if norm and (norm[0] < 1 or norm[-1] > universe):
            raise ValueError(f"members {norm} not within [1, {universe}]")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "members", norm)
        object.__setattr__(self, "mask", mask_of(norm))

    @classmethod
    def from_mask(cls, universe: int, mask: int) -> "CircularSet":
        return cls(universe, members_of(mask))

    @classmethod
    def parse(cls, universe: int, text: str) -> "CircularSet":
        """Parse the comma-separated serialization, e.g. ``"1,3,7"``."""
        text = text.strip()
        if not text:
            return cls(universe, ())
        return cls(universe, (int(p) for p in text.split(",")))

    def serialize(self) -> str:
        return ",".join(str(x) for x in self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, x: int) -> bool:
        return 1 <= x <= self.universe and bool(self.mask >> (x - 1) & 1)

    def is_subset_of(self, other: "CircularSet") -> bool:
        self._same_universe(other)
        return self.mask & ~other.mask == 0

    def union(self, other: "CircularSet") -> "CircularSet":
        self._same_universe(other)
        return CircularSet.from_mask(self.universe, self.mask | other.mask)

    def rotate(self, t: int) -> "CircularSet":
        """Shift every member clockwise by ``t`` positions (mod universe)."""
        u = self.universe
        return CircularSet(u, ((x - 1 + t) % u + 1 for x in self.members))

    def _same_universe(self, other: "CircularSet") -> None:
        if self.universe != other.universe:
            raise UniverseMismatchError(
                f"universe {self.universe} vs {other.universe}"
            )


@dataclass(frozen=True)
class CircularBlock:
    """A run of consecutive positions on the circle, wrapping modulo universe.

    ``[i, j]`` denotes the ``length`` positions clockwise from ``start``.
    """

    universe: int
    start: int
    length: int

    def __post_init__(self):
        if not 1 <= self.start <= self.universe:
            raise ValueError(f"start {self.start} outside [1, {self.universe}]")
        if not 1 <= self.length <= self.universe:
            raise ValueError(f"length {self.length} outside [1, {self.universe}]")

    @property
    def end(self) -> int:
        return (self.start - 1 + self.length - 1) % self.universe + 1

    def positions(self) -> Iterator[int]:
        u = self.universe
        s = self.start - 1
        for k in range(self.length):
            yield (s + k) % u + 1

    def __len__(self) -> int:
        return self.length

    def __contains__(self, x: int) -> bool:
        off = (x - self.start) % self.universe
        return off < self.length

    def render(self) -> str:
        return f"[{self.start}..{self.end}]"


class Regime(str, Enum):
    """Which construction applies to an (n, d) instance."""

    TRIVIAL_RANGE = "TrivialRange"
    K1 = "K1"
    K2 = "K2"
    MID = "Mid"
    LARGE = "Large"


@dataclass(frozen=True)
class RegimeDecomposition:
    """The unique decomposition n = (d+1)k + d + r with 0 <= r <= d.

    For d <= n <= 2d no decomposition with k >= 1 exists; those instances
    carry k = 0, r = n - d and the TrivialRange tag.
    """

    n: int
    d: int
    k: int
    r: int
    regime: Regime


def conjectured_sdepth(n: int, d: int) -> int:
    """floor(C(n,d+1)/C(n,d)) + d, computed exactly as floor((n-d)/(d+1)) + d.

    The two expressions agree identically because
    C(n,d+1)/C(n,d) = (n-d)/(d+1).
    """
    _check_nd(n, d)
    return (n - d) // (d + 1) + d


def sdepth_upper_bound(n: int, d: int) -> int:
    """The known ceiling on the minimum upper-endpoint size of any interval
    partition of the (n, d) poset.  Numerically equal to
    ``conjectured_sdepth``; kept separate because it plays a different role
    (no verified partition may ever exceed it)."""
    return conjectured_sdepth(n, d)


def _half_odd_sqrt_floor(x: int) -> int:
    """Largest integer t with (2t - 1)^2 <= x, i.e. floor((1 + sqrt(x)) / 2)."""
    return (isqrt(x) + 1) // 2


def threshold(d: int) -> int:
    """Largest n for which the layered construction reaches the conjectured
    value: (d+1) * floor((1 + sqrt(5+4d)) / 2) + 2d."""
    if d < 1:
        raise PreconditionViolatedError(f"need d >= 1, got {d}")
    return (d + 1) * _half_odd_sqrt_floor(5 + 4 * d) + 2 * d


def lower_bound_large_n(n: int, d: int) -> int:
    """floor((d + sqrt(d^2 + 4(n+1))) / 2), the certified lower bound beyond
    the threshold.  Equals d + 1 + large_n_density_shift(n, d) there."""
    _check_nd(n, d)
    return (d + isqrt(d * d + 4 * (n + 1))) // 2


def large_n_density_shift(n: int, d: int) -> int:
    """s = floor((-(d+2) + sqrt(d^2 + 4(n+1))) / 2) for n above the threshold.

    s is the number of filtered layers the large-n construction stacks on
    top of the base family; s + 1 is their common density.
    """
    _check_nd(n, d)
    if n <= threshold(d):
        raise PreconditionViolatedError(
            f"n={n} is not above threshold({d})={threshold(d)}"
        )
    s = (isqrt(d * d + 4 * (n + 1)) - (d + 2)) // 2
    # All three facts are forced by the choice of s; failure is a bug.
    if not (
        s >= 1
        and (s + 1) * (d + s + 1) <= n + 1
        and all(s + 1 <= (n + 1) // (d + q + 1) for q in range(1, s + 1))
    ):
        raise InternalCheckError(f"density shift s={s} inadmissible at n={n}, d={d}")
    return s


def regime_of(n: int, d: int) -> RegimeDecomposition:
    """Classify (n, d) and return the unique (k, r) decomposition."""
    _check_nd(n, d)
    if n <= 2 * d:
        return RegimeDecomposition(n, d, 0, n - d, Regime.TRIVIAL_RANGE)
    k, r = divmod(n - d, d + 1)
    if k == 1:
        tag = Regime.K1
    elif k == 2:
        tag = Regime.K2
    elif n <= threshold(d):
        tag = Regime.MID
    else:
        tag = Regime.LARGE
    return RegimeDecomposition(n, d, k, r, tag)


def k3_band_exact(n: int, d: int) -> int | None:
    """The exact value d + 3 on the band 4d+3 <= n <= 5d+3, or None outside.

    On this band the upper-bound formula equals d + 3, and a partition of
    minimum upper size d + 3 exists at the left end n = 4d+3; containment
    monotonicity carries the lower bound across the band.
    """
    _check_nd(n, d)
    if 4 * d + 3 <= n <= 5 * d + 3:
        return d + 3
    return None
