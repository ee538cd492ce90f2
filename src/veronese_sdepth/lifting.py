"""Lifting subsets of [n] into a larger circle and the interval families
that fall out.

A level set A of size ``level_size`` in [n] is padded with the run
n+1, ..., 2n - level_size to an n-set on the circle [m], m = (n+1)s + n.
Closing the lifted set at density s+1 and intersecting back with [n]
yields the interval [A, f(A~) & [n]] of upper size level_size + s.  One
interval per level set gives a pairwise-disjoint family with the closure
property: a set not covered by the family has no covered superset.

``closure_upper_mask`` is the one scalar lifted closure, checked against
``blocks.f_delta`` of the lifted set; ``closure_upper_masks`` computes the
upper endpoints of a whole batch of level sets at once and is checked
against it.  The disjointness predicates build their intervals from
``closure_upper_mask`` and ``f_delta``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import bitops
from .blocks import as_density, chain_walk, f_delta
from .core import CircularSet, mask_of, submasks
from .errors import (
    InternalCheckError,
    PreconditionViolatedError,
    SizeMismatchError,
    SOutOfRangeError,
    UniverseMismatchError,
)


@dataclass(frozen=True)
class LiftParams:
    """Validated parameters of one lift: circle sizes and multiplicity."""

    n: int
    level_size: int
    s: int
    m: int


def validate_lift_params(n: int, level_size: int, s: int) -> LiftParams:
    """Check admissibility of (n, level_size, s) and compute m = (n+1)s + n.

    s must satisfy s <= floor((n - level_size) / (level_size + 1)).  The
    lift's size facts then hold without a check: m > n and
    (s+1) * n <= m - 1 because s >= 1; (m - n) / (s + 1) <= n - level_size
    is s <= (n - level_size) / (level_size + 1) again; and
    n - level_size <= n - 1 < (n+1)s = m - n.
    """
    if not 1 <= level_size < n:
        raise PreconditionViolatedError(
            f"need 1 <= level_size < n, got level_size={level_size}, n={n}"
        )
    if s < 1:
        raise PreconditionViolatedError(f"need s >= 1, got {s}")
    cap = (n - level_size) // (level_size + 1)
    if s > cap:
        raise SOutOfRangeError(
            f"s={s} exceeds floor((n - level_size)/(level_size + 1)) = {cap}"
        )
    return LiftParams(n, level_size, s, (n + 1) * s + n)


@dataclass(frozen=True)
class PosetInterval:
    """The interval [lower, upper] = all sets C with lower <= C <= upper."""

    lower: CircularSet
    upper: CircularSet

    def __post_init__(self):
        if self.lower.universe != self.upper.universe:
            raise UniverseMismatchError(
                f"interval endpoints on different circles: "
                f"{self.lower.universe} vs {self.upper.universe}"
            )
        if not self.lower.is_subset_of(self.upper):
            raise PreconditionViolatedError(
                f"lower {self.lower.members} is not a subset of upper {self.upper.members}"
            )

    @property
    def universe(self) -> int:
        return self.lower.universe

    @property
    def volume(self) -> int:
        return 1 << (len(self.upper) - len(self.lower))

    def contains(self, c: CircularSet) -> bool:
        if c.universe != self.universe:
            raise UniverseMismatchError(
                f"universe {c.universe} vs {self.universe}"
            )
        return self.lower.mask & ~c.mask == 0 and c.mask & ~self.upper.mask == 0

    def intersects(self, other: "PosetInterval") -> bool:
        """Nonempty intersection test via the least common element: the
        intervals meet iff lower | lower' fits under both uppers."""
        both = self.lower.mask | other.lower.mask
        return both & ~self.upper.mask == 0 and both & ~other.upper.mask == 0

    def member_masks(self) -> Iterator[int]:
        return submasks(self.lower.mask, self.upper.mask)


def lift(a: CircularSet, params: LiftParams) -> CircularSet:
    """Pad ``a`` with the run n+1, ..., 2n - level_size inside [m]: its
    level_size members and the n - level_size padding members, all above
    n, make an n-set."""
    if a.universe != params.n:
        raise UniverseMismatchError(
            f"set lives on [{a.universe}], lift expects [{params.n}]"
        )
    if len(a) != params.level_size:
        raise SizeMismatchError(
            f"expected a set of size {params.level_size}, got {len(a)}"
        )
    n = params.n
    padded = a.members + tuple(range(n + 1, 2 * n - params.level_size + 1))
    return CircularSet(params.m, padded)


def closure_upper_mask(n: int, level_size: int, s: int, members: tuple[int, ...]) -> int:
    """The scalar lifted closure: the upper endpoint of [A, f(A~) & [n]] as
    a bitmask, read off the chain of the lifted set at density s + 1
    without building intermediate objects.  It equals
    ``f_delta(lift(A), s + 1).mask & (2^n - 1)`` and is the reference the
    batched ``closure_upper_masks`` is checked against.

    Checks the structural facts that make the construction sound: the
    closure of the lifted set has exactly n + s elements, none of the gap
    positions lands in the padding, and the upper endpoint has size
    level_size + s.
    """
    m = (n + 1) * s + n
    elems = list(members) + list(range(n + 1, 2 * n - level_size + 1))
    mask = mask_of(members)
    gap_total = 0
    for start, blen, glen in chain_walk(m, elems, s + 1, 1):
        if not glen:
            continue
        # A gap inside [n] is the run of bits gs .. gs + glen - 1.
        gs = (start - 1 + blen) % m
        if gs + glen > n:
            raise InternalCheckError(
                f"gap at position {gs + 1} of length {glen} leaves [1, {n}] (m={m})"
            )
        mask |= ((1 << glen) - 1) << gs
        gap_total += glen
    if len(elems) + gap_total != n + s:
        raise InternalCheckError(
            f"lifted closure has size {len(elems) + gap_total}, expected {n + s}"
        )
    if mask.bit_count() != level_size + s:
        raise InternalCheckError(
            f"upper endpoint has size {mask.bit_count()}, expected {level_size + s}"
        )
    return mask


def closure_upper_masks(
    n: int, level_size: int, s: int, sets: np.ndarray, lowers: np.ndarray
) -> np.ndarray:
    """Batched ``closure_upper_mask``: the upper masks of a chunk of level
    sets, given as a level_size x N array with one column of increasing
    members per set (as ``bitops.lex_combinations`` yields them) and as
    their masks ``lowers`` (``bitops.row_masks(sets, n)``).

    Walk the lifted circle with step +s at a member and -1 elsewhere; the
    steps sum to -s over [m].  A whole block sums to 0 and its proper
    prefixes are positive ((iii) and (iv) at density s + 1), so a position
    is a gap iff its prefix sum over the doubled circle falls below every
    earlier prefix value.  Non-member runs only descend, so the gaps of a
    run are its tail, as long as the running minimum drops across the
    run.  The running minimum only moves at the last position before a
    member; with ``pre[j]`` the prefix sum there for the j-th lifted member
    p_j, pre[j] = (s + 1)(j - 1) - (p_j - 1), and the second pass round the
    circle repeats it lowered by s.  Of the padding only its first member
    n + 1 matters: later padding members have higher ``pre`` and empty runs
    before them.  The cost is O(N x level_size), not O(N x m).

    The gaps before p_j are the run of g_j positions p_j - g_j .. p_j - 1,
    with g_j = second[j - 1] - second[j] and second[0] the first pass's
    minimum; as a mask that run is 2^(p_j - 1) - 2^(p_j - 1 - g_j).  The
    runs lie between consecutive members, so they are disjoint from each
    other and from the lower set, and with the padding as p_(L+1) = n + 1:

        uppers = 2 * lowers + 2^n - sum_j 2^(p_j - 1 - g_j)   (mod 2^w).

    Each term is one right shift by less than n, so no shift reaches the
    mask width w at n = 32 or 64: a member's term is 2^(n - 1) >>
    (n - p_j + g_j), and the padding's term and the 2^n together are
    (2^n - 1) - ((2^n - 1) >> g_(L+1)).  The prefix sums stay within
    +-130 for n <= 64, so every row before the shift is int16.

    Raises on the same structural facts as the scalar path: no gap outside
    [1, n], and upper size level_size + s, which bounds the gap total to s
    because the runs are disjoint.
    """
    # One row per member index: every pass below runs along whole
    # contiguous rows, and the running minimum is a loop over the rows,
    # which numpy runs far faster than ``np.minimum.accumulate`` along the
    # short axis.  Rows 1 .. level_size hold the members' prefix sums and
    # the last row the padding's; row 0 takes the first pass's minimum.
    top = level_size + 1
    pre = np.empty((top + 1, sets.shape[1]), dtype=np.int16)
    steps = (s + 1) * np.arange(top, dtype=np.int16) + 1
    np.subtract(steps[:level_size, None], sets, out=pre[1:top])
    pre[top] = steps[level_size] - (n + 1)
    for j in range(1, top):
        np.minimum(pre[j], pre[j + 1], out=pre[j + 1])
    # The last row is now the first pass's minimum round the circle; the
    # second pass is the running minimum lowered by s and capped by it.
    base = pre[top]
    pre[0] = base
    second = pre[1:top]
    np.subtract(second, s, out=second)
    np.minimum(second, base, out=second)
    base -= s
    gaps = np.subtract(pre[:-1], pre[1:])
    # Only the run wrapping round from the padding can leave [1, n].  A
    # tail reaching back past position 1 holds position m, which is judged
    # on the first pass against all of [0, m - 1], so the refusal is exact.
    bad = np.flatnonzero(gaps[0] >= sets[0])
    if bad.size:
        raise InternalCheckError(
            f"gap before position {int(sets[0, bad[0]])} leaves [1, {n}] "
            f"(m={(n + 1) * s + n}, set {tuple(sets[:, bad[0]].tolist())})"
        )
    # The members' gaps become their shifts n - p_j + g_j.
    gaps[:level_size] -= sets
    gaps[:level_size] += n
    dtype = bitops.mask_dtype(n)
    full = dtype((1 << n) - 1)
    heads = np.full((top, 1), 1 << (n - 1), dtype=dtype)
    heads[level_size] = full
    terms = gaps.astype(dtype)
    np.right_shift(heads, terms, out=terms)
    uppers = lowers + lowers
    uppers += full
    uppers -= terms.sum(axis=0, dtype=dtype)
    bad = np.flatnonzero(bitops.popcounts(uppers) != level_size + s)
    if bad.size:
        raise InternalCheckError(
            f"upper endpoint of {tuple(sets[:, bad[0]].tolist())} does not have "
            f"size {level_size + s}"
        )
    return uppers


class IntervalFamily:
    """A family of intervals with a common lower-endpoint size, stored as
    parallel lower and upper mask arrays in selection order."""

    def __init__(self, n: int, lowers: np.ndarray, uppers: np.ndarray):
        self.n = n
        self.lowers = lowers
        self.uppers = uppers

    def __len__(self) -> int:
        return len(self.lowers)

    def __iter__(self) -> Iterator[PosetInterval]:
        for lo, up in zip(self.lowers.tolist(), self.uppers.tolist()):
            yield PosetInterval(
                CircularSet.from_mask(self.n, lo), CircularSet.from_mask(self.n, up)
            )


def _interval_masks(n: int, family) -> tuple[np.ndarray, np.ndarray]:
    """The lower and upper masks of ``family`` as parallel arrays, in no
    particular order.  ``family`` is an ``IntervalFamily``, an iterable of
    them, or an iterable of ``PosetInterval``; every interval must live on
    [n]."""
    items = [family] if isinstance(family, IntervalFamily) else list(family)
    fams = [x for x in items if isinstance(x, IntervalFamily)]
    ivs = [x for x in items if not isinstance(x, IntervalFamily)]
    for universe in {f.n for f in fams} | {iv.universe for iv in ivs}:
        if universe != n:
            raise UniverseMismatchError(f"set on [{n}], family on [{universe}]")
    dtype = bitops.mask_dtype(n)
    lowers = [f.lowers for f in fams] + [np.array([iv.lower.mask for iv in ivs], dtype)]
    uppers = [f.uppers for f in fams] + [np.array([iv.upper.mask for iv in ivs], dtype)]
    return np.concatenate(lowers), np.concatenate(uppers)


def is_covered(dset: CircularSet, family) -> bool:
    """True iff some interval [A, B] of ``family`` has A <= dset <= B.

    ``family`` is an ``IntervalFamily``, an iterable of them, or an
    iterable of ``PosetInterval``; the answer does not depend on the order
    of the intervals or on how they are grouped.
    """
    lowers, uppers = _interval_masks(dset.universe, family)
    return bool(bitops.containing(lowers, uppers, dset.mask).any())


def check_superset_closure(dset: CircularSet, family) -> bool:
    """For an uncovered set D, True iff no proper superset of D is covered.

    No superset is enumerated: if D <= B for some interval [A, B] of the
    family, then S = D | A is a covered superset of D, and S != D because
    D is uncovered; conversely, a covered proper superset of D lies inside
    some upper endpoint B, and so does D.  The law therefore holds iff D
    lies under no upper endpoint.
    """
    if not isinstance(family, IntervalFamily):
        family = list(family)  # read a one-shot iterable once
    if is_covered(dset, family):
        raise PreconditionViolatedError(
            f"{dset.members} is covered; the closure check applies to uncovered sets"
        )
    _, uppers = _interval_masks(dset.universe, family)
    mask = uppers.dtype.type(dset.mask)
    return not np.any(mask & ~uppers == 0)


def check_mixed_density_disjoint(a: CircularSet, b: CircularSet, delta, eta) -> bool:
    """Disjointness of [A, f_delta(A)] and [B, f_eta(B)] at two densities.

    True iff the implication holds: whenever |f_eta(B)| - |B| <= eta - 1
    and A is not contained in B, the two intervals are disjoint.  Vacuously
    true when the hypothesis fails.  For two distinct sets of equal size
    at one density, ``check_mixed_density_disjoint(A', A, delta, delta)``
    is the tight-pair case: [A, f(A)] and [A', f(A')] are disjoint
    whenever |f(A)| - |A| <= delta - 1.
    """
    a._same_universe(b)
    delta = as_density(delta)
    eta = as_density(eta)
    if len(a) > len(b):
        raise PreconditionViolatedError("need |A| <= |B|")
    if delta.numerator * eta.denominator < eta.numerator * delta.denominator:
        raise PreconditionViolatedError("need delta >= eta")
    fb = f_delta(b, eta)
    tight = (len(fb) - len(b)) * eta.denominator <= eta.numerator - eta.denominator
    a_outside = bool(a.mask & ~b.mask)
    if not (tight and a_outside):
        return True
    return not PosetInterval(a, f_delta(a, delta)).intersects(PosetInterval(b, fb))


def check_cross_level_disjoint(
    c: CircularSet, dset: CircularSet, d: int, q: int, l: int, delta: int, eta: int
) -> bool:
    """Disjointness of the lifted intervals of C (|C| = d+q, density delta)
    and D (|D| = d+l, density eta) across two levels.

    Hypotheses, each checked and reported on failure: 0 <= q <= l,
    2 <= eta <= delta (a unit density degenerates the lift),
    eta <= floor((n+1)/(d+l+1)), delta <= floor((n+1)/(d+q+1)), and
    (d+l+1) * eta >= (d+q+1) * delta.  True iff: D not covered by C's
    interval implies the two intervals are disjoint.
    """
    c._same_universe(dset)
    n = c.universe
    failed = []
    if not (isinstance(delta, int) and isinstance(eta, int)):
        failed.append("delta and eta must be integers")
    if not 0 <= q <= l:
        failed.append(f"0 <= q <= l fails (q={q}, l={l})")
    if len(c) != d + q:
        failed.append(f"|C| = {len(c)} != d+q = {d + q}")
    if len(dset) != d + l:
        failed.append(f"|D| = {len(dset)} != d+l = {d + l}")
    if not (isinstance(eta, int) and eta >= 2) or not (isinstance(delta, int) and delta >= eta):
        failed.append(f"need 2 <= eta <= delta, got eta={eta}, delta={delta}")
    else:
        if eta > (n + 1) // (d + l + 1):
            failed.append(f"eta={eta} exceeds floor((n+1)/(d+l+1))")
        if delta > (n + 1) // (d + q + 1):
            failed.append(f"delta={delta} exceeds floor((n+1)/(d+q+1))")
        if (d + l + 1) * eta < (d + q + 1) * delta:
            failed.append(
                f"(d+l+1)*eta = {(d + l + 1) * eta} < (d+q+1)*delta = {(d + q + 1) * delta}"
            )
    if failed:
        raise PreconditionViolatedError("; ".join(failed))

    def interval(a: CircularSet, density: int) -> PosetInterval:
        s = validate_lift_params(n, len(a), density - 1).s
        upper = closure_upper_mask(n, len(a), s, a.members)
        return PosetInterval(a, CircularSet.from_mask(n, upper))

    interval_c = interval(c, delta)
    if interval_c.contains(dset):
        return True
    return not interval_c.intersects(interval(dset, eta))
