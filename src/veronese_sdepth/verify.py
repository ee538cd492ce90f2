"""Independent certification of partitions, and report assembly.

``verify_partition`` recomputes everything from the interval list alone:
it expands every listed interval into its member masks, sorts them once,
and checks that no mask repeats (disjointness, with the offending pair on
failure).  The interval list is scanned in fixed blocks, and each block's
intervals of one volume are expanded straight into their slot of one
member array of the listed volume, so the working set beyond that array
is a few blocks; the sorted members are scanned for repeats block by
block too.  It counts the members per size from the interval list (an
interval with lower size a and volume 2^s holds C(s, j - a) sets of size
j), subtracts the repeats, and checks each count against C(n, j).  An
explicit partition must cover every size; the first missing set is looked
up only on failure.  In a compact partition every uncovered set is an
implicit singleton, so the minimum upper size is the smaller of the listed
minimum and the smallest uncovered size, and it must reach the claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional

import numpy as np

from . import bitops
from .builder import (
    Build,
    IntervalPartition,
    build_partition,
    build_partition_k3,
    build_refusal,
    certify_layered,
)
from .core import (
    DEFAULT_SWEEP_CAP,
    MATERIALIZE_LIMIT,
    CircularSet,
    RegimeDecomposition,
    conjectured_sdepth,
    k3_band_exact,
    mask_of,
    members_of,
    regime_of,
    sdepth_upper_bound,
)
from .errors import InternalCheckError, InvalidPartitionError
from .oracle import DEFAULT_ORACLE_BUDGET, exact_sdepth

# Intervals the verifier expands per block, and sorted members it scans
# per block for repeats.
_INTERVAL_BLOCK = 1 << 14
_SCAN_BLOCK = 1 << 16


@dataclass(frozen=True)
class VerificationVerdict:
    disjoint: bool
    covers: bool
    min_upper_size: int
    interval_count: int
    overlap_witness: Optional[tuple[int, int, CircularSet]]
    uncovered_witness: Optional[CircularSet]
    # For a compact partition whose minimum falls below its claim: the
    # index and upper endpoint of a listed interval that is too small, or
    # None and a set left to a too small implicit singleton.
    short_witness: Optional[tuple[Optional[int], CircularSet]] = None

    @property
    def ok(self) -> bool:
        return self.disjoint and self.covers and self.short_witness is None


def verify_partition(p: IntervalPartition) -> VerificationVerdict:
    """Check disjointness and coverage of a claimed partition from scratch,
    and for a compact one that its minimum upper size reaches the claim.

    The intervals and the minimum count the implicit singletons of a
    compact partition too.  Either form expands just its listed intervals,
    and a missing set is looked up within the sets present, so nothing
    walks all 2^n subsets; the caller bounds the listed volume.
    """
    n, d, claim = p.n, p.d, p.claimed_min
    members, counts = _members(p)
    members.sort()
    shared, repeats = _repeats(members, n)
    disjoint = shared is None
    overlap_witness = None if disjoint else _overlap_witness(p, shared)
    # The members are subsets of [n] of size >= d, and a set listed r
    # times repeats r - 1 times, so a size is covered iff its count less
    # its repeats is C(n, size).
    missing = [comb(n, k) - counts[k] + repeats[k] for k in range(d, n + 1)]
    first = next((d + i for i, m in enumerate(missing) if m), None)

    if claim is None:
        witness = None if first is None else CircularSet(n, bitops.first_absent(n, first, members))
        return VerificationVerdict(
            disjoint, witness is None, p.min_upper_size(), len(p), overlap_witness, witness
        )

    listed = p.min_upper_size() if len(p) else None
    minimum = min(s for s in (listed, first) if s is not None)
    short = None
    if minimum < claim:
        if minimum == listed:
            i = int(np.flatnonzero(bitops.popcounts(p.uppers) == listed)[0])
            short = (i, CircularSet.from_mask(n, int(p.uppers[i])))
        else:
            short = (None, CircularSet(n, bitops.first_absent(n, first, members)))
    return VerificationVerdict(
        disjoint, True, minimum, len(p) + sum(missing), overlap_witness, None, short
    )


def _members(p: IntervalPartition) -> tuple[np.ndarray, list[int]]:
    """Every member of every interval, unsorted, and how many members have
    each size 0 .. n, repeats included.  The interval list is scanned in
    blocks of ``_INTERVAL_BLOCK``; a block's intervals of one volume 2^s
    are compressed out of it and ``bitops.expand_uniform`` writes their
    members straight into the next 2^s x N slot of one array of the
    listed volume, so no index array, gathered copy or member temporary
    outlives a block.  The sizes are counted from the interval list: an
    interval with lower size a and volume 2^s holds C(s, j - a) sets of
    size j."""
    n = p.n
    out = np.empty(p.volume(), dtype=p.lowers.dtype)
    # lower_sizes[s, a]: the intervals of volume 2^s and lower size a.
    lower_sizes = np.zeros((n + 1, n + 1), dtype=np.int64)
    at = 0
    for lo in range(0, len(p), _INTERVAL_BLOCK):
        lowers = p.lowers[lo : lo + _INTERVAL_BLOCK]
        uppers = p.uppers[lo : lo + _INTERVAL_BLOCK]
        diffs = bitops.popcounts(uppers & ~lowers)
        for s, count in enumerate(bitops.value_counts(diffs)):
            if not count:
                continue
            pick = diffs == s
            lows = lowers[pick]
            end = at + (lows.size << s)
            slot = out[at:end].reshape(1 << s, lows.size)
            bitops.expand_uniform(lows, uppers[pick], s, out=slot)
            lower_sizes[s] += bitops.value_counts(bitops.popcounts(lows), n + 1)
            at = end
    sizes = [0] * (n + 1)
    for s, row in enumerate(lower_sizes.tolist()):
        for a, count in enumerate(row):
            if count:
                for t in range(s + 1):
                    sizes[a + t] += count * comb(s, t)
    return out, sizes


def _repeats(members: np.ndarray, n: int) -> tuple[Optional[int], list[int]]:
    """The smallest mask that repeats in the ascending ``members`` (None if
    none does), and how many repeats each size 0 .. n has.  Adjacent pairs
    are compared ``_SCAN_BLOCK`` at a time, each block reaching one member
    into the next, so a repeat across a block edge is counted once."""
    shared = None
    repeats = np.zeros(n + 1, dtype=np.int64)
    for lo in range(0, members.size - 1, _SCAN_BLOCK):
        block = members[lo : lo + _SCAN_BLOCK + 1]
        dup = block[1:][block[1:] == block[:-1]]
        if dup.size:
            if shared is None:
                shared = int(dup[0])
            repeats += bitops.value_counts(bitops.popcounts(dup), n + 1)
    return shared, repeats.tolist()


def _overlap_witness(p: IntervalPartition, mask: int) -> tuple[int, int, CircularSet]:
    """The two earliest intervals holding ``mask``: non-trivial intervals by
    index first, then singletons by index."""
    holders = np.flatnonzero(bitops.containing(p.lowers, p.uppers, mask))
    trivial = p.lowers[holders] == p.uppers[holders]
    i, j = np.concatenate([holders[~trivial], holders[trivial]])[:2].tolist()
    return min(i, j), max(i, j), CircularSet.from_mask(p.n, mask)


def failure_lines(verdict: VerificationVerdict, claim: int | None) -> list[str]:
    """One line per witness of a rejected partition: the shared set, the
    uncovered set, and the interval or implicit singleton below ``claim``."""
    lines = []
    if not verdict.disjoint:
        i, j, witness = verdict.overlap_witness
        lines.append(f"not disjoint: intervals {i} and {j} share {{{witness.serialize()}}}")
    if not verdict.covers:
        lines.append(f"not covering: {{{verdict.uncovered_witness.serialize()}}} is uncovered")
    if verdict.short_witness is not None:
        i, short = verdict.short_witness
        where = (
            f"{{{short.serialize()}}} is uncovered, so its implicit singleton"
            if i is None
            else f"interval {i} has upper {{{short.serialize()}}}, which"
        )
        lines.append(f"below claim: {where} has size {len(short)} < min_upper={claim}")
    return lines


def _verified(p: IntervalPartition, error: type[Exception], what: str) -> VerificationVerdict:
    """``verify_partition``, raising ``error`` with every witness on a
    rejection."""
    verdict = verify_partition(p)
    if not verdict.ok:
        witnesses = "; ".join(failure_lines(verdict, p.claimed_min))
        raise error(f"{what} failed verification: {witnesses}")
    return verdict


def verify_build(p: IntervalPartition) -> VerificationVerdict:
    """``verify_partition`` on a partition the builder just made.  A
    rejection is the builder's fault, so it raises ``InternalCheckError``
    naming the witnesses."""
    return _verified(p, InternalCheckError, "built partition")


def sdepth_of_partition(p: IntervalPartition) -> int:
    """The certified lower bound a verified partition yields: its minimum
    upper-endpoint size.  A rejection raises ``InvalidPartitionError``
    naming the witnesses."""
    return _verified(p, InvalidPartitionError, "partition").min_upper_size


def render_stanley_decomposition(p: IntervalPartition) -> str:
    """One summand per interval: the monomial supported on the lower
    endpoint times the polynomial subring on the upper endpoint's
    variables.  The listed intervals come first, in order; a compact
    partition's implicit singletons follow, by increasing size and
    lexicographically within a size.  An unverified partition raises
    ``InvalidPartitionError`` naming the witnesses."""
    _verified(p, InvalidPartitionError, "partition to render")
    pairs = list(zip(p.lowers.tolist(), p.uppers.tolist()))
    if p.claimed_min is not None:
        present = set(_members(p)[0].tolist())
        for k in range(p.d, p.n + 1):
            for combo in combinations(range(1, p.n + 1), k):
                mask = mask_of(combo)
                if mask not in present:
                    pairs.append((mask, mask))
    lines = []
    for lo, up in pairs:
        mono = "*".join(f"x{i}" for i in members_of(lo))
        ring = ",".join(f"x{i}" for i in members_of(up))
        lines.append(f"{mono} · K[{ring}]")
    return "\n".join(lines)


@dataclass(frozen=True)
class SdepthReport:
    """Everything the package can say about one (n, d) instance."""

    n: int
    d: int
    conjectured: int
    upper_bound_formula: int
    certified_lower: int | None
    oracle_exact: int | None
    regime: RegimeDecomposition
    certification: str

    def __post_init__(self):
        if self.certified_lower is not None and self.certified_lower > self.upper_bound_formula:
            raise InternalCheckError(
                f"certified lower bound {self.certified_lower} exceeds the "
                f"upper bound {self.upper_bound_formula}"
            )
        if self.oracle_exact is not None:
            if self.oracle_exact > self.upper_bound_formula or (
                self.certified_lower is not None
                and self.certified_lower > self.oracle_exact
            ):
                raise InternalCheckError(
                    "oracle value falls outside the certified bounds"
                )

    @property
    def verified(self) -> bool:
        return self.certified_lower == self.upper_bound_formula


def select_build(n: int, d: int, cap: int, k3: bool) -> tuple[Build | None, str]:
    """The build ``report``, ``build`` and ``table`` certify from, and its
    label.  Every build must pass ``build_refusal`` within ``cap``, which
    bounds its predicted listed volume and, through the plan, raises the
    builder's error for ``k3`` at an n other than 4d + 3.  When
    n <= ``MATERIALIZE_LIMIT`` and C(n, ceil(n/2)) <= ``cap`` as well, it
    is the construction (``construction``, or ``construction-k3`` with
    ``k3``); otherwise it is ``certify_layered`` (``layered``), which is
    None when the build is refused.  The builds are this module's
    bindings, so a wrapper set on them sees every build."""
    if (
        n <= MATERIALIZE_LIMIT
        and comb(n, (n + 1) // 2) <= cap
        and build_refusal(n, d, cap, k3) is None
    ):
        if k3:
            return build_partition_k3(d), "construction-k3"
        return build_partition(n, d), "construction"
    return certify_layered(n, d, cap=cap, use_k3=k3), "layered"


def sdepth_report(
    n: int,
    d: int,
    with_oracle: bool = False,
    oracle_budget: int = DEFAULT_ORACLE_BUDGET,
    cap: int = DEFAULT_SWEEP_CAP,
) -> SdepthReport:
    """Assemble the report: closed-form values plus the best certified
    lower bound the builder can produce within ``cap``.

    The build is ``select_build``'s, with the k3 construction at
    n = 4d + 3; ``certification`` is its label, or ``none`` when the
    layered build's listed volume exceeds ``cap``.  The certified number
    is the minimum ``verify_partition`` re-derives.  On the band
    4d+3 <= n <= 5d+3 the dedicated construction pins the exact value
    d + 3 (built and verified at the left end, carried across the band by
    containment monotonicity), so the certified bound is at least that.
    """
    reg = regime_of(n, d)
    conjectured = conjectured_sdepth(n, d)
    upper = sdepth_upper_bound(n, d)
    built, how = select_build(n, d, cap, n == 4 * d + 3)
    certified: int | None = None
    if built is None:
        how = "none"
    else:
        certified = verify_build(built.partition).min_upper_size
    band = k3_band_exact(n, d)
    if band is not None and (certified is None or band > certified):
        certified = band
        how = "k3-band" if how == "none" else f"{how}+k3-band"
    oracle = exact_sdepth(n, d, budget=oracle_budget) if with_oracle else None
    return SdepthReport(n, d, conjectured, upper, certified, oracle, reg, how)
