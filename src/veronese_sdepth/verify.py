"""Independent certification of partitions and a brute-force exact oracle.

``verify_partition`` recomputes everything from the interval list alone:
it expands every listed interval into its member masks (uniform-volume
expansions, in blocks, into one array), sorts them once, and
checks that no mask repeats (disjointness, with the offending pair on
failure).  It counts the members per size from the interval list (an
interval with lower size a and volume 2^s holds C(s, j - a) sets of size
j), subtracts the repeats, and checks each count against C(n, j).  An
explicit partition must cover every size; the first missing set is looked
up only on failure.  In a compact partition every uncovered set is an
implicit singleton, so the minimum upper size is the smaller of the listed
minimum and the smallest uncovered size, and it must reach the claim.

``exact_sdepth`` is the cross-check oracle for small instances.  It
shares nothing with the block-structure or lifting machinery: for a
descending trial target t it runs a backtracking exact-cover search
assigning every subset of size in [d, t-1] to an interval with upper size
exactly t (sets of size >= t can always self-cover, and a larger upper set
splits down to size t without losing a solution), and returns the largest
feasible t.  The lower endpoint is forced as well.  List the constrained
sets by increasing size and let D be the first uncovered one.  An interval
[A, B] holding D has A inside D; were A != D, A would be smaller, hence
listed earlier and already covered, and the two intervals would overlap.
So the search only ever tries [D, B] for the t-sets B containing D.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional

import numpy as np

from . import bitops
from .builder import (
    DEFAULT_SWEEP_CAP,
    IntervalPartition,
    build_partition,
    build_partition_k3,
    certify_layered,
    within_cap,
)
from .core import (
    CircularSet,
    RegimeDecomposition,
    conjectured_sdepth,
    k3_band_exact,
    regime_of,
    sdepth_upper_bound,
)
from .errors import (
    InternalCheckError,
    InvalidPartitionError,
    PreconditionViolatedError,
)

DEFAULT_ORACLE_BUDGET = 3_000_000

# Members expanded per block by the verifier.
_EXPAND_MEMBERS = 1 << 18


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
    dup = np.flatnonzero(members[1:] == members[:-1])
    disjoint = not dup.size
    overlap_witness = None if disjoint else _overlap_witness(p, int(members[dup[0]]))
    # The members are subsets of [n] of size >= d, and a set listed r
    # times repeats r - 1 times, so a size is covered iff its count less
    # its repeats is C(n, size).
    repeats = np.bincount(bitops.popcounts(members[dup]), minlength=n + 1).tolist()
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
    each size 0 .. n, repeats included.  The intervals are expanded in
    groups of equal volume, a few hundred thousand members at a time,
    straight into one array of the listed volume.  The sizes are counted
    from the interval list: an interval with lower size a and volume 2^s
    holds C(s, j - a) sets of size j."""
    diffs = bitops.popcounts(p.uppers & ~p.lowers)
    out = np.empty(p.volume(), dtype=p.lowers.dtype)
    sizes = [0] * (p.n + 1)
    at = 0
    for s in np.unique(diffs).tolist():
        sel = np.flatnonzero(diffs == s)
        step = max(1, _EXPAND_MEMBERS >> s)
        lower_sizes = np.zeros(p.n + 1, dtype=np.int64)
        for lo in range(0, len(sel), step):
            idx = sel[lo : lo + step]
            lower_sizes += np.bincount(bitops.popcounts(p.lowers[idx]), minlength=p.n + 1)
            block = bitops.expand_uniform(p.lowers[idx], p.uppers[idx], s)
            out[at : at + block.size] = block.ravel()
            at += block.size
        for a, count in enumerate(lower_sizes.tolist()):
            if count:
                for t in range(s + 1):
                    sizes[a + t] += count * comb(s, t)
    return out, sizes


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
                mask = bitops.mask_of(combo)
                if mask not in present:
                    pairs.append((mask, mask))
    lines = []
    for lo, up in pairs:
        mono = "*".join(f"x{i}" for i in bitops.members_of(lo))
        ring = ",".join(f"x{i}" for i in bitops.members_of(up))
        lines.append(f"{mono} · K[{ring}]")
    return "\n".join(lines)


class _BudgetHit(Exception):
    pass


def exact_sdepth(
    n: int,
    d: int,
    budget: int = DEFAULT_ORACLE_BUDGET,
    counting_prune: bool = True,
) -> int | None:
    """Exact maximum, over all interval partitions of the poset, of the
    minimum upper-endpoint size.

    Descends the trial target from n; the first feasible target is the
    answer (a partition with minimum >= t also witnesses every smaller
    target).  The budget counts enumerated constrained sets, candidates
    built and their members, and covered sets skipped, across the whole
    descent; when it runs out the result is None, which is distinct from
    a definite answer.  It is None too, before any count is formed,
    when [n] is wider than a mask holds.  ``counting_prune`` exists so
    tests can cross-check the pruned search against plain exhaustion.
    """
    if d < 1 or d > n:
        raise PreconditionViolatedError(f"need 1 <= d <= n, got n={n}, d={d}")
    if n > bitops.MAX_UNIVERSE:
        return None
    work = [budget]
    try:
        for t in range(n, d, -1):
            if _cover_feasible(n, d, t, work, counting_prune):
                return t
    except _BudgetHit:
        return None
    return d


def _cover_feasible(
    n: int, d: int, t: int, work: list[int], counting_prune: bool = True
) -> bool:
    """Is there a disjoint interval cover, with every upper size t, of all
    subsets of size in [d, t-1]?  Sets of size >= t self-cover, so this is
    exactly feasibility of target t.

    Upper size exactly t loses nothing.  Take a candidate [A, B] with
    |B| > t and pick x in B - A.  Split it into [A, B - x] and
    [A + x, B], and drop each piece whose lower size is >= t: its sets
    self-cover.  Every other piece still has upper size >= t.  Repeat
    until every upper size is t: a feasible target t always has a witness
    that uses only |B| = t.

    The lower endpoint is forced too.  The constrained sets are listed by
    increasing size; let D be the first one still uncovered.  An interval
    [A, B] holding D has A a subset of D.  If A != D then |A| < |D|, so A
    comes before D and is already covered, and [A, B] would overlap the
    interval that covers it.  So A = D, and the only candidates for D are
    [D, B] for the t-sets B containing D whose members are all uncovered.
    Each frame of the search therefore covers the first uncovered set,
    and the next target lies after it.

    The counting test runs once, on the initial counts C(n, k), before
    anything is enumerated: an interval with lower size a that covers x
    sets of size sigma < t holds at least x * (t - sigma) / (sigma + 1 - a)
    sets of size sigma + 1, and a >= d, so a cover needs
    (sigma + 1 - d) * C(n, sigma + 1) >= (t - sigma) * C(n, sigma) for
    every sigma in [d, t-1].  ``counting_prune=False`` skips it, so tests
    can check that it only refutes infeasible targets.

    The search walks an explicit stack, so its depth is not bounded by
    Python's recursion limit.  ``work`` is charged one unit per
    constrained set, a whole size before it is enumerated, one per
    candidate built plus one per member it holds, and one per covered set
    the target scan skips.  Every loop iteration is charged, so the
    budget bounds the time and the memory.
    """

    def charge(units: int) -> None:
        work[0] -= units
        if work[0] < 0:
            raise _BudgetHit

    counts = [comb(n, k) for k in range(d, t + 1)]
    if counting_prune and any(
        (i + 1) * counts[i + 1] < (t - d - i) * counts[i] for i in range(len(counts) - 1)
    ):
        return False

    constrained: list[int] = []
    for size in range(d, t):
        charge(counts[size - d])
        constrained.extend(map(bitops.mask_of, combinations(range(1, n + 1), size)))
    covered: set[int] = set()

    def frame(pos: int) -> list:
        """[target position, its remaining upper-set extensions, the
        members of the candidate applied]."""
        dmask = constrained[pos]
        rest = [x for x in range(1, n + 1) if not dmask >> (x - 1) & 1]
        return [pos, combinations(rest, t - dmask.bit_count()), ()]

    # t > d, so the first constrained set exists and is uncovered.
    stack = [frame(0)]
    while stack:
        top = stack[-1]
        pos, extensions, applied = top
        covered.difference_update(applied)
        dmask = constrained[pos]
        for extra in extensions:
            charge(1 + (1 << len(extra)))
            members = tuple(bitops.submasks(dmask, dmask | bitops.mask_of(extra)))
            if covered.isdisjoint(members):
                break
        else:
            stack.pop()
            continue
        covered.update(members)
        top[2] = members
        pos += 1
        while pos < len(constrained) and constrained[pos] in covered:
            charge(1)
            pos += 1
        if pos == len(constrained):
            return True
        stack.append(frame(pos))
    return False


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


def sdepth_report(
    n: int,
    d: int,
    with_oracle: bool = False,
    oracle_budget: int = DEFAULT_ORACLE_BUDGET,
    cap: int = DEFAULT_SWEEP_CAP,
) -> SdepthReport:
    """Assemble the report: closed-form values plus the best certified
    lower bound the builder can produce within ``cap``.

    Within ``within_cap`` the construction is built with the default
    sweep cap (``construction``, ``construction-k3``); beyond it the
    layered sweep must stay within ``cap`` (``layered``).  Either way the
    certified number is the minimum ``verify_partition`` re-derives.  On
    the band 4d+3 <= n <= 5d+3 the dedicated construction pins the exact
    value d + 3 (built and verified at the left end, carried across the
    band by containment monotonicity), so the certified bound is at least
    that there.
    """
    reg = regime_of(n, d)
    conjectured = conjectured_sdepth(n, d)
    upper = sdepth_upper_bound(n, d)
    k3_here = n == 4 * d + 3
    if within_cap(n, cap):
        built = build_partition_k3(d) if k3_here else build_partition(n, d)
        how = "construction-k3" if k3_here else "construction"
    else:
        built = certify_layered(n, d, cap=cap, use_k3=k3_here)
        how = "layered"
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
