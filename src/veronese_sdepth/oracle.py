"""The brute-force exact oracle for small instances.

The Stanley depth of I/J is decided by partitioning a finite poset
(Herzog, Vladoiu and Zheng), and ``exact_sdepth`` runs that search.  It
is the cross-check for the builder, and its only package import is
``core``: it shares nothing with the block-structure, lifting or numpy
machinery.  For a descending trial target t it runs a
backtracking exact-cover search assigning every subset of size in
[d, t-1] to an interval with upper size exactly t (sets of size >= t can
always self-cover, and a larger upper set splits down to size t without
losing a solution), and returns the largest feasible t.  The lower
endpoint is forced as well.  List the constrained sets by increasing size
and let D be the first uncovered one.  An interval [A, B] holding D has A
inside D; were A != D, A would be smaller, hence listed earlier and
already covered, and the two intervals would overlap.  So the search only
ever tries [D, B] for the t-sets B containing D.  It never builds a B
holding an element x with D + x already covered: that candidate holds a
covered set, so it always fails.  A new frame probes the elements
outside D only until it has its first candidate.  The budget is charged
for the probes and the candidates built, never for a skipped one.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .core import MAX_UNIVERSE, _check_nd

DEFAULT_ORACLE_BUDGET = 3_000_000


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
    target).  The budget counts enumerated constrained sets, probes of
    the covered sets, candidates built and their members, and covered
    sets skipped, across the whole descent; when it runs out the result
    is None, which is distinct from a definite answer.  It is None too,
    before any count is formed, when [n] is wider than a mask holds.
    ``counting_prune`` exists so tests can cross-check the pruned search
    against plain exhaustion.
    """
    _check_nd(n, d)
    if n > MAX_UNIVERSE:
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

    Many candidates are refused by a single member.  A free element x
    (one outside D) with D + x covered blocks D: every candidate [D, B]
    with x in B holds D + x, so it fails and is never built.  Each deeper
    frame removes its members before it is popped, so the blocked
    elements stay the same for a frame's whole life.  The unblocked
    candidates come in the order of ``combinations`` over the unblocked
    elements, so a new frame probes the free elements in ascending order
    only until it has t - |D| unblocked ones, and tries those first.  If
    they fail, or when the frame resumes after a deeper failure, it lists
    all its unblocked elements, on a resume only after removing its own
    applied members from the covered sets, and iterates the later
    candidates.  A frame keeps its position, the upper set it applied (0
    for none) and that iterator (None until needed).

    The counting test runs once, on the initial counts C(n, k), before
    anything is enumerated: an interval with lower size a that covers x
    sets of size sigma < t holds at least x * (t - sigma) / (sigma + 1 - a)
    sets of size sigma + 1, and a >= d, so a cover needs
    (sigma + 1 - d) * C(n, sigma + 1) >= (t - sigma) * C(n, sigma) for
    every sigma in [d, t-1].  ``counting_prune=False`` skips it, so tests
    can check that it only refutes infeasible targets.

    The search walks an explicit stack, so its depth is not bounded by
    Python's recursion limit.  ``work`` is charged one unit per
    constrained set, a whole size before it is enumerated, one per probe
    of D + x in the covered sets, 1 + 2^m for each candidate built with m
    free elements, before it is tested, and one per covered set the
    target scan skips; it runs out at the first charge that leaves it
    below zero.  A unit pays for at most O(n) steps and a bounded amount
    of memory (the walk over ``bits``, a candidate's members, their
    ``isdisjoint`` test and their removal on a resume), so the budget
    bounds the time and the memory.
    """
    counts = [comb(n, k) for k in range(d, t + 1)]
    if counting_prune and any(
        (i + 1) * counts[i + 1] < (t - d - i) * counts[i] for i in range(len(counts) - 1)
    ):
        return False

    left = work[0]  # the budget, written back on every way out
    try:
        bits = [1 << i for i in range(n)]
        constrained: list[int] = []
        for size in range(d, t):
            left -= counts[size - d]
            if left < 0:
                raise _BudgetHit
            constrained.extend(map(sum, combinations(bits, size)))
        end = len(constrained)
        full = (1 << n) - 1
        covered: set[int] = set()
        # A frame is [position, upper set applied (0 for none), later
        # candidates (None until needed)].
        stack: list[list] = []
        pos = 0  # t > d, so the first constrained set exists and is uncovered
        while True:
            dmask = constrained[pos]
            free, m = full & ~dmask, t - dmask.bit_count()
            # The first m unblocked free bits are the frame's first candidate.
            extra = []
            for b in bits:
                if free & b:
                    left -= 1
                    if dmask | b not in covered:
                        extra.append(b)
                        if len(extra) == m:
                            break
            else:
                extra = None
            if left < 0:
                raise _BudgetHit
            top = [pos, 0, None]
            stack.append(top)
            while True:
                if extra is not None:
                    left -= 1 + (1 << m)
                    if left < 0:
                        raise _BudgetHit
                    members = _interval(dmask, extra)
                    if covered.isdisjoint(members):
                        break
                else:
                    stack.pop()
                    if not stack:
                        return False
                    top = stack[-1]
                    pos = top[0]
                    dmask = constrained[pos]
                    free, m = full & ~dmask, t - dmask.bit_count()
                    applied = [b for b in bits if top[1] & free & b]
                    covered.difference_update(_interval(dmask, applied))
                if top[2] is None:
                    # The frame's own members are off ``covered`` by now.
                    left -= free.bit_count()
                    if left < 0:
                        raise _BudgetHit
                    unblocked = [b for b in bits if free & b and dmask | b not in covered]
                    top[2] = combinations(unblocked, m)
                    next(top[2])
                extra = next(top[2], None)
            covered.update(members)
            top[1] = dmask | sum(extra)
            pos += 1
            while pos < end and constrained[pos] in covered:
                left -= 1
                if left < 0:
                    raise _BudgetHit
                pos += 1
            if pos == end:
                return True
    finally:
        work[0] = left


def _interval(lower: int, extra) -> list[int]:
    """Every set of the interval [lower, lower + the bits in ``extra``],
    built by doubling: each bit value in ``extra`` is added to every set
    built so far."""
    members = [lower]
    for b in extra:
        members += [m | b for m in members]
    return members
