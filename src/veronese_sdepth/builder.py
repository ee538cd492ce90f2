"""Layer-by-layer construction of interval partitions of the (n, d) poset.

The poset consists of every subset of [n] of size at least d.  The builder
stacks interval families level by level, keeps an interval only when its
lower endpoint is not already covered, and completes the remainder with
singleton intervals [D, D]:

  TrivialRange (d <= n <= 2d)  everything trivial.
  K1                           one family at density 2.
  K2                           density 3, then a filtered level at density 2.
  Mid (3 <= k, n <= threshold) density k+1, then k-1 filtered levels at k.
  Large (n > threshold)        density k+1, then s filtered levels at s+1,
                               s = large_n_density_shift(n, d).

Selection makes every set of the visited sizes covered, so the trivial
remainder starts at the next size up.  A compact partition lists only the
layered intervals and leaves that remainder implicit, with the minimum
upper size it reaches as a claim the verifier re-derives.
``build_partition``, ``build_partition_k3`` and ``certify_layered`` all
return one ``Build(partition, trace)``.  Disjointness
of a kept interval against earlier layers follows from the families'
closure property (for the base family) and the cross-level disjointness
hypotheses, which for the filtered layers of one plan reduce to the
levels being increasing at a common density.

Candidate lower endpoints run in lexicographic order within each layer
and the trivial completion is emitted in increasing size then
lexicographic order, so identical inputs produce byte-identical
partitions.  Bulk storage is numpy mask arrays throughout: candidates are
closed in fixed-size batches by ``lifting.closure_upper_masks``, each
family keeps parallel lower and upper arrays, and the covered set is one
ascending mask array that grows by one uniform-volume expansion per
layer.  A filtered level does not search that array: it ranks the
covered sets of its own size (``bitops.lex_ranks``) into one flag per
level set, and since candidates are swept in lexicographic order, a
candidate's rank is its position in the sweep, so each batch reads its
flags as one slice.  Levels are materialized one size at a time rather
than holding the whole poset as objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import bitops
from .core import (
    CircularSet,
    Regime,
    RegimeDecomposition,
    large_n_density_shift,
    regime_of,
    sdepth_upper_bound,
)
from .errors import (
    InternalCheckError,
    InvalidPartitionError,
    PreconditionViolatedError,
)
from .lifting import (
    IntervalFamily,
    PosetInterval,
    closure_upper_mask,
    closure_upper_masks,
    validate_lift_params,
)

DEFAULT_SWEEP_CAP = 5_000_000

# Full materialization enumerates all 2^n masks.
MATERIALIZE_LIMIT = 26

# Level sets per batch of the layer loop.
_CHUNK = 1 << 15


def within_cap(n: int, cap: int) -> bool:
    """True when the compact build of [n] that ``report``, ``build`` and
    ``table`` run stays within ``cap``: no layer sweeps more than the
    largest level, C(n, ceil(n/2)), and n is small enough that an explicit
    build could still list every set."""
    return n <= MATERIALIZE_LIMIT and comb(n, (n + 1) // 2) <= cap


@dataclass(frozen=True)
class LayerTrace:
    tag: str
    level_size: int
    density: int
    candidates: int
    selected: int
    discarded: int

    def __post_init__(self):
        if self.selected + self.discarded != self.candidates:
            raise InternalCheckError("layer trace counts are inconsistent")


@dataclass(frozen=True)
class BuilderTrace:
    layers: tuple[LayerTrace, ...]
    trivial_count: int


class IntervalPartition:
    """An ordered list of intervals over [n], stored as parallel mask arrays,
    holding exactly what its certificate file holds.

    With ``claimed_min`` None the partition is explicit: every poset set
    lies in a listed interval.  Otherwise it is compact: every set no
    listed interval holds is an implicit singleton [D, D], and the whole
    partition claims ``claimed_min`` as its minimum upper size.
    """

    def __init__(
        self,
        n: int,
        d: int,
        regime: RegimeDecomposition,
        lowers: np.ndarray,
        uppers: np.ndarray,
        claimed_min: int | None = None,
    ):
        if len(lowers) != len(uppers):
            raise InvalidPartitionError("parallel interval arrays differ in length")
        if len(lowers):
            if np.any(lowers & ~uppers):
                raise InvalidPartitionError("a lower endpoint is not inside its upper")
            if n < 8 * lowers.dtype.itemsize and np.any(uppers >> n):
                raise InvalidPartitionError(f"an interval leaves the universe [{n}]")
            if int(bitops.popcounts(lowers).min()) < d:
                raise InvalidPartitionError(f"a lower endpoint is smaller than d={d}")
        self.n = n
        self.d = d
        self.regime = regime
        self.lowers = lowers
        self.uppers = uppers
        self.claimed_min = claimed_min

    def __len__(self) -> int:
        return len(self.lowers)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalPartition):
            return NotImplemented
        return (
            self.n == other.n
            and self.d == other.d
            and self.regime == other.regime
            and np.array_equal(self.lowers, other.lowers)
            and np.array_equal(self.uppers, other.uppers)
            and self.claimed_min == other.claimed_min
        )

    def interval(self, i: int) -> PosetInterval:
        return PosetInterval(
            CircularSet.from_mask(self.n, int(self.lowers[i])),
            CircularSet.from_mask(self.n, int(self.uppers[i])),
        )

    def __iter__(self) -> Iterator[PosetInterval]:
        for i in range(len(self)):
            yield self.interval(i)

    def min_upper_size(self) -> int:
        """The smallest upper size among the listed intervals (0 for none)."""
        if not len(self):
            return 0
        return int(bitops.popcounts(self.uppers).min())

    def volume(self) -> int:
        """How many sets the listed intervals declare: the sum of
        2^(|upper| - |lower|), without expanding any interval."""
        diffs = np.bincount(bitops.popcounts(self.uppers & ~self.lowers), minlength=1)
        return sum(int(c) << s for s, c in enumerate(diffs.tolist()))


class Build(NamedTuple):
    """What every construction returns: the partition, explicit or compact,
    and how its layers were selected.  The lowers list each layer's
    selection in plan order (``trace.layers[i].selected`` of them), then,
    in an explicit partition, the trivial completion."""

    partition: IntervalPartition
    trace: BuilderTrace


class _Plan(NamedTuple):
    """What one construction stacks: the (level, s) layers, the sizes the
    base layer must cover on its own, and the minimum upper size the
    partition reaches (exact through the Mid regime and for k3, a floor
    beyond the threshold)."""

    layers: list[tuple[int, int]]
    ensure: tuple[int, ...]
    min_upper: int


def _plan_for(reg: RegimeDecomposition, k3: bool = False) -> _Plan:
    n, d, k = reg.n, reg.d, reg.k
    ensure: tuple[int, ...] = ()
    if k3:
        if n != 4 * d + 3:
            raise PreconditionViolatedError("the k3 construction needs n = 4d + 3")
        layers = [(d, 3), (d + 2, 1)]
        ensure = (d + 1,)
    elif reg.regime is Regime.TRIVIAL_RANGE:
        layers = []
    elif reg.regime is Regime.K1:
        layers = [(d, 1)]
    elif reg.regime is Regime.K2:
        layers = [(d, 2), (d + 1, 1)]
    elif reg.regime is Regime.MID:
        layers = [(d, k)] + [(d + l, k - 1) for l in range(1, k)]
    else:
        s = large_n_density_shift(n, d)
        layers = [(d, k)] + [(d + q, s) for q in range(1, s + 1)]
    # The layer levels and ensured sizes run contiguously up from d and all
    # end up covered, so every uncovered set, and every layered upper
    # endpoint, has at least the next size.
    return _Plan(layers, ensure, d + len(layers) + len(ensure))


def _check_plan(plan: Sequence[tuple[int, int]]) -> None:
    # Filtered layers must share one density with strictly increasing levels:
    # cross-level disjointness at a common density needs only that ordering.
    levels = [lv for lv, _ in plan]
    if levels != sorted(set(levels)):
        raise InternalCheckError("layer levels must be strictly increasing")
    if len({s for _, s in plan[1:]}) > 1:
        raise InternalCheckError("filtered layers must share a single density")


def _run_layers(
    n: int, plan: Sequence[tuple[int, int]], ensure: tuple[int, ...] = ()
) -> tuple[list[IntervalFamily], np.ndarray, list[LayerTrace]]:
    """Select intervals layer by layer.

    Returns the selected families, the ascending array of every mask
    covered by a selected interval, and per-layer counts.  Candidates run
    in lexicographic order, in chunks of ``_CHUNK`` level sets, so the
    candidate at sweep position p has lexicographic rank p; the first of
    each chunk has its rank re-derived by the scalar ``bitops.lex_rank``.
    A filtered layer drops the candidates whose rank is flagged covered by
    earlier layers (``_covered_flags``); an interval never covers another
    set of its own level, so this is the same as filtering one candidate
    at a time.  The kept candidates' masks are computed once and closed by
    the batched closure, whose first row is re-derived by the scalar
    ``closure_upper_mask``.  A repeated member mask means two selected
    intervals overlap, which the construction forbids; it is reported as
    an internal error naming the first offending lower endpoint.  Every
    set of a size in ``ensure`` must be covered by the first layer.
    """
    _check_plan(plan)
    covered = np.empty(0, dtype=bitops.mask_dtype(n))
    layers: list[IntervalFamily] = []
    traces: list[LayerTrace] = []
    for idx, (level, s) in enumerate(plan):
        validate_lift_params(n, level, s)
        lo_parts, up_parts = [], []
        taken = _covered_flags(n, level, covered) if idx else None
        start = 0
        for rows in bitops.lex_combinations(n, level, _CHUNK):
            first = tuple(rows[0].tolist())
            if bitops.lex_rank(first, n) != start:
                raise InternalCheckError(
                    f"{first} is swept at position {start}, not at its lexicographic rank"
                )
            end = start + len(rows)
            if taken is not None:
                rows = rows[~taken[start:end]]
            start = end
            if not len(rows):
                continue
            lowers = bitops.row_masks(rows, n)
            uppers = closure_upper_masks(n, level, s, rows, lowers)
            first = tuple(rows[0].tolist())
            if closure_upper_mask(n, level, s, first) != int(uppers[0]):
                raise InternalCheckError(
                    f"batched closure of {first} disagrees with the scalar path"
                )
            lo_parts.append(lowers)
            up_parts.append(uppers)
        candidates = start
        if candidates != comb(n, level):
            raise InternalCheckError(
                f"the sweep of level {level} visited {candidates} of {comb(n, level)} sets"
            )
        lowers = np.concatenate(lo_parts) if lo_parts else covered[:0]
        uppers = np.concatenate(up_parts) if up_parts else covered[:0]
        covered = _add_covered(covered, lowers, uppers, s)
        tag = f"I[{n},{level},{s + 1}]"
        layers.append(IntervalFamily(n, level, lowers, uppers, tag))
        traces.append(
            LayerTrace(tag, level, s + 1, candidates, len(lowers), candidates - len(lowers))
        )
        if idx == 0:
            _check_ensured(n, covered, ensure)
    return layers, covered, traces


def _covered_flags(n: int, level: int, covered: np.ndarray) -> np.ndarray:
    """One flag per ``level``-subset of [n], at its lexicographic rank,
    set when ``covered`` holds that subset.  Only ``covered``'s sets of
    this size are ranked, and the flags are as many as the sweep's
    candidates.  A rank outside the level, or two sets of one rank, is an
    internal error rather than a wrapped or merged index."""
    ranks = bitops.lex_ranks(covered[bitops.popcounts(covered) == level], n, level)
    flags = np.zeros(comb(n, level), dtype=bool)
    if ranks.size and (int(ranks.min()) < 0 or int(ranks.max()) >= flags.size):
        raise InternalCheckError(
            f"a covered {level}-set ranks outside [0, {flags.size}) in the sweep"
        )
    flags[ranks] = True
    if np.count_nonzero(flags) != ranks.size:
        raise InternalCheckError(f"two covered {level}-sets share a lexicographic rank")
    return flags


def _add_covered(
    covered: np.ndarray, lowers: np.ndarray, uppers: np.ndarray, s: int
) -> np.ndarray:
    """``covered`` merged with every member of one layer's intervals; a
    member already present, or present twice, is an overlap."""
    members = bitops.expand_uniform(lowers, uppers, s).ravel()
    merged = np.concatenate([covered, members])
    merged.sort()
    if np.any(merged[1:] == merged[:-1]):
        # The first interval, in selection order, holding a member that an
        # earlier layer or an earlier interval of this layer already holds.
        seen = bitops.member_lookup(members, covered)
        order = np.argsort(members, kind="stable")
        ranked = members[order]
        seen[order[1:][ranked[1:] == ranked[:-1]]] = True
        bad = int(np.flatnonzero(seen)[0]) >> s
        combo = tuple(bitops.members_of(int(lowers[bad])))
        raise InternalCheckError(f"interval at {combo} overlaps an earlier selection")
    return merged


def _check_ensured(n: int, covered: np.ndarray, ensure: tuple[int, ...]) -> None:
    # ``covered`` holds distinct subsets of [n], so a size is fully covered
    # iff it is covered C(n, size) times.
    if not ensure:
        return
    hist = np.bincount(bitops.popcounts(covered), minlength=n + 1)
    for size in ensure:
        if int(hist[size]) < comb(n, size):
            combo = bitops.first_absent(n, size, covered)
            raise InternalCheckError(f"size-{size} set {combo} escaped the base layer")


def _remainder(
    n: int, d: int, layers: list[IntervalFamily], covered: np.ndarray
) -> tuple[int, int | None]:
    """The size of the trivial remainder, the poset sets missing from
    ``covered``, and the minimum upper size of the layered intervals
    together with those singletons (None when both are empty)."""
    # ``covered`` holds distinct subsets of [n], so a size is left
    # uncovered iff it is counted fewer than C(n, size) times.
    hist = np.bincount(bitops.popcounts(covered), minlength=n + 1)
    missing = [comb(n, k) - int(hist[k]) for k in range(d, n + 1)]
    sizes = [fam.upper_size() for fam in layers if len(fam)]
    sizes += [d + i for i, m in enumerate(missing) if m][:1]
    return sum(missing), min(sizes, default=None)


def _trivial_completion(n: int, d: int, covered: np.ndarray) -> np.ndarray:
    """Masks of every poset element missing from ``covered``, increasing
    size then lexicographic within each size."""
    # Lexicographic order within a size is descending order of the
    # bit-reversed mask, so walk the reversed values downward and reverse
    # back only what is kept.
    rev = np.arange((1 << n) - 1, -1, -1, dtype=bitops.mask_dtype(n))
    taken = np.zeros(1 << n, dtype=bool)
    taken[bitops.bit_reverse(covered, n)] = True
    free = ~taken[::-1]
    pops = bitops.popcounts(rev)
    return np.concatenate(
        [bitops.bit_reverse(rev[free & (pops == k)], n) for k in range(d, n + 1)]
    )


def _sweep_estimate(n: int, plan: _Plan) -> int:
    """A bound on the sets the layer sweep handles: every candidate of a
    layer, plus the 2^s members of each one it keeps."""
    return sum(comb(n, level) * ((1 << s) + 1) for level, s in plan.layers)


def _assemble(
    reg: RegimeDecomposition,
    k3: bool = False,
    compact: bool = False,
    sweep_cap: int = 1 << MATERIALIZE_LIMIT,
) -> Build:
    n, d = reg.n, reg.d
    plan = _plan_for(reg, k3)
    # An explicit build enumerates all 2^n sets; a compact one only the
    # layered sweep, which by default may be as large as the explicit
    # build at MATERIALIZE_LIMIT.
    sweep = _sweep_estimate(n, plan)
    if compact and sweep > sweep_cap:
        raise PreconditionViolatedError(
            f"the layered sweep at n={n}, d={d} would handle about "
            f"{sweep} sets, beyond the cap {sweep_cap}"
        )
    if not compact and n > MATERIALIZE_LIMIT:
        raise PreconditionViolatedError(
            f"materializing all subsets of [{n}] is beyond desk scale; "
            "build it compact or use certify_layered for the bound"
        )
    layers, covered, traces = _run_layers(n, plan.layers, plan.ensure)
    remainder, minimum = _remainder(n, d, layers, covered)
    lo_parts = [fam.lowers for fam in layers]
    up_parts = [fam.uppers for fam in layers]
    if not compact:
        trivial = _trivial_completion(n, d, covered)
        lo_parts.append(trivial)
        up_parts.append(trivial)
    claim = minimum if compact else None
    part = IntervalPartition(
        n,
        d,
        reg,
        np.concatenate([covered[:0], *lo_parts]),
        np.concatenate([covered[:0], *up_parts]),
        claim,
    )
    # Below the threshold the plan's minimum meets the upper bound, so this
    # pins the value exactly there and brackets it beyond.
    got = part.min_upper_size() if claim is None else claim
    upper = sdepth_upper_bound(n, d)
    if not plan.min_upper <= got <= upper:
        raise InternalCheckError(
            f"built partition has min upper size {got}, "
            f"expected between {plan.min_upper} and {upper}"
        )
    return Build(part, BuilderTrace(tuple(traces), remainder))


def build_partition(n: int, d: int, compact: bool = False) -> Build:
    """Construct the partition for (n, d): fully materialized, or with
    ``compact`` only the layered intervals and a claimed minimum.

    The minimum upper-endpoint size comes out as d in the trivial range,
    d + k through the Mid regime, and at least d + 1 + s beyond the
    threshold.
    """
    return _assemble(regime_of(n, d), compact=compact)


def build_partition_k3(d: int, compact: bool = False) -> Build:
    """The dedicated construction at n = 4d + 3: the base family at
    density 4 (which covers every (d+1)-set, asserted with zero
    exceptions), a filtered level at d+2 with density 2, and a trivial
    remainder from size d + 3 up.  Minimum upper size is exactly d + 3."""
    if d < 1:
        raise PreconditionViolatedError(f"need d >= 1, got {d}")
    return _assemble(regime_of(4 * d + 3, d), k3=True, compact=compact)


def interval_family(n: int, d: int, l: int, s: int) -> IntervalFamily:
    """One interval per (d+l)-subset of [n], upper size d + l + s; the
    family is pairwise disjoint (an overlap is an internal error).  Lower
    endpoints run in lexicographic order."""
    layers, _, _ = _run_layers(n, [(d + l, s)])
    return layers[0]


def certify_layered(
    n: int, d: int, cap: int = DEFAULT_SWEEP_CAP, use_k3: bool = False
) -> Build | None:
    """The compact build within ``cap``: only the layered part is built and
    checked, and the trivial remainder stays implicit.

    Sound because a singleton [D, D] for an uncovered D meets no other
    interval (an interval containing D would have covered it), so the
    layered selection plus implicit singletons is a partition whose
    minimum upper size is the smaller of the layered minimum and the
    smallest uncovered size.  Returns None when even the layered sweep
    would exceed ``cap`` enumerated subsets, or when [n] is wider than a
    mask holds.
    """
    reg = regime_of(n, d)
    if n > bitops.MAX_UNIVERSE or _sweep_estimate(n, _plan_for(reg, use_k3)) > cap:
        return None
    return _assemble(reg, use_k3, compact=True, sweep_cap=cap)
