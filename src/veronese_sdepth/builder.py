"""Layer-by-layer construction of compact interval partitions of the
(n, d) poset.

The poset consists of every subset of [n] of size at least d.  The builder
stacks interval families level by level, keeps an interval only when its
lower endpoint is not already covered, and leaves every remaining set to
an implicit singleton interval [D, D]:

  TrivialRange (d <= n <= 2d)  everything trivial.
  K1                           one family at density 2.
  K2                           density 3, then a filtered level at density 2.
  Mid (3 <= k, n <= threshold) density k+1, then k-1 filtered levels at k.
  Large (n > threshold)        density k+1, then s filtered levels at s+1,
                               s = large_n_density_shift(n, d).

Every other plan is the base (d, k) under s filtered levels from d + first
at density s + 1, and claims d + first + s (d + k through the Mid regime),
the first size selection leaves uncovered.  first = 1 but in the k3
construction at n = 4d + 3 (k = 3, s = 1), whose density-4 base covers
every (d+1)-set as well.  A partition lists only the layered intervals;
the verifier, not the builder, re-derives the minimum and checks the claim.
``build_partition``, ``build_partition_k3`` and ``certify_layered`` all
return one ``Build(partition, trace)``.  Disjointness of a kept interval
against earlier layers follows from the families' closure property (for
the base family) and the cross-level disjointness hypotheses, which for
the filtered layers of one plan reduce to the levels being increasing at
a common density; the builder does not re-check it, the verifier does.

A build lists only what its claim needs.  The top layer sits at the claim
minus one, so when it is a filtered layer of density above 2, each of its
intervals [L, U] is cut, as soon as it is closed, to [L, L + x], x the
lowest member of U not in L.  That interval lies inside [L, U], so the
list stays disjoint, and every set the cut drops has at least the claimed
size, so as an implicit singleton it does not lower the minimum.  Since
the layers are disjoint, the plan predicts each layer's kept count, which
every build checks, and the listed volume V, the sum of 2^s over the kept
intervals below the top layer plus 2^min(s, 1) over the top one
(``predicted_volume``): every build is refused in one place,
``build_refusal``, when [n] is wider than a mask holds or V, the quantity
``verify --cap`` bounds, exceeds its cap; it counts poset - V singletons.

Candidate lower endpoints run in lexicographic order within each layer,
so identical inputs produce byte-identical partitions.  Bulk storage is
numpy mask arrays throughout: candidates come from
``bitops.lex_combinations`` as level x N blocks, one column per set,
which the mask kernels read along whole contiguous rows; they are closed
in fixed-size batches by ``lifting.closure_upper_masks``, and the whole
selection is one pair of parallel lower and upper arrays, allocated once
from the predicted counts, into which each batch writes its layer's
kept intervals.  Each layer's coverage comes from one mechanism.  The
base layer is the whole family, one interval per level set, so whether
it covers a candidate is read off the candidate's own members
(``lifting.family_covers``), and the base is never expanded.  A filtered
layer lists only its uncovered lowers, so the levels it covers get one
record each, a flag per level set at its lexicographic rank
(``bitops.lex_ranks``).  Since candidates are swept in lexicographic
order, a candidate's rank is its position in the sweep, so each batch
reads its flags as one slice.  Each batch of kept intervals is closed,
expanded to flag what it covers, cut to the claim and written in one
step, so a layer is swept once and no temporary outlives its batch.
Each layer counts what it keeps as it sweeps, writes no more than its
slot, and is refused after the sweep when the count leaves the
prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import bitops
from .core import (
    DEFAULT_SWEEP_CAP,
    MAX_UNIVERSE,
    CircularSet,
    Regime,
    RegimeDecomposition,
    large_n_density_shift,
    regime_of,
)
from .errors import (
    InternalCheckError,
    InvalidPartitionError,
    PreconditionViolatedError,
)
from .lifting import (
    PosetInterval,
    closure_upper_mask,
    closure_upper_masks,
    family_covers,
    validate_lift_params,
)

# Level sets per batch of the layer loop.
_CHUNK = 1 << 15


@dataclass(frozen=True)
class LayerTrace:
    tag: str
    level_size: int
    density: int
    candidates: int
    selected: int

    @property
    def discarded(self) -> int:
        return self.candidates - self.selected


@dataclass(frozen=True)
class BuilderTrace:
    layers: tuple[LayerTrace, ...]
    trivial_count: int


def listed_volume(lowers: np.ndarray, uppers: np.ndarray) -> int:
    """How many sets the intervals [lowers[i], uppers[i]] declare: the sum
    of 2^(|upper| - |lower|), without expanding any interval."""
    diffs = bitops.value_counts(bitops.popcounts(uppers & ~lowers))
    return sum(c << s for s, c in enumerate(diffs))


class IntervalPartition:
    """An ordered list of intervals over [n], stored as parallel mask arrays,
    holding exactly what its certificate file holds.  Its ``regime`` is
    ``regime_of(n, d)``, computed on demand, never stored.

    With ``claimed_min`` None the partition is explicit: every poset set
    lies in a listed interval.  Otherwise it is compact: every set no
    listed interval holds is an implicit singleton [D, D], and the whole
    partition claims ``claimed_min`` as its minimum upper size.
    """

    def __init__(
        self,
        n: int,
        d: int,
        lowers: np.ndarray,
        uppers: np.ndarray,
        claimed_min: int | None = None,
    ):
        if len(lowers) != len(uppers):
            raise InvalidPartitionError("parallel interval arrays differ in length")
        # Each check runs over every block before the next starts, so the
        # first failing check names the fault; no temporary is longer
        # than a block.
        blocks = [slice(lo, lo + _CHUNK) for lo in range(0, len(lowers), _CHUNK)]
        if any(np.any(lowers[b] & ~uppers[b]) for b in blocks):
            raise InvalidPartitionError("a lower endpoint is not inside its upper")
        if n < 8 * lowers.dtype.itemsize and any(np.any(uppers[b] >> n) for b in blocks):
            raise InvalidPartitionError(f"an interval leaves the universe [{n}]")
        if any(int(bitops.popcounts(lowers[b]).min()) < d for b in blocks):
            raise InvalidPartitionError(f"a lower endpoint is smaller than d={d}")
        self.n = n
        self.d = d
        self.lowers = lowers
        self.uppers = uppers
        self.claimed_min = claimed_min

    @property
    def regime(self) -> RegimeDecomposition:
        return regime_of(self.n, self.d)

    def __len__(self) -> int:
        return len(self.lowers)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalPartition):
            return NotImplemented
        return (
            self.n == other.n
            and self.d == other.d
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
        """How many sets the listed intervals declare (``listed_volume``)."""
        return listed_volume(self.lowers, self.uppers)


class Build(NamedTuple):
    """What every construction returns: the compact partition and how its
    layers were selected.  The lowers list each layer's selection in plan
    order, ``trace.layers[i].selected`` of them."""

    partition: IntervalPartition
    trace: BuilderTrace


class _Plan(NamedTuple):
    """What one construction stacks: the (level, s) layers, and the
    minimum upper size the partition claims, which the verifier checks."""

    layers: list[tuple[int, int]]
    min_upper: int


def _plan_for(reg: RegimeDecomposition, k3: bool = False) -> _Plan:
    n, d, k = reg.n, reg.d, reg.k
    if k3 and n != 4 * d + 3:
        raise PreconditionViolatedError(
            f"the k3 construction needs n = 4d + 3 = {4 * d + 3}, got n={n}"
        )
    if reg.regime is Regime.TRIVIAL_RANGE:
        return _Plan([], d)
    # One base family at density k + 1 under s filtered levels from d + first
    # that share density s + 1: s = k - 1 up to the threshold (none for K1,
    # one for K2).  The k3 plan (k = 3) has one at d + 2: its density-4 base
    # covers every (d+1)-set as well, so level d + 1 needs no layer.
    s = large_n_density_shift(n, d) if reg.regime is Regime.LARGE else k - 1
    first, s = (2, 1) if k3 else (1, s)
    layers = [(d, k)] + [(d + q, s) for q in range(first, first + s)]
    # Every level below d + first + s ends up covered, so every uncovered
    # set, and every layered upper endpoint, has at least that size.
    return _Plan(layers, d + first + s)


def _check_plan(plan: Sequence[tuple[int, int]]) -> None:
    # Filtered layers must share one density with strictly increasing levels:
    # cross-level disjointness at a common density needs only that ordering.
    levels = [lv for lv, _ in plan]
    if levels != sorted(set(levels)):
        raise InternalCheckError("layer levels must be strictly increasing")
    if len({s for _, s in plan[1:]}) > 1:
        raise InternalCheckError("filtered layers must share a single density")


def _run_layers(
    n: int, plan: Sequence[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray, list[LayerTrace]]:
    """Select intervals layer by layer.

    Returns the lower and upper masks of the whole selection, each layer's
    in plan order, ``traces[i].selected`` of them, and the per-layer
    counts.  Both arrays are allocated once, sized by ``_predicted_kept``,
    and each layer fills its own slot of them as it sweeps.  Candidates
    run in lexicographic order, in chunks of ``_CHUNK`` level sets, so the
    candidate at sweep position p has lexicographic rank p; the first of
    each chunk has its rank re-derived by the scalar ``bitops.lex_rank``,
    and a sweep that runs past C(n, level) sets is refused before it
    writes past its slot.  A filtered layer drops the candidates that the
    base family covers, by ``lifting.family_covers`` on each chunk, and
    those whose rank is flagged covered by earlier filtered layers; an
    interval never covers another set of its own level, so this is the
    same as filtering one candidate at a time.  The kept candidates'
    masks are computed once and closed by the batched closure, whose
    first set is re-derived by the scalar ``closure_upper_mask``.  A
    filtered layer that covers a size a later layer filters expands the
    chunk's kept intervals and flags those members (``_flag_covered``);
    a level's flags are made when the first layer that covers it starts.
    The base layer is never expanded.  A layer that ``_listed_free``
    lists with fewer than s free members is then cut to [L, L + x], x
    the lowest member of U not in L, and the chunk is written into the
    layer's slot; a layer that keeps more than predicted stops writing
    at the slot's end, is counted to the end of its sweep and then
    refused, as is one that keeps fewer.  Disjointness and coverage of
    the whole selection are left to the verifier.
    """
    _check_plan(plan)
    predicted = _predicted_kept(n, plan)
    free = _listed_free(plan)
    flags: dict[int, np.ndarray | None] = {lv: None for lv, _ in plan[1:]}
    dtype = bitops.mask_dtype(n)
    all_lowers = np.empty(sum(predicted), dtype=dtype)
    all_uppers = np.empty(sum(predicted), dtype=dtype)
    base = 0
    traces: list[LayerTrace] = []
    for idx, (level, s) in enumerate(plan):
        validate_lift_params(n, level, s)
        slot = slice(base, base + predicted[idx])
        lo_slot, up_slot = all_lowers[slot], all_uppers[slot]
        base = slot.stop
        total = comb(n, level)
        taken = flags.pop(level, None)
        # Only filtered layers flag: ``family_covers`` answers for the base.
        sizes = [j for j in flags if level < j <= level + s] if idx else []
        for j in sizes:
            if flags[j] is None:
                flags[j] = np.zeros(comb(n, j), dtype=bool)
        # The base layer (level l, s free members) covers levels l+1 .. l+s.
        under_base = idx > 0 and level <= sum(plan[0])
        start = selected = 0
        for sets in bitops.lex_combinations(n, level, _CHUNK):
            first = tuple(sets[:, 0].tolist())
            if bitops.lex_rank(first, n) != start:
                raise InternalCheckError(
                    f"{first} is swept at position {start}, not at its lexicographic rank"
                )
            end = start + sets.shape[1]
            if end > total:
                raise InternalCheckError(
                    f"the sweep of level {level} visited {end} of {total} sets"
                )
            drop = None if taken is None else taken[start:end]
            if under_base:
                in_base = family_covers(n, *plan[0], sets)
                drop = in_base if drop is None else drop | in_base
            if drop is not None:
                sets = np.compress(~drop, sets, axis=1)
            start = end
            if not sets.shape[1]:
                continue
            lowers = bitops.row_masks(sets, n)
            uppers = closure_upper_masks(n, level, s, sets, lowers)
            first = tuple(sets[:, 0].tolist())
            if closure_upper_mask(n, level, s, first) != int(uppers[0]):
                raise InternalCheckError(
                    f"batched closure of {first} disagrees with the scalar path"
                )
            if sizes:
                members = bitops.expand_uniform(lowers, uppers, s)
                # Every row holds sets of one size: the lowers share a size.
                row_sizes = bitops.popcounts(members[:, 0])
                for j in sizes:
                    _flag_covered(flags[j], members[row_sizes == j].ravel(), n, j)
            if free[idx] < s:
                # [L, U] becomes [L, L + x], x the lowest member of U not in L.
                uppers ^= lowers
                uppers &= -uppers
                uppers |= lowers
            room = lo_slot[selected : selected + len(lowers)].size
            lo_slot[selected : selected + room] = lowers[:room]
            up_slot[selected : selected + room] = uppers[:room]
            selected += len(lowers)
        if start != total:
            raise InternalCheckError(f"the sweep of level {level} visited {start} of {total} sets")
        tag = f"I[{n},{level},{s + 1}]"
        if selected != predicted[idx]:
            raise InternalCheckError(
                f"layer {tag} kept {selected} intervals where {predicted[idx]} were predicted"
            )
        traces.append(LayerTrace(tag, level, s + 1, total, selected))
    return all_lowers, all_uppers, traces


def _flag_covered(flags: np.ndarray, covered: np.ndarray, n: int, level: int) -> None:
    """Set ``flags[r]``, one flag per ``level``-subset of [n], for the
    lexicographic rank r of each of the ``covered`` sets, which all have
    this size.  The sets are ranked ``_CHUNK`` at a time, so only a block
    of ranks exists at once.  A rank outside the level is an internal
    error rather than a wrapped index; a set flagged twice leaves the
    level one flag short, so its layer keeps one interval more than
    predicted, which ``_run_layers`` refuses after the sweep."""
    for lo in range(0, covered.size, _CHUNK):
        ranks = bitops.lex_ranks(covered[lo : lo + _CHUNK], n, level)
        if ranks.size and (int(ranks.min()) < 0 or int(ranks.max()) >= flags.size):
            raise InternalCheckError(
                f"a covered {level}-set ranks outside [0, {flags.size}) in the sweep"
            )
        flags[ranks] = True


def _predicted_kept(n: int, plan: Sequence[tuple[int, int]]) -> list[int]:
    """How many intervals each (disjoint) layer keeps: C(n, level), less
    c * C(s, level - l) for each earlier layer at level l that kept c
    intervals with s free members."""
    kept: list[int] = []
    for level, _ in plan:
        held = sum(c * comb(s, level - lv) for c, (lv, s) in zip(kept, plan))
        kept.append(comb(n, level) - held)
    return kept


def _listed_free(plan: Sequence[tuple[int, int]]) -> list[int]:
    """How many free members each layer's intervals list: s, but one in a
    filtered top layer of s >= 2, whose intervals ``_run_layers`` cuts to
    the claim.  A one-layer plan is never cut: the only such build is K1,
    at s = 1, and ``interval_family`` lists its family whole."""
    free = [s for _, s in plan]
    if len(plan) > 1:
        free[-1] = min(free[-1], 1)
    return free


def predicted_volume(n: int, d: int, k3: bool = False) -> int:
    """The (n, d) build's listed volume, the sum of kept * 2^f over its
    layers, with f = s below the top layer and f = min(s, 1) in it: the
    top layer, one level below the claim, lists each interval [L, U] as
    [L, L + x] (``_listed_free``), and every set that leaves the list has
    at least the claimed size, so it is an implicit singleton."""
    plan = _plan_for(regime_of(n, d), k3).layers
    return sum(c << f for c, f in zip(_predicted_kept(n, plan), _listed_free(plan)))


def build_refusal(n: int, d: int, cap: int, k3: bool = False) -> str | None:
    """Why the (n, d) build does not run within ``cap``, or None when it
    does.  [n] wider than a mask holds is checked first, so no plan is
    priced for it; then the plan's listed volume must not exceed ``cap``."""
    if n > MAX_UNIVERSE:
        return f"n={n} is wider than a mask holds ({MAX_UNIVERSE})"
    volume = predicted_volume(n, d, k3)
    if volume > cap:
        return (
            f"the layered sweep at n={n}, d={d} would list {volume} sets, "
            f"beyond the enumeration cap {cap}"
        )
    return None


def _assemble(n: int, d: int, k3: bool = False, cap: int = 1 << 26) -> Build:
    """The (n, d) build, refused by ``build_refusal`` beyond ``cap``: the
    plan's layers as ``_run_layers`` selects them, which cuts each
    interval of a filtered top layer of density above 2 to an upper
    endpoint one above its lower.  That is sound without the verifier
    when the top level is the claim minus one, which is checked before
    the sweep: a cut interval lies inside the uncut one, and only sets of
    at least the claimed size leave the list, for implicit singletons.
    The trace's trivial count is poset - ``predicted_volume``, which
    prices the cut list."""
    why = build_refusal(n, d, cap, k3)
    if why is not None:
        raise PreconditionViolatedError(why)
    plan = _plan_for(regime_of(n, d), k3)
    if plan.layers and _listed_free(plan.layers)[-1] < plan.layers[-1][1]:
        level = plan.layers[-1][0]
        if level != plan.min_upper - 1:
            raise InternalCheckError(
                f"the top layer at level {level} is not one below the claim {plan.min_upper}"
            )
    lowers, uppers, traces = _run_layers(n, plan.layers)
    part = IntervalPartition(n, d, lowers, uppers, plan.min_upper)
    poset = sum(comb(n, size) for size in range(d, n + 1))
    return Build(part, BuilderTrace(tuple(traces), poset - predicted_volume(n, d, k3)))


def build_partition(n: int, d: int) -> Build:
    """Construct the compact partition for (n, d): the layered intervals
    and the minimum upper size they claim with the implicit singletons.

    The claim is the plan's closed form: d in the trivial range, d + k
    through the Mid regime, and d + 1 + s beyond the threshold.  The
    builder does not check it; ``verify_partition`` does.  A plan whose
    listed volume exceeds 2^26 sets is refused with
    ``PreconditionViolatedError`` before anything is swept.
    """
    return _assemble(n, d)


def build_partition_k3(d: int) -> Build:
    """The dedicated construction at n = 4d + 3: the base family at
    density 4 (which covers every (d+1)-set, so none is left to a
    singleton of size d + 1), a filtered level at d+2 with density 2, and
    a trivial remainder from size d + 3 up.  The claim is d + 3, which
    ``verify_partition`` checks.  As in ``build_partition``, a listed
    volume beyond 2^26 sets is refused with ``PreconditionViolatedError``."""
    return _assemble(4 * d + 3, d, k3=True)


def interval_family(n: int, d: int, l: int, s: int) -> IntervalPartition:
    """One interval per (d+l)-subset of [n], upper size d + l + s, in
    lexicographic order of the lower endpoints: an ``IntervalPartition``
    with no claim.  The family is pairwise disjoint by the closure
    property, which the builder does not re-check."""
    lowers, uppers, _ = _run_layers(n, [(d + l, s)])
    return IntervalPartition(n, d, lowers, uppers)


def certify_layered(
    n: int, d: int, cap: int = DEFAULT_SWEEP_CAP, use_k3: bool = False
) -> Build | None:
    """The build with its listed volume bounded by ``cap`` rather than by
    the default 2^26: only the layered part is built, and the trivial
    remainder stays implicit.

    Sound because a singleton [D, D] for an uncovered D meets no other
    interval (an interval containing D would have covered it), so the
    layered selection plus implicit singletons is a partition whose
    minimum upper size is the smaller of the layered minimum and the
    smallest uncovered size.  Returns None when ``build_refusal`` refuses
    the build.
    """
    if build_refusal(n, d, cap, use_k3) is not None:
        return None
    return _assemble(n, d, use_k3, cap)
