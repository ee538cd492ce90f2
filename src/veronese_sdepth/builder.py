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

Selection makes every set of the visited sizes covered, so the trivial
remainder starts at the next size up.  A partition lists only the layered
intervals and claims the plan's closed-form minimum upper size: d + k
through the Mid regime, d + 1 + s beyond the threshold and d + 3 at
n = 4d + 3.  The builder does not count what its layers cover; the
verifier re-derives the minimum and checks that it reaches the claim.
``build_partition``, ``build_partition_k3`` and ``certify_layered`` all
return one ``Build(partition, trace)``.  Disjointness of a kept interval
against earlier layers follows from the families' closure property (for
the base family) and the cross-level disjointness hypotheses, which for
the filtered layers of one plan reduce to the levels being increasing at
a common density; the builder does not re-check it, the verifier does.

Candidate lower endpoints run in lexicographic order within each layer,
so identical inputs produce byte-identical partitions.  Bulk storage is
numpy mask arrays throughout: candidates come from
``bitops.lex_combinations`` as level x N blocks, one column per set,
which the mask kernels read along whole contiguous rows; they are closed
in fixed-size batches by ``lifting.closure_upper_masks``, and each family
keeps parallel lower and upper arrays.  Covered sets are kept only for
the sizes a later layer filters, one member array per size, and the
trivial count is the poset size less the selected volume.  A filtered
level does not search its member array: it ranks those sets
(``bitops.lex_ranks``) into one flag per level set, and since candidates
are swept in lexicographic order, a candidate's rank is its position in
the sweep, so each batch reads its flags as one slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import bitops
from .core import (
    DEFAULT_SWEEP_CAP,
    MATERIALIZE_LIMIT,
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
    IntervalFamily,
    PosetInterval,
    closure_upper_mask,
    closure_upper_masks,
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
        if len(lowers):
            if np.any(lowers & ~uppers):
                raise InvalidPartitionError("a lower endpoint is not inside its upper")
            if n < 8 * lowers.dtype.itemsize and np.any(uppers >> n):
                raise InvalidPartitionError(f"an interval leaves the universe [{n}]")
            if int(bitops.popcounts(lowers).min()) < d:
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
        """How many sets the listed intervals declare: the sum of
        2^(|upper| - |lower|), without expanding any interval."""
        diffs = np.bincount(bitops.popcounts(self.uppers & ~self.lowers), minlength=1)
        return sum(int(c) << s for s, c in enumerate(diffs.tolist()))


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
    if k3:
        if n != 4 * d + 3:
            raise PreconditionViolatedError("the k3 construction needs n = 4d + 3")
        # The density-4 base covers every (d+1)-set as well, so the
        # remainder starts at d + 3.
        return _Plan([(d, 3), (d + 2, 1)], d + 3)
    if reg.regime is Regime.TRIVIAL_RANGE:
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
    # The layer levels run contiguously up from d and all end up covered,
    # so every uncovered set, and every layered upper endpoint, has at
    # least the next size.
    return _Plan(layers, d + len(layers))


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
) -> tuple[list[IntervalFamily], list[LayerTrace]]:
    """Select intervals layer by layer.

    Returns the selected families and per-layer counts.  Candidates run in
    lexicographic order, in chunks of ``_CHUNK`` level sets, so the
    candidate at sweep position p has lexicographic rank p; the first of
    each chunk has its rank re-derived by the scalar ``bitops.lex_rank``.
    A filtered layer drops the candidates whose rank is flagged covered by
    earlier layers (``_covered_flags``); an interval never covers another
    set of its own level, so this is the same as filtering one candidate
    at a time.  The kept candidates' masks are computed once and closed by
    the batched closure, whose first set is re-derived by the scalar
    ``closure_upper_mask``.  Members are expanded only for the sizes a
    later layer filters, one array per size, from the rows of the
    expansion that hold that many members.  Disjointness and coverage
    of the whole selection are left to the verifier.
    """
    _check_plan(plan)
    kept: dict[int, list[np.ndarray]] = {lv: [] for lv, _ in plan[1:]}
    empty = np.empty(0, dtype=bitops.mask_dtype(n))
    layers: list[IntervalFamily] = []
    traces: list[LayerTrace] = []
    for idx, (level, s) in enumerate(plan):
        validate_lift_params(n, level, s)
        lo_parts, up_parts = [empty], [empty]
        taken = None
        if idx:
            taken = _covered_flags(n, level, np.concatenate([empty, *kept.pop(level)]))
        start = 0
        for sets in bitops.lex_combinations(n, level, _CHUNK):
            first = tuple(sets[:, 0].tolist())
            if bitops.lex_rank(first, n) != start:
                raise InternalCheckError(
                    f"{first} is swept at position {start}, not at its lexicographic rank"
                )
            end = start + sets.shape[1]
            if taken is not None:
                sets = np.compress(~taken[start:end], sets, axis=1)
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
            lo_parts.append(lowers)
            up_parts.append(uppers)
        candidates = start
        if candidates != comb(n, level):
            raise InternalCheckError(
                f"the sweep of level {level} visited {candidates} of {comb(n, level)} sets"
            )
        lowers, uppers = np.concatenate(lo_parts), np.concatenate(up_parts)
        sizes = [j for j in kept if level < j <= level + s]
        if sizes and len(lowers):
            members = bitops.expand_uniform(lowers, uppers, s)
            # Row c of the expansion adds s - popcount(c) free members.
            added = s - bitops.popcounts(np.arange(1 << s))
            for j in sizes:
                kept[j].append(members[added == j - level].ravel())
        tag = f"I[{n},{level},{s + 1}]"
        layers.append(IntervalFamily(n, lowers, uppers))
        traces.append(LayerTrace(tag, level, s + 1, candidates, len(lowers)))
    return layers, traces


def _covered_flags(n: int, level: int, covered: np.ndarray) -> np.ndarray:
    """One flag per ``level``-subset of [n], at its lexicographic rank,
    set for each of the ``covered`` sets, which all have this size.  The
    flags are as many as the sweep's candidates, and are set ``_CHUNK``
    covered sets at a time, so only a block of ranks exists at once.  A
    rank outside the level, or two sets of one rank, is an internal error
    rather than a wrapped or merged index."""
    flags = np.zeros(comb(n, level), dtype=bool)
    for lo in range(0, covered.size, _CHUNK):
        ranks = bitops.lex_ranks(covered[lo : lo + _CHUNK], n, level)
        if ranks.size and (int(ranks.min()) < 0 or int(ranks.max()) >= flags.size):
            raise InternalCheckError(
                f"a covered {level}-set ranks outside [0, {flags.size}) in the sweep"
            )
        flags[ranks] = True
    if np.count_nonzero(flags) != covered.size:
        raise InternalCheckError(f"two covered {level}-sets share a lexicographic rank")
    return flags


def _sweep_estimate(n: int, plan: _Plan) -> int:
    """A bound on the sets the layer sweep handles: every candidate of a
    layer, plus the 2^s members of each one it keeps."""
    return sum(comb(n, level) * ((1 << s) + 1) for level, s in plan.layers)


def _assemble(
    reg: RegimeDecomposition, k3: bool = False, sweep_cap: int = 1 << MATERIALIZE_LIMIT
) -> Build:
    n, d = reg.n, reg.d
    plan = _plan_for(reg, k3)
    # Only the layered sweep is enumerated; by default it may be as large
    # as listing all 2^n sets at MATERIALIZE_LIMIT.
    sweep = _sweep_estimate(n, plan)
    if sweep > sweep_cap:
        raise PreconditionViolatedError(
            f"the layered sweep at n={n}, d={d} would handle about "
            f"{sweep} sets, beyond the cap {sweep_cap}"
        )
    layers, traces = _run_layers(n, plan.layers)
    empty = np.empty(0, dtype=bitops.mask_dtype(n))
    part = IntervalPartition(
        n,
        d,
        np.concatenate([empty, *(fam.lowers for fam in layers)]),
        np.concatenate([empty, *(fam.uppers for fam in layers)]),
        plan.min_upper,
    )
    # Each selected interval holds 2^s sets; the rest of the poset is
    # left to implicit singletons.
    poset = sum(comb(n, size) for size in range(d, n + 1))
    trivial = poset - sum(t.selected << (t.density - 1) for t in traces)
    return Build(part, BuilderTrace(tuple(traces), trivial))


def build_partition(n: int, d: int) -> Build:
    """Construct the compact partition for (n, d): the layered intervals
    and the minimum upper size they claim with the implicit singletons.

    The claim is the plan's closed form: d in the trivial range, d + k
    through the Mid regime, and d + 1 + s beyond the threshold.  The
    builder does not check it; ``verify_partition`` does.
    """
    return _assemble(regime_of(n, d))


def build_partition_k3(d: int) -> Build:
    """The dedicated construction at n = 4d + 3: the base family at
    density 4 (which covers every (d+1)-set, so none is left to a
    singleton of size d + 1), a filtered level at d+2 with density 2, and
    a trivial remainder from size d + 3 up.  The claim is d + 3, which
    ``verify_partition`` checks."""
    if d < 1:
        raise PreconditionViolatedError(f"need d >= 1, got {d}")
    return _assemble(regime_of(4 * d + 3, d), k3=True)


def interval_family(n: int, d: int, l: int, s: int) -> IntervalFamily:
    """One interval per (d+l)-subset of [n], upper size d + l + s, in
    lexicographic order of the lower endpoints.  The family is pairwise
    disjoint by the closure property, which the builder does not
    re-check."""
    layers, _ = _run_layers(n, [(d + l, s)])
    return layers[0]


def certify_layered(
    n: int, d: int, cap: int = DEFAULT_SWEEP_CAP, use_k3: bool = False
) -> Build | None:
    """The build with its layered sweep bounded by ``cap`` rather than by
    the default: only the layered part is built, and the trivial
    remainder stays implicit.

    Sound because a singleton [D, D] for an uncovered D meets no other
    interval (an interval containing D would have covered it), so the
    layered selection plus implicit singletons is a partition whose
    minimum upper size is the smaller of the layered minimum and the
    smallest uncovered size.  Returns None when even the layered sweep
    would exceed ``cap`` enumerated subsets, or when [n] is wider than a
    mask holds.
    """
    reg = regime_of(n, d)
    if n > MAX_UNIVERSE or _sweep_estimate(n, _plan_for(reg, use_k3)) > cap:
        return None
    return _assemble(reg, use_k3, sweep_cap=cap)
