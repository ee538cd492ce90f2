"""Independent brute-force oracles used by the tests.

The structure enumerator deliberately shares no algorithmic machinery with
the package: it derives block lengths straight from the defining
conditions and validates every candidate, so it can confirm existence and
uniqueness of block structures without trusting the production scan.

``per_subset_layers`` is a frozen copy of the builder's original layer
loop, one scalar closure and one Python-set update per level set; the
batched layer engine is checked against it.

``covered_by_definition`` and ``superset_closure_by_definition`` answer
the coverage and superset-closure probes straight from their definitions,
enumerating every proper superset; ``lifting`` is checked against them.

``write_partition_file_per_line`` and ``parse_partition_file_per_line``
are frozen copies of the original certificate writer and parser, one
Python string per interval and one text line at a time; the block codec
is checked against them.  The parser splits the file's bytes at LF, CR
and CR LF, as a text file read with ``newline=""`` is split, and decodes
each line as ASCII when it reaches it (``ascii_lines``), so a non-ASCII
byte is named by its line.

``materialize`` is a frozen copy of the builder's former trivial
completion: it turns a compact partition into the explicit one, its
listed intervals followed by every implicit singleton in increasing size
and lexicographic order within a size.  ``verify_compact_by_materializing``
checks a compact partition the slow way: it materializes it, runs the
explicit verifier and then compares the minimum with the claim; the
compact verifier is checked against it.

``verify_by_definition`` answers ``verify_partition`` from a count of
every member of every listed interval, taken one subset of [n] at a time,
with each witness picked straight from its definition; the verifier's
counts from the interval list are checked against it.

``searchsorted_layers`` is a frozen copy of the batched layer loop as it
filtered before rank flags: every chunk's candidate masks binary-searched
in the ascending covered sets of their size (``bitops.member_lookup``),
and every layer's members merged into one sorted covered array.  It
returns the whole selection as one lower and one upper array, each
layer's in plan order, as the builder does; the rank-indexed filter is
checked against it.  Both reference loops check
that the base layer covers every set of the ``ensure`` sizes; the builder
leaves that to the verifier.  ``lex_rank_by_counting``
ranks a subset mask by counting, position by position, the subsets that
come before it; ``bitops.lex_ranks`` is checked against it.

``exact_sdepth_unrestricted`` is a frozen copy of the original exact
oracle: a recursive search over every upper size >= t with the counting
prune on; the oracle restricted to upper size exactly t is checked
against it.  ``cover_feasible_building_every_candidate`` is a frozen copy
of that restricted search as it was before the blocked skip: it builds
and tests the members of every candidate, in the same order; the
oracle's search, which never builds a blocked one, is checked against
it for equal answers, target by target.
"""

import re
from itertools import combinations
from math import comb

import numpy as np

from veronese_sdepth import bitops
from veronese_sdepth.builder import _CHUNK, IntervalPartition, _check_plan
from veronese_sdepth.core import (
    MAX_UNIVERSE,
    CircularSet,
    mask_of,
    members_of,
    regime_of,
    submasks,
)
from veronese_sdepth.errors import InternalCheckError, PartitionFileError
from veronese_sdepth.oracle import DEFAULT_ORACLE_BUDGET
from veronese_sdepth.verify import VerificationVerdict, verify_partition
from veronese_sdepth.lifting import (
    closure_upper_mask,
    closure_upper_masks,
    validate_lift_params,
)


def alternating_structures(n, members, num, den):
    """Every alternating block/gap partition of the circle [n] satisfying
    the four block conditions for the set ``members`` at density num/den.

    Enumerates all candidate block-start subsets of the set; given the
    starts, the gap-free condition forces which elements each block must
    swallow and the length window condition forces the block length, so
    each start set yields at most one candidate, which is then checked
    against every condition directly.  Returns canonical chains: tuples of
    (start, block_length, gap_length) with the smallest start first.
    """
    members = sorted(members)
    found = set()
    for p in range(1, len(members) + 1):
        for starts in combinations(members, p):
            chain = []
            ok = True
            for i, start in enumerate(starts):
                nxt = starts[(i + 1) % p]
                dist = (nxt - start) % n or n
                offsets = sorted((x - start) % n for x in members if (x - start) % n < dist)
                t = len(offsets)
                length = num * t // den
                # length window: num*t - den < den*length <= num*t
                if not (num * t - den < den * length <= num * t):
                    ok = False
                    break
                if length < 1 or length > dist:
                    ok = False
                    break
                # every element of the arc must sit inside the block,
                # otherwise the following gap would contain one
                if offsets[-1] >= length:
                    ok = False
                    break
                # prefix sparsity: den*(P+1) <= num*inside for P < length
                inside = 0
                j = 0
                for prefix in range(1, length):
                    while j < t and offsets[j] < prefix:
                        inside += 1
                        j += 1
                    if den * (prefix + 1) > num * inside:
                        ok = False
                        break
                if not ok:
                    break
                chain.append((start, length, dist - length))
            if ok:
                found.add(tuple(chain))
    return found


def chain_of(bs):
    """Canonical (start, block_length, gap_length) chain of a BlockStructure."""
    return tuple(
        (b.start, b.length, 0 if g is None else g.length)
        for b, g in zip(bs.blocks, bs.gaps)
    )


def brute_half_odd_sqrt(x):
    """Largest t with (2t - 1)^2 <= x, by plain search."""
    t = 0
    while (2 * (t + 1) - 1) ** 2 <= x:
        t += 1
    return t


def covered_by_definition(dmask, intervals):
    """Some (lower, upper) mask pair of ``intervals`` has lower <= dmask <= upper."""
    return any(lo & ~dmask == 0 and dmask & ~up == 0 for lo, up in intervals)


def superset_closure_by_definition(n, dmask, intervals):
    """No proper superset of ``dmask`` inside [n] is covered by ``intervals``."""
    return not any(
        covered_by_definition(sup, intervals)
        for sup in range(1 << n)
        if sup != dmask and sup & dmask == dmask
    )


def per_subset_layers(n, plan, ensure=()):
    """Select intervals layer by layer, one level set at a time.

    Returns the lower -> upper table of each layer in selection order, the
    set of covered masks, and per-layer (tag, level, density, candidates,
    selected, discarded) tuples.
    """
    covered = set()
    tables = []
    traces = []
    for idx, (level, s) in enumerate(plan):
        validate_lift_params(n, level, s)
        table = {}
        candidates = 0
        volume = 1 << s
        for combo in combinations(range(1, n + 1), level):
            candidates += 1
            mask = mask_of(combo)
            if idx and mask in covered:
                continue
            upper = closure_upper_mask(n, level, s, combo)
            table[mask] = upper
            before = len(covered)
            covered.update(submasks(mask, upper))
            if len(covered) - before != volume:
                raise InternalCheckError(
                    f"interval at {combo} overlaps an earlier selection"
                )
        tag = f"I[{n},{level},{s + 1}]"
        tables.append(table)
        traces.append((tag, level, s + 1, candidates, len(table), candidates - len(table)))
        if idx == 0:
            for size in ensure:
                for combo in combinations(range(1, n + 1), size):
                    if mask_of(combo) not in covered:
                        raise InternalCheckError(
                            f"size-{size} set {combo} escaped the base layer"
                        )
    return tables, covered, traces


def searchsorted_layers(n, plan, ensure=()):
    """The selected lower and upper masks, each layer's in plan order, the
    covered array and per-layer (candidates, selected) of the batched
    layer loop, filtering each chunk by membership of its candidate masks
    in the covered sets of their size."""
    _check_plan(plan)
    covered = np.empty(0, dtype=bitops.mask_dtype(n))
    all_lowers, all_uppers, counts = [covered], [covered], []
    for idx, (level, s) in enumerate(plan):
        validate_lift_params(n, level, s)
        lo_parts, up_parts = [], []
        candidates = 0
        taken = covered[bitops.popcounts(covered) == level]
        for sets in bitops.lex_combinations(n, level, _CHUNK):
            candidates += sets.shape[1]
            lowers = bitops.row_masks(sets, n)
            if idx:
                fresh = ~bitops.member_lookup(lowers, taken)
                sets, lowers = sets[:, fresh], lowers[fresh]
                if not sets.shape[1]:
                    continue
            lo_parts.append(lowers)
            up_parts.append(closure_upper_masks(n, level, s, sets, lowers))
        lowers = np.concatenate(lo_parts) if lo_parts else covered[:0]
        uppers = np.concatenate(up_parts) if up_parts else covered[:0]
        covered = _add_covered(covered, lowers, uppers, s)
        all_lowers.append(lowers)
        all_uppers.append(uppers)
        counts.append((candidates, len(lowers)))
        if idx == 0:
            _check_ensured(n, covered, ensure)
    return np.concatenate(all_lowers), np.concatenate(all_uppers), covered, counts


def _add_covered(covered, lowers, uppers, s):
    members = bitops.expand_uniform(lowers, uppers, s).ravel()
    merged = np.concatenate([covered, members])
    merged.sort()
    if np.any(merged[1:] == merged[:-1]):
        raise InternalCheckError("a selected interval overlaps an earlier selection")
    return merged


def _check_ensured(n, covered, ensure):
    hist = np.bincount(bitops.popcounts(covered), minlength=n + 1)
    for size in ensure:
        if int(hist[size]) < comb(n, size):
            combo = bitops.first_absent(n, size, covered)
            raise InternalCheckError(f"size-{size} set {combo} escaped the base layer")


def lex_rank_by_counting(mask, n):
    """How many subsets of [n] of the size of ``mask`` come before it in
    lexicographic order: for each member a_i, those that agree with it
    below a_i and take some x with a_(i-1) < x < a_i as their i-th member,
    C(n - x, k - i) of them for each such x."""
    members = [i + 1 for i in range(n) if mask >> i & 1]
    k = len(members)
    rank, prev = 0, 0
    for i, a in enumerate(members, start=1):
        rank += sum(comb(n - x, k - i) for x in range(prev + 1, a))
        prev = a
    return rank


class _BudgetHit(Exception):
    pass


def exact_sdepth_unrestricted(n, d, budget=DEFAULT_ORACLE_BUDGET):
    """The largest target t with a feasible cover, or None when the budget
    of search nodes and candidate constructions runs out."""
    work = [budget]
    try:
        for t in range(n, d, -1):
            if _cover_feasible_unrestricted(n, d, t, work):
                return t
    except _BudgetHit:
        return None
    return d


def _cover_feasible_unrestricted(n, d, t, work):
    constrained = []
    for size in range(d, t):
        for combo in combinations(range(1, n + 1), size):
            constrained.append((mask_of(combo), combo))
    if not constrained:
        return True

    # uncovered[sz - d] counts uncovered sets of each size d..t.
    uncovered = [comb(n, sz) for sz in range(d, t + 1)]
    span = len(uncovered)

    cand_cache = {}

    def candidates(dmask, dmembers):
        cached = cand_cache.get(dmask)
        if cached is not None:
            return cached
        rest = [x for x in range(1, n + 1) if not dmask >> (x - 1) & 1]
        out = []
        for asize in range(d, len(dmembers) + 1):
            for alow in combinations(dmembers, asize):
                amask = mask_of(alow)
                for bsize in range(t, n + 1):
                    for extra in combinations(rest, bsize - len(dmembers)):
                        work[0] -= 1
                        if work[0] < 0:
                            raise _BudgetHit
                        bmask = dmask | mask_of(extra)
                        diff = bmask & ~amask
                        mems = []
                        hist = [0] * span
                        sub = diff
                        while True:
                            m = amask | sub
                            mems.append(m)
                            size = m.bit_count()
                            if size <= t:
                                hist[size - d] += 1
                            if not sub:
                                break
                            sub = (sub - 1) & diff
                        out.append((tuple(mems), tuple(hist)))
        cand_cache[dmask] = out
        return out

    covered = set()
    watch = {}

    def extend():
        work[0] -= 1
        if work[0] < 0:
            raise _BudgetHit
        for i in range(span - 1):
            if (i + 1) * uncovered[i + 1] < (t - d - i) * uncovered[i]:
                return False
        target = None
        for dmask, dmembers in constrained:
            if dmask not in covered:
                target = (dmask, dmembers)
                break
        if target is None:
            return True
        for dmask, dmembers in constrained:
            if dmask in covered:
                continue
            cl = candidates(dmask, dmembers)
            w = watch.get(dmask, 0)
            if covered.isdisjoint(cl[w][0]):
                continue
            for k in range(1, len(cl)):
                idx = (w + k) % len(cl)
                if covered.isdisjoint(cl[idx][0]):
                    watch[dmask] = idx
                    break
            else:
                return False
        for mems, hist in candidates(*target):
            if covered.isdisjoint(mems):
                covered.update(mems)
                for i, c in enumerate(hist):
                    uncovered[i] -= c
                if extend():
                    return True
                covered.difference_update(mems)
                for i, c in enumerate(hist):
                    uncovered[i] += c
        return False

    return extend()


def cover_feasible_building_every_candidate(n, d, t, work, counting_prune=True):
    """Is target t feasible?  The first uncovered constrained set D is
    covered by some [D, B] with |B| = t whose members, all built, are
    uncovered.  ``work`` bounds the search, and ``_BudgetHit`` is raised
    once it is overdrawn; only the answer is compared with the oracle."""

    def charge(units):
        work[0] -= units
        if work[0] < 0:
            raise _BudgetHit

    counts = [comb(n, k) for k in range(d, t + 1)]
    if counting_prune and any(
        (i + 1) * counts[i + 1] < (t - d - i) * counts[i] for i in range(len(counts) - 1)
    ):
        return False

    constrained = []
    for size in range(d, t):
        charge(counts[size - d])
        constrained.extend(map(mask_of, combinations(range(1, n + 1), size)))
    covered = set()

    def frame(pos):
        dmask = constrained[pos]
        rest = [x for x in range(1, n + 1) if not dmask >> (x - 1) & 1]
        return [pos, combinations(rest, t - dmask.bit_count()), ()]

    stack = [frame(0)]
    while stack:
        top = stack[-1]
        pos, extensions, applied = top
        covered.difference_update(applied)
        dmask = constrained[pos]
        for extra in extensions:
            charge(1 + (1 << len(extra)))
            members = tuple(submasks(dmask, dmask | mask_of(extra)))
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


def write_partition_file_per_line(p, path):
    names = [""] + [str(i) for i in range(1, p.n + 1)]

    def csv_of(mask):
        parts = []
        while mask:
            low = mask & -mask
            parts.append(names[low.bit_length()])
            mask ^= low
        return ",".join(parts)

    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"n={p.n} d={p.d} regime={p.regime.regime.value}\n")
        total = len(p)
        for start in range(0, total, 200_000):
            stop = min(start + 200_000, total)
            lo_chunk = p.lowers[start:stop].tolist()
            up_chunk = p.uppers[start:stop].tolist()
            lines = []
            for lo, up in zip(lo_chunk, up_chunk):
                s = csv_of(lo)
                lines.append(s + ";" + (s if up == lo else csv_of(up)))
            fh.write("\n".join(lines))
            fh.write("\n")


_HEADER_RE = re.compile(r"^n=(\d+) d=(\d+) regime=([A-Za-z0-9]+)$")


def ascii_lines(data):
    """The lines of ``data`` as a text file opened with ``newline=""`` reads
    them, ended by LF, CR or CR LF and kept, each decoded as ASCII once it
    is reached."""
    for lineno, raw in enumerate(data.splitlines(keepends=True), start=1):
        try:
            yield raw.decode("ascii")
        except UnicodeDecodeError:
            raise PartitionFileError("non-ASCII byte", lineno)


def parse_partition_file_per_line(path):
    with open(path, "rb") as fh:
        lines = ascii_lines(fh.read())
        header = next(lines, "")
        match = _HEADER_RE.match(header.rstrip("\n"))
        if not match:
            raise PartitionFileError(f"bad header {header!r}", lineno=1)
        n, d = int(match.group(1)), int(match.group(2))
        tag = match.group(3)
        if not (1 <= d <= n):
            raise PartitionFileError(f"header needs 1 <= d <= n, got n={n} d={d}", 1)
        if n > MAX_UNIVERSE:
            raise PartitionFileError(f"universe {n} too large", 1)
        reg = regime_of(n, d)
        if tag != reg.regime.value:
            raise PartitionFileError(
                f"regime tag {tag} does not match {reg.regime.value} for n={n}, d={d}", 1
            )

        def parse_side(text, lineno):
            mask = 0
            prev = 0
            for piece in text.split(","):
                try:
                    x = int(piece)
                except ValueError:
                    raise PartitionFileError(f"bad integer {piece!r}", lineno)
                if x <= prev:
                    raise PartitionFileError(
                        f"members not sorted strictly increasing at {x}", lineno
                    )
                if x > n:
                    raise PartitionFileError(f"member {x} outside [1, {n}]", lineno)
                mask |= 1 << (x - 1)
                prev = x
            return mask

        lowers = []
        uppers = []
        for lineno, raw in enumerate(lines, start=2):
            line = raw.rstrip("\n")
            if not line:
                raise PartitionFileError("blank line", lineno)
            lo_s, sep, up_s = line.partition(";")
            if not sep or ";" in up_s:
                raise PartitionFileError("expected exactly one ';'", lineno)
            lo = parse_side(lo_s, lineno)
            up = lo if up_s == lo_s else parse_side(up_s, lineno)
            if lo & ~up:
                raise PartitionFileError("lower is not a subset of upper", lineno)
            if lo.bit_count() < d:
                raise PartitionFileError(f"lower endpoint smaller than d={d}", lineno)
            lowers.append(lo)
            uppers.append(up)

    dtype = bitops.mask_dtype(n)
    count = len(lowers)
    return IntervalPartition(
        n,
        d,
        np.fromiter(lowers, dtype=dtype, count=count),
        np.fromiter(uppers, dtype=dtype, count=count),
    )


def materialize(p):
    """The explicit partition of a compact one: the listed intervals, then
    every poset set none of them holds as a singleton [D, D], in
    increasing size and lexicographic order within each size."""
    n, d = p.n, p.d
    dtype = bitops.mask_dtype(n)
    pairs = zip(p.lowers.tolist(), p.uppers.tolist())
    covered = np.array([m for lo, up in pairs for m in submasks(lo, up)], dtype=dtype)
    # Lexicographic order within a size is descending order of the
    # bit-reversed mask, so walk the reversed values downward and reverse
    # back only what is kept.
    rev = np.arange((1 << n) - 1, -1, -1, dtype=dtype)
    taken = np.zeros(1 << n, dtype=bool)
    taken[bitops.bit_reverse(covered, n)] = True
    free = ~taken[::-1]
    pops = bitops.popcounts(rev)
    trivial = np.concatenate(
        [covered[:0]] + [bitops.bit_reverse(rev[free & (pops == k)], n) for k in range(d, n + 1)]
    )
    return IntervalPartition(
        n,
        d,
        np.concatenate([p.lowers, trivial]),
        np.concatenate([p.uppers, trivial]),
    )


def verify_compact_by_materializing(p):
    """(ok, min_upper_size, interval_count) of a compact partition, with its
    remainder listed as singletons and verified as an explicit partition."""
    verdict = verify_partition(materialize(p))
    ok = verdict.ok and verdict.min_upper_size >= p.claimed_min
    return ok, verdict.min_upper_size, verdict.interval_count


def verify_by_definition(p):
    """The ``VerificationVerdict`` of ``p`` from the definitions: how many
    listed intervals hold each subset of [n], the poset sets held by none,
    and the witnesses chosen as ``verify_partition`` documents them."""
    n, d, claim = p.n, p.d, p.claimed_min
    pairs = list(zip(p.lowers.tolist(), p.uppers.tolist()))
    holders = {
        m: [i for i, (lo, up) in enumerate(pairs) if lo & ~m == 0 and m & ~up == 0]
        for m in range(1 << n)
    }
    shared = [m for m in range(1 << n) if len(holders[m]) > 1]
    overlap = None
    if shared:
        # The smallest shared mask; non-trivial holders come first.
        m = shared[0]
        order = sorted(holders[m], key=lambda i: (pairs[i][0] == pairs[i][1], i))
        overlap = (min(order[:2]), max(order[:2]), CircularSet.from_mask(n, m))
    absent = [m for m in range(1 << n) if m.bit_count() >= d and not holders[m]]
    first = min((m.bit_count() for m in absent), default=None)
    first_absent = None
    if first is not None:
        lex_first = min(tuple(members_of(m)) for m in absent if m.bit_count() == first)
        first_absent = CircularSet(n, lex_first)
    listed = min((up.bit_count() for _, up in pairs), default=None)
    if claim is None:
        return VerificationVerdict(
            not shared, not absent, listed or 0, len(pairs), overlap, first_absent
        )
    minimum = min(s for s in (listed, first) if s is not None)
    short = None
    if minimum < claim:
        if minimum == listed:
            i = next(i for i, (_, up) in enumerate(pairs) if up.bit_count() == listed)
            short = (i, CircularSet.from_mask(n, pairs[i][1]))
        else:
            short = (None, first_absent)
    return VerificationVerdict(
        not shared, True, minimum, len(pairs) + len(absent), overlap, None, short
    )
