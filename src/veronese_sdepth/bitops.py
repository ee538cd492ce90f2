"""Bulk bitmask helpers backed by numpy.

Subsets of [n] are masks with bit i-1 standing for element i.  Mask value
order is not lexicographic order on member tuples; lexicographic order is
descending order of the bit-reversed mask (the smallest member occupies
the highest reversed bit), which is what ``lex_sorted`` sorts by, and
``lex_ranks`` gives each k-subset its position in that order.
"""

from __future__ import annotations

from math import comb
from typing import Iterator

import numpy as np

from .errors import InternalCheckError

MAX_UNIVERSE = 64


def mask_dtype(n: int):
    if n > MAX_UNIVERSE:
        raise ValueError(f"universes beyond {MAX_UNIVERSE} are not supported")
    return np.uint32 if n <= 32 else np.uint64


def popcounts(arr: np.ndarray) -> np.ndarray:
    return np.bitwise_count(arr)


def all_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All 2^n masks in ascending value order, with their popcounts."""
    masks = np.arange(1 << n, dtype=mask_dtype(n))
    return masks, np.bitwise_count(masks)


def bit_reverse(arr: np.ndarray, n: int) -> np.ndarray:
    """Reverse the low ``n`` bits of every mask."""
    t = arr.dtype.type
    out = np.zeros_like(arr)
    for i in range(n):
        out |= ((arr >> t(i)) & t(1)) << t(n - 1 - i)
    return out


def lex_sorted(masks: np.ndarray, n: int) -> np.ndarray:
    """Sort same-size subset masks into lexicographic member-tuple order."""
    if masks.size == 0:
        return masks
    key = bit_reverse(masks, n)
    return masks[np.argsort(key)[::-1]]


def member_lookup(masks: np.ndarray, sorted_table: np.ndarray) -> np.ndarray:
    """Boolean membership of ``masks`` in an ascending-sorted table."""
    if sorted_table.size == 0:
        return np.zeros(masks.shape, dtype=bool)
    pos = np.searchsorted(sorted_table, masks)
    pos = np.minimum(pos, sorted_table.size - 1)
    return sorted_table[pos] == masks


def containing(lowers: np.ndarray, uppers: np.ndarray, mask: int) -> np.ndarray:
    """Boolean array, true where lowers[i] <= ``mask`` <= uppers[i]: the
    intervals that hold ``mask``."""
    m = lowers.dtype.type(mask)
    return (lowers & ~m == 0) & (m & ~uppers == 0)


def row_masks(rows: np.ndarray, n: int) -> np.ndarray:
    """The mask of every row of a rows x k array of 1-indexed members."""
    dtype = mask_dtype(n)
    masks = np.zeros(len(rows), dtype=dtype)
    # One pass per column: numpy reduces along a short last axis far more
    # slowly than it ORs whole columns.
    for col in (rows - 1).astype(dtype).T:
        masks |= dtype(1) << col
    return masks


def _all_combinations(lo: int, n: int, k: int, prefix: tuple[int, ...]) -> np.ndarray:
    # ``prefix`` followed by every k-subset of [lo, n], in lexicographic
    # order, grown one member at a time: a row ending in x gets each
    # admissible next member above x.  The members are kept as one column
    # array each, re-indexed by the row each new row extends, and written
    # into the result once, instead of re-stacking a growing matrix.
    if k == 0:
        return np.array([prefix], dtype=np.int16)
    cols = [np.arange(lo, n - k + 2, dtype=np.int16)]
    for col in range(1, k):
        last = cols[-1]
        counts = (n - k + col + 1) - last
        link = np.repeat(np.arange(len(last)), counts)
        step = np.arange(len(link)) - (np.cumsum(counts) - counts)[link]
        cols = [c[link] for c in cols] + [last[link] + 1 + step.astype(np.int16)]
    rows = np.empty((len(cols[0]), len(prefix) + k), dtype=np.int16)
    rows[:, : len(prefix)] = prefix
    for col, members in enumerate(cols, start=len(prefix)):
        rows[:, col] = members
    return rows


def _combination_blocks(n: int, k: int, chunk: int, prefix: tuple[int, ...], lo: int):
    # Split on the next member until every completion of ``prefix`` fits
    # in one block.
    if comb(n - lo + 1, k) <= chunk:
        yield _all_combinations(lo, n, k, prefix)
        return
    for first in range(lo, n - k + 2):
        yield from _combination_blocks(n, k - 1, chunk, prefix + (first,), first + 1)


def lex_combinations(n: int, k: int, chunk: int) -> Iterator[np.ndarray]:
    """Every k-subset of [n] as a row of increasing 1-indexed members, in
    lexicographic order, yielded in blocks of at most ``chunk`` rows."""
    buf: list[np.ndarray] = []
    size = 0
    for block in _combination_blocks(n, k, chunk, (), 1):
        if size + len(block) > chunk:
            yield np.concatenate(buf)
            buf, size = [], 0
        buf.append(block)
        size += len(block)
    if buf:
        yield np.concatenate(buf)


def lex_rank(members: tuple[int, ...], n: int) -> int:
    """The position of the increasing ``members`` among the k-subsets of
    [n] in lexicographic order: C(n, k) - 1 - sum_i C(n - a_i, k - i + 1)
    over the members a_1 < ... < a_k.  The sum is the combinatorial number
    system's (colexicographic) rank of the reversed set {n + 1 - a_i}, and
    reversal turns lexicographic order into reversed colexicographic
    order."""
    k = len(members)
    return comb(n, k) - 1 - sum(comb(n - a, k - i) for i, a in enumerate(members))


def lex_ranks(masks: np.ndarray, n: int, k: int) -> np.ndarray:
    """``lex_rank`` of every k-subset mask of [n], as exact int64.

    Pass i strips the lowest remaining bit of every mask, the (i+1)-th
    member, and subtracts its term from C(n, k) - 1 through a table
    indexed by bit position.  A mask that is not a k-subset of [n] is an
    internal error: it has no rank, and a wrong one would index silently."""
    if np.any(popcounts(masks) != k) or (
        n < 8 * masks.dtype.itemsize and np.any(masks >> masks.dtype.type(n))
    ):
        raise InternalCheckError(f"a mask to rank is not a {k}-subset of [{n}]")
    one = masks.dtype.type(1)
    rest = masks.copy()
    ranks = np.full(masks.shape, comb(n, k) - 1, dtype=np.int64)
    for i in range(k):
        terms = np.array([comb(n - 1 - bit, k - i) for bit in range(n)], dtype=np.int64)
        low = rest & (~rest + one)
        rest ^= low
        ranks -= terms[popcounts(low - one)]
    return ranks


def first_absent(n: int, k: int, sorted_table: np.ndarray) -> tuple[int, ...] | None:
    """The lexicographically first k-subset of [n], as increasing members,
    absent from the ascending ``sorted_table``; None when all are present.
    With h of them present it is among the first h + 1, so the walk stops
    within the blocks of 32,768 subsets that hold them."""
    for rows in lex_combinations(n, k, 1 << 15):
        absent = np.flatnonzero(~member_lookup(row_masks(rows, n), sorted_table))
        if absent.size:
            return tuple(rows[absent[0]].tolist())
    return None


def expand_uniform(lowers: np.ndarray, uppers: np.ndarray, s: int) -> np.ndarray:
    """Every member of every interval [lowers[i], uppers[i]] of volume 2^s,
    as a rows x 2^s array; row i runs from ``uppers[i]`` down to
    ``lowers[i]`` in the order of ``submasks``.

    The members are the s-bit counters scattered into the diff bits: each
    pass takes the lowest remaining diff bit, which ranks above every bit
    placed so far, so the members holding it come first."""
    diff = uppers & ~lowers
    if np.any(popcounts(diff) != s):
        raise ValueError(f"not every interval has volume 2^{s}")
    out = lowers[:, None]
    for _ in range(s):
        low = diff & (~diff + diff.dtype.type(1))
        diff = diff ^ low
        out = np.concatenate([out | low[:, None], out], axis=1)
    return out


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
