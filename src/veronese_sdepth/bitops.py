"""Bulk bitmask helpers backed by numpy.

Subsets of [n] are masks with bit i-1 standing for element i; the scalar
helpers (``mask_of``, ``members_of``, ``submasks``) live in ``core``.
Mask value order is not lexicographic order on member tuples;
lexicographic order is descending order of the bit-reversed mask (the
smallest member occupies the highest reversed bit), which is what
``lex_sorted`` sorts by.  ``lex_ranks`` gives each k-subset its position
in that order, a whole array in k passes; the builder hands it one block
of covered sets at a time.
"""

from __future__ import annotations

from math import comb
from typing import Iterator

import numpy as np

from .core import MAX_UNIVERSE
from .errors import InternalCheckError

def mask_dtype(n: int):
    if n > MAX_UNIVERSE:
        raise ValueError(f"universes beyond {MAX_UNIVERSE} are not supported")
    return np.uint32 if n <= 32 else np.uint64


def popcounts(arr: np.ndarray) -> np.ndarray:
    return np.bitwise_count(arr)


def value_counts(values: np.ndarray, minlength: int = 0) -> list[int]:
    """How many of the non-negative integer ``values`` equal each of
    0 .. max(values), as ``np.bincount(values, minlength=minlength)``
    counts them.  Popcounts take few values, so one compare-and-count pass
    per value from the least to the greatest, the greatest taking the
    rest, reads a uint8 array in place where ``np.bincount`` first copies
    it to intp."""
    if not values.size:
        return [0] * minlength
    lo, hi = int(values.min()), int(values.max())
    counts = [0] * max(minlength, hi + 1)
    for v in range(lo, hi):
        counts[v] = int(np.count_nonzero(values == v))
    counts[hi] = values.size - sum(counts)
    return counts


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


def row_masks(sets: np.ndarray, n: int) -> np.ndarray:
    """The mask of every column of a k x N array of 1-indexed members,
    one set per column as ``lex_combinations`` yields them."""
    dtype = mask_dtype(n)
    one = dtype(1)
    masks = np.zeros(sets.shape[1], dtype=dtype)
    # One pass per member row: numpy ORs whole contiguous rows far faster
    # than it reduces along a short axis.
    for row in sets:
        masks |= one << (row - 1).astype(dtype)
    return masks


def _leaf_prefixes(n: int, k: int, chunk: int, prefix: tuple[int, ...], lo: int):
    # Split on the next member until every completion of ``prefix`` (the
    # k-subsets of [lo, n]) fits in one block.
    if comb(n - lo + 1, k) <= chunk:
        yield prefix, lo
        return
    for first in range(lo, n - k + 2):
        yield from _leaf_prefixes(n, k - 1, chunk, prefix + (first,), first + 1)


def _suffix_tables(n: int, k: int, chunk: int, top: int) -> list[np.ndarray]:
    # Table j holds the j-subsets of [start_j, n] as columns, in
    # lexicographic order.  Those whose members all exceed a are its last
    # C(n - a, j) columns, so the j-subsets of [lo, n] are a suffix of it
    # for any lo >= start_j.  A leaf of size j has lo >= k - j + 1 (its
    # prefix holds k - j increasing members) and C(n - lo + 1, j) <= chunk,
    # and start_j is the least lo meeting both: no table is wider than
    # ``chunk``.  Table j then builds table j + 1 from leading members a
    # placed over its suffixes: start_j <= start_(j+1) + 1, because
    # C(m - 1, j) <= C(m, j + 1).
    tables = [np.empty((0, 1), dtype=np.int16)]
    for j in range(1, top + 1):
        start = k - j + 1
        while comb(n - start + 1, j) > chunk:
            start += 1
        widths = [comb(n - a, j - 1) for a in range(start, n - j + 2)]
        table = np.empty((j, sum(widths)), dtype=np.int16)
        table[0] = np.repeat(np.arange(start, n - j + 2, dtype=np.int16), widths)
        at = 0
        for w in widths:
            table[1:, at : at + w] = tables[-1][:, -w:]
            at += w
        tables.append(table)
    return tables


def lex_combinations(n: int, k: int, chunk: int) -> Iterator[np.ndarray]:
    """Every k-subset of [n] as a column of increasing 1-indexed members,
    in lexicographic order, yielded lazily as k x N int16 blocks of at
    most ``chunk`` columns.

    The subsets are split on their leading members until a prefix's
    completions fit in ``chunk``; each such leaf is its prefix over a
    suffix of a table of the smaller subsets, built once per call and no
    wider than ``chunk``.  Leaves are packed into a block until the next
    one would overflow it.  A level that fits one block is yielded as its
    table of all k-subsets, which is already in lexicographic order, and
    is not copied."""
    left = comb(n, k)
    if not left:
        return
    if left <= chunk:
        yield _suffix_tables(n, k, chunk, k)[k]
        return
    # Every leaf has a prefix.
    tables = _suffix_tables(n, k, chunk, k - 1)
    block, size = np.empty((k, min(chunk, left)), dtype=np.int16), 0
    for prefix, lo in _leaf_prefixes(n, k, chunk, (), 1):
        j = k - len(prefix)
        width = comb(n - lo + 1, j)
        if size + width > chunk:
            yield block[:, :size]
            left -= size
            block, size = np.empty((k, min(chunk, left)), dtype=np.int16), 0
        block[: k - j, size : size + width] = np.array(prefix, dtype=np.int16)[:, None]
        block[k - j :, size : size + width] = tables[j][:, -width:]
        size += width
    yield block[:, :size]


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
    member, takes its position as an intp index and subtracts the member's
    term from C(n, k) - 1 through a table indexed by bit position.  Its
    work arrays are as long as ``masks``, so a caller with many masks
    passes them a block at a time.  A mask that is not a k-subset of [n]
    is an internal error: it has no rank, and a wrong one would index
    silently."""
    t = masks.dtype.type
    terms = np.array(
        [[comb(n - 1 - bit, k - i) for bit in range(n)] for i in range(k)], dtype=np.int64
    )
    bit = np.empty(masks.shape, np.intp)
    np.bitwise_count(masks, out=bit)
    if np.any(bit != k) or (n < 8 * masks.dtype.itemsize and np.any(masks >> t(n))):
        raise InternalCheckError(f"a mask to rank is not a {k}-subset of [{n}]")
    ranks = np.full(masks.shape, comb(n, k) - 1, dtype=np.int64)
    rest, low = masks.copy(), np.empty_like(masks)
    term = np.empty(masks.shape, np.int64)
    for i in range(k):
        # rest & -rest (two's complement) is the lowest bit of rest.
        np.negative(rest, out=low)
        low &= rest
        rest ^= low
        low -= t(1)
        np.bitwise_count(low, out=bit)
        # Every position is below n (checked above), so "clip" never
        # clips; unlike "raise" it writes into ``term`` unbuffered.
        np.take(terms[i], bit, out=term, mode="clip")
        ranks -= term
    return ranks


def first_absent(n: int, k: int, sorted_table: np.ndarray) -> tuple[int, ...] | None:
    """The lexicographically first k-subset of [n], as increasing members,
    absent from the ascending ``sorted_table``; None when all are present.
    With h of them present it is among the first h + 1, so the walk stops
    within the blocks of 32,768 subsets that hold them."""
    for sets in lex_combinations(n, k, 1 << 15):
        absent = np.flatnonzero(~member_lookup(row_masks(sets, n), sorted_table))
        if absent.size:
            return tuple(sets[:, absent[0]].tolist())
    return None


def expand_uniform(
    lowers: np.ndarray, uppers: np.ndarray, s: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Every member of every interval [lowers[i], uppers[i]] of volume 2^s,
    as a 2^s x N array; column i runs from ``uppers[i]`` down to
    ``lowers[i]`` in the order of ``core.submasks``.

    With ``out`` the members are written into it and it is returned; it
    must be a 2^s x N array of the masks' dtype, such as a reshaped slice
    of a larger member buffer, so that nothing else is allocated for
    them.  The members are the s-bit counters scattered into the diff
    bits: each pass takes the lowest remaining diff bit, which ranks
    above every bit placed so far, so the members holding it come first.
    A pass doubles the rows filled so far in place, copying them below
    and setting the bit in the originals."""
    diff = uppers & ~lowers
    if np.any(popcounts(diff) != s):
        raise ValueError(f"not every interval has volume 2^{s}")
    shape = (1 << s, len(lowers))
    if out is None:
        out = np.empty(shape, dtype=lowers.dtype)
    elif out.shape != shape or out.dtype != lowers.dtype:
        raise ValueError(
            f"the output for {shape[1]} intervals of volume 2^{s} must be "
            f"{shape[0]} x {shape[1]} {lowers.dtype}, not {out.shape} {out.dtype}"
        )
    out[0] = lowers
    for t in range(s):
        low = diff & (~diff + diff.dtype.type(1))
        diff ^= low
        half = 1 << t
        out[half : 2 * half] = out[:half]
        out[:half] |= low
    return out
