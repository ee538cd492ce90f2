"""Bulk bitmask helpers backed by numpy.

Subsets of [n] are masks with bit i-1 standing for element i.  Mask value
order is not lexicographic order on member tuples; lexicographic order is
descending order of the bit-reversed mask (the smallest member occupies
the highest reversed bit), which is what ``lex_sorted`` sorts by.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

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
    if arr.dtype == np.uint32:
        x = arr.copy()
        x = ((x >> 1) & np.uint32(0x55555555)) | ((x & np.uint32(0x55555555)) << 1)
        x = ((x >> 2) & np.uint32(0x33333333)) | ((x & np.uint32(0x33333333)) << 2)
        x = ((x >> 4) & np.uint32(0x0F0F0F0F)) | ((x & np.uint32(0x0F0F0F0F)) << 4)
        x = ((x >> 8) & np.uint32(0x00FF00FF)) | ((x & np.uint32(0x00FF00FF)) << 8)
        x = (x >> 16) | (x << 16)
        return x >> (32 - n)
    x = arr.astype(np.uint64, copy=True)
    x = ((x >> np.uint64(1)) & np.uint64(0x5555555555555555)) | (
        (x & np.uint64(0x5555555555555555)) << np.uint64(1)
    )
    x = ((x >> np.uint64(2)) & np.uint64(0x3333333333333333)) | (
        (x & np.uint64(0x3333333333333333)) << np.uint64(2)
    )
    x = ((x >> np.uint64(4)) & np.uint64(0x0F0F0F0F0F0F0F0F)) | (
        (x & np.uint64(0x0F0F0F0F0F0F0F0F)) << np.uint64(4)
    )
    x = ((x >> np.uint64(8)) & np.uint64(0x00FF00FF00FF00FF)) | (
        (x & np.uint64(0x00FF00FF00FF00FF)) << np.uint64(8)
    )
    x = ((x >> np.uint64(16)) & np.uint64(0x0000FFFF0000FFFF)) | (
        (x & np.uint64(0x0000FFFF0000FFFF)) << np.uint64(16)
    )
    x = (x >> np.uint64(32)) | (x << np.uint64(32))
    return x >> np.uint64(64 - n)


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
