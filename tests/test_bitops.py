import ast
import time
import tracemalloc
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest
from oracles import lex_rank_by_counting

from veronese_sdepth import bitops, core
from veronese_sdepth.errors import InternalCheckError

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "veronese_sdepth"


class TestMaskHelpers:
    def test_submasks_match_definition(self):
        # every pair lower <= upper over 6 bits: 3^6 = 729 pairs
        universe = range(1 << 6)
        pairs = 0
        for upper in universe:
            for lower in universe:
                if lower & ~upper:
                    continue
                pairs += 1
                expected = {c for c in universe if lower & ~c == 0 and c & ~upper == 0}
                got = list(core.submasks(lower, upper))
                assert len(got) == len(expected) and set(got) == expected
                assert got[0] == upper and got[-1] == lower
        assert pairs == 729

    @pytest.mark.parametrize("n", [1, 7, 31, 32, 33, 64])
    def test_bit_reverse_matches_definition(self, n):
        rng = np.random.default_rng(n)
        masks = [0, (1 << n) - 1, 1, 1 << (n - 1)]
        masks += [int(x) >> (64 - n) for x in rng.integers(0, 2**64, 50, dtype=np.uint64)]
        got = bitops.bit_reverse(np.array(masks, bitops.mask_dtype(n)), n)
        assert got.tolist() == [int(format(m, f"0{n}b")[::-1], 2) for m in masks]

    def test_expand_uniform_matches_submasks(self):
        # the same 729 pairs, expanded one at a time and grouped by volume
        pairs = [(lo, up) for up in range(1 << 6) for lo in range(1 << 6) if not lo & ~up]
        assert len(pairs) == 729
        by_volume = {}
        for lo, up in pairs:
            got = bitops.expand_uniform(
                np.array([lo], np.uint32), np.array([up], np.uint32), (up & ~lo).bit_count()
            )
            assert got.T.tolist() == [list(core.submasks(lo, up))]
            by_volume.setdefault((up & ~lo).bit_count(), []).append((lo, up))
        for s, group in by_volume.items():
            lowers, uppers = (np.array(col, np.uint64) for col in zip(*group))
            got = bitops.expand_uniform(lowers, uppers, s)
            assert got.T.tolist() == [list(core.submasks(lo, up)) for lo, up in group]

    def test_expand_uniform_rejects_mixed_volumes(self):
        lowers = np.array([1, 1], np.uint32)
        uppers = np.array([3, 7], np.uint32)
        with pytest.raises(ValueError):
            bitops.expand_uniform(lowers, uppers, 1)

    def test_expand_uniform_writes_exactly_its_output_view(self):
        lowers = np.array([0b0011, 0b0101, 0b1000], np.uint64)
        uppers = np.array([0b1111, 0b1111, 0b1110], np.uint64)
        sentinel = np.uint64(2**64 - 1)
        buffer = np.full(2 + 4 * 3 + 2, sentinel, np.uint64)
        view = buffer[2:-2].reshape(4, 3)
        got = bitops.expand_uniform(lowers, uppers, 2, out=view)
        assert got is view
        assert np.array_equal(got, bitops.expand_uniform(lowers, uppers, 2))
        assert buffer[:2].tolist() == buffer[-2:].tolist() == [int(sentinel)] * 2

    @pytest.mark.parametrize(
        "shape,dtype", [((3, 4), np.uint64), ((4, 2), np.uint64), ((4, 3), np.uint32)]
    )
    def test_expand_uniform_refuses_a_misshaped_output(self, shape, dtype):
        lowers = np.array([0b0011, 0b0101, 0b1000], np.uint64)
        uppers = np.array([0b1111, 0b1111, 0b1110], np.uint64)
        out = np.zeros(shape, dtype)
        with pytest.raises(ValueError, match="must be 4 x 3 uint64"):
            bitops.expand_uniform(lowers, uppers, 2, out=out)
        assert not out.any()

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
    @pytest.mark.parametrize(
        "values",
        [[], [0], [64], [7] * 1000, "0..64", "3..6"],
        ids=["empty", "zero", "sixty-four", "one-value", "0..64", "3..6"],
    )
    def test_value_counts_match_bincount(self, dtype, values):
        rng = np.random.default_rng(len(str(values)))
        if isinstance(values, str):
            lo, hi = map(int, values.split(".."))
            values = rng.integers(lo, hi + 1, 10_000)
        arr = np.asarray(values, dtype=dtype)
        for minlength in (0, 3, 70):
            expected = np.bincount(arr, minlength=minlength).tolist()
            assert bitops.value_counts(arr, minlength) == expected

    def test_lex_combinations_match_itertools(self):
        for n in range(1, 13):
            for k in range(n + 1):
                expected = list(combinations(range(1, n + 1), k))
                for chunk in (1, 3, 17, 1 << 15):
                    blocks = list(bitops.lex_combinations(n, k, chunk))
                    assert all(0 < b.shape[1] <= chunk for b in blocks)
                    sets = [tuple(c) for b in blocks for c in b.T.tolist()]
                    assert sets == expected, (n, k, chunk)
                    masks = np.concatenate([bitops.row_masks(b, n) for b in blocks])
                    assert masks.tolist() == [core.mask_of(c) for c in expected]

    @pytest.mark.parametrize("walk", ["first block", "first_absent"])
    def test_lex_combinations_stay_lazy_and_bounded(self, walk):
        # C(40, 20) is about 1.4e11 subsets: only a lazy generator whose
        # tables are no wider than a block gets through its first block
        # within 16 MB and a second.
        start = time.perf_counter()
        tracemalloc.start()
        try:
            first = next(bitops.lex_combinations(40, 20, 1 << 15))
            width = first.shape[1]
            if walk == "first_absent":
                table = np.sort(bitops.row_masks(first, 40))
                del first
                got = bitops.first_absent(40, 20, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < width <= 1 << 15
        if walk == "first block":
            assert first.shape[0] == 20
            assert first[:, 0].tolist() == list(range(1, 21))
        else:
            # The first block holds the subsets of ranks below its width,
            # so the first absent one opens the second block.
            assert bitops.lex_rank(got, 40) == width
        assert peak < 16 << 20
        assert time.perf_counter() - start < 1.0

    def test_one_block_level_is_its_table(self):
        # All C(19, 6) = 27,132 6-sets fit one block: the suffix table is
        # yielded as it is, with no second block-sized copy.
        tracemalloc.start()
        try:
            blocks = list(bitops.lex_combinations(19, 6, 1 << 15))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [b.shape for b in blocks] == [(6, comb(19, 6))]
        assert peak < 1.75 * blocks[0].nbytes

    def test_members_round_trip(self):
        for m in range(1 << 10):
            members = core.members_of(m)
            assert members == sorted(set(members))
            assert core.mask_of(members) == m


class TestLexRanks:
    def test_match_enumeration_order(self):
        for n in range(13):
            for k in range(n + 1):
                masks = np.concatenate(
                    [bitops.row_masks(b, n) for b in bitops.lex_combinations(n, k, 1 << 15)]
                )
                expected = np.arange(comb(n, k))
                for masks_as in (masks, masks.astype(np.uint64)):
                    got = bitops.lex_ranks(masks_as, n, k)
                    assert got.dtype == np.int64
                    assert np.array_equal(got, expected), (n, k, masks_as.dtype)
                sets = np.concatenate(list(bitops.lex_combinations(n, k, 1 << 15)), axis=1)
                assert [bitops.lex_rank(tuple(c), n) for c in sets.T.tolist()] == expected.tolist()

    @pytest.mark.parametrize("n", [31, 32, 33, 40, 64])
    def test_match_counting_reference_on_random_masks(self, n):
        rng = np.random.default_rng(n)
        dtypes = [bitops.mask_dtype(n)] + ([np.uint64] if n <= 32 else [])
        for k in sorted({1, 2, n // 4, n // 2, n - 1, n}):
            picks = [rng.choice(n, size=k, replace=False) for _ in range(40)]
            # The first and last ranks; at n = 64, k = 32 the last is
            # C(64, 32) - 1, above 2^60, the top of the int64 range used.
            picks += [np.arange(k), np.arange(n - k, n)]
            masks = [sum(1 << int(b) for b in bits) for bits in picks]
            expected = [lex_rank_by_counting(m, n) for m in masks]
            assert expected[-2:] == [0, comb(n, k) - 1]
            for dtype in dtypes:
                got = bitops.lex_ranks(np.array(masks, dtype=dtype), n, k)
                assert got.tolist() == expected, (n, k, dtype)
            assert [bitops.lex_rank(tuple(core.members_of(m)), n) for m in masks] == expected

    @pytest.mark.parametrize("n", [31, 32, 33, 64])
    def test_match_lex_rank_across_block_edges(self, n):
        # Either side of the uint32/uint64 mask switch and at the widest
        # mask; a block of covered sets arrives as one array, and chunking
        # is tested where it lives, in the builder's ``_flag_covered``.
        rng = np.random.default_rng(100 + n)
        for k in sorted({1, 2, n // 3, n - 1}):
            masks = [
                sum(1 << int(b) for b in rng.choice(n, size=k, replace=False)) for _ in range(11)
            ]
            got = bitops.lex_ranks(np.array(masks, dtype=bitops.mask_dtype(n)), n, k)
            assert got.tolist() == [bitops.lex_rank(tuple(core.members_of(m)), n) for m in masks]
            # A mask that is not a k-subset is refused after valid ones.
            bad = np.array(masks + [(1 << (k + 1)) - 1], dtype=bitops.mask_dtype(n))
            with pytest.raises(InternalCheckError, match=f"not a {k}-subset"):
                bitops.lex_ranks(bad, n, k)

    @pytest.mark.parametrize(
        "n,k,masks",
        [
            (10, 3, [0b111, 0b1111]),  # a 3-subset and a 4-subset
            (10, 3, [0b11]),  # too small
            (10, 3, [0b11 | 1 << 10]),  # a member beyond [n]
            (40, 2, [1 | 1 << 40]),
            (64, 1, [0]),
        ],
    )
    def test_out_of_range_mask_size_raises(self, n, k, masks):
        with pytest.raises(InternalCheckError, match=f"not a {k}-subset of \\[{n}\\]"):
            bitops.lex_ranks(np.array(masks, dtype=bitops.mask_dtype(n)), n, k)


class TestNoAssertStatements:
    def test_package_has_no_asserts(self):
        # Invariants must survive ``python -O``, which strips assert statements.
        modules = sorted(PACKAGE.glob("*.py"))
        assert modules
        offenders = []
        for path in modules:
            tree = ast.parse(path.read_text(), filename=str(path))
            offenders += [
                f"{path.name}:{node.lineno}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Assert)
            ]
        assert not offenders, offenders
