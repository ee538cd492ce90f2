import ast
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from veronese_sdepth import bitops

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
                got = list(bitops.submasks(lower, upper))
                assert len(got) == len(expected) and set(got) == expected
                assert got[0] == upper and got[-1] == lower
        assert pairs == 729

    def test_expand_uniform_matches_submasks(self):
        # the same 729 pairs, expanded one at a time and grouped by volume
        pairs = [(lo, up) for up in range(1 << 6) for lo in range(1 << 6) if not lo & ~up]
        assert len(pairs) == 729
        by_volume = {}
        for lo, up in pairs:
            got = bitops.expand_uniform(
                np.array([lo], np.uint32), np.array([up], np.uint32), (up & ~lo).bit_count()
            )
            assert got.tolist() == [list(bitops.submasks(lo, up))]
            by_volume.setdefault((up & ~lo).bit_count(), []).append((lo, up))
        for s, group in by_volume.items():
            lowers, uppers = (np.array(col, np.uint64) for col in zip(*group))
            got = bitops.expand_uniform(lowers, uppers, s)
            assert got.tolist() == [list(bitops.submasks(lo, up)) for lo, up in group]

    def test_expand_uniform_rejects_mixed_volumes(self):
        lowers = np.array([1, 1], np.uint32)
        uppers = np.array([3, 7], np.uint32)
        with pytest.raises(ValueError):
            bitops.expand_uniform(lowers, uppers, 1)

    def test_lex_combinations_match_itertools(self):
        for n in range(1, 11):
            for k in range(n + 1):
                expected = list(combinations(range(1, n + 1), k))
                for chunk in (1, 3, 17, 1 << 15):
                    blocks = list(bitops.lex_combinations(n, k, chunk))
                    assert all(0 < len(b) <= chunk for b in blocks)
                    rows = [tuple(r) for b in blocks for r in b.tolist()]
                    assert rows == expected, (n, k, chunk)
                    masks = np.concatenate([bitops.row_masks(b, n) for b in blocks])
                    assert masks.tolist() == [bitops.mask_of(c) for c in expected]

    def test_members_round_trip(self):
        for m in range(1 << 10):
            members = bitops.members_of(m)
            assert members == sorted(set(members))
            assert bitops.mask_of(members) == m


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
