import ast
from pathlib import Path

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
