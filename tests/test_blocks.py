from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from veronese_sdepth import (
    BlockStructure,
    CircularBlock,
    CircularSet,
    DensityOutOfRangeError,
    EmptySetError,
    PreconditionViolatedError,
    UniverseMismatchError,
    block_structure,
    check_mixed_density_disjoint,
    f_delta,
    validate_block_structure,
)
from veronese_sdepth.blocks import as_density
from oracles import alternating_structures, chain_of


class TestDensity:
    def test_coercions(self):
        assert as_density(2) == Fraction(2) and type(as_density(2)) is Fraction
        assert as_density("3/2") == as_density("6/4") == as_density("1.5") == Fraction(3, 2)
        assert as_density(Fraction(6, 4)) == Fraction(3, 2)
        assert str(as_density("3/2")) == "3/2" and str(as_density("4/2")) == "2"

    def test_rejects_below_one_and_floats(self):
        for value in [Fraction(1, 2), 0, "1/2", "0", "3/0", "-3/2"]:
            with pytest.raises(DensityOutOfRangeError):
                as_density(value)
        with pytest.raises(TypeError):
            as_density(1.5)
        # An exponent is refused before Fraction would expand it.
        for text in ["2/", "abc", "1e3", "2E1"]:
            with pytest.raises(ValueError):
                as_density(text)

    def test_ordering(self):
        # The mixed-density check needs delta >= eta, compared exactly.
        a, b = CircularSet(9, [1]), CircularSet(9, [2])
        with pytest.raises(PreconditionViolatedError):
            check_mixed_density_disjoint(a, b, "3/2", 2)
        assert check_mixed_density_disjoint(a, b, 2, "3/2") is True
        assert check_mixed_density_disjoint(a, b, "3/2", Fraction(6, 4)) is True


class TestBlockStructure:
    def test_singleton_set(self):
        bs = block_structure(CircularSet(5, [1]), 2)
        assert bs.render() == "B[1..2] G[3..5]"

    def test_adjacent_pair(self):
        bs = block_structure(CircularSet(5, [1, 2]), 2)
        assert bs.render() == "B[1..4] G[5..5]"

    def test_spread_pair_density_three(self):
        bs = block_structure(CircularSet(7, [1, 3]), 3)
        assert bs.render() == "B[1..6] G[7..7]"

    def test_density_one_gives_singleton_blocks(self):
        bs = block_structure(CircularSet(3, [1]), 1)
        assert bs.render() == "B[1..1] G[2..3]"

    def test_rational_density(self):
        bs = block_structure(CircularSet(7, [1, 3]), "3/2")
        assert validate_block_structure(CircularSet(7, [1, 3]), bs).ok

    def test_errors(self):
        with pytest.raises(EmptySetError):
            block_structure(CircularSet(5, []), 2)
        with pytest.raises(DensityOutOfRangeError):
            block_structure(CircularSet(5, [1, 2, 3]), 2)  # 2*3 > 4
        with pytest.raises(DensityOutOfRangeError):
            block_structure(CircularSet(5, [1]), "1/2")

    def test_wrapping_block(self):
        # {4, 5} on [5] at density 2: the block wraps past position 5
        bs = block_structure(CircularSet(5, [4, 5]), 2)
        assert chain_of(bs) == ((4, 4, 1),)

    def test_canonical_listing_order(self):
        # two blocks; listing starts from the smallest block start
        bs = block_structure(CircularSet(5, [1, 4]), 2)
        assert [b.start for b in bs.blocks] == [1, 4]


class TestFDelta:
    def test_examples(self):
        assert f_delta(CircularSet(5, [1, 2]), 2).members == (1, 2, 5)
        assert f_delta(CircularSet(5, [1]), 2).members == (1, 3, 4, 5)
        assert f_delta(CircularSet(3, [1]), 1).members == (1, 2, 3)

    @given(st.integers(2, 11), st.data())
    @settings(max_examples=200, deadline=None)
    def test_superset_and_size_identity(self, n, data):
        members = data.draw(
            st.sets(st.integers(1, n), min_size=1, max_size=max(1, (n - 1)))
        )
        a = CircularSet(n, members)
        delta = data.draw(st.integers(1, max(1, (n - 1) // len(a))))
        if delta * len(a) > n - 1:
            return
        bs = block_structure(a, delta)
        f = f_delta(a, delta)
        assert a.is_subset_of(f)
        assert len(f) == len(a) + len(bs.gap_positions())
        assert len(f) == n - len(bs.block_positions()) + len(a)

    @given(st.integers(2, 10), st.integers(0, 20), st.data())
    @settings(max_examples=200, deadline=None)
    def test_rotation_equivariance(self, n, shift, data):
        members = data.draw(st.sets(st.integers(1, n), min_size=1))
        a = CircularSet(n, members)
        delta = data.draw(st.integers(1, 4))
        if delta * len(a) > n - 1:
            return
        rotated = block_structure(a.rotate(shift), delta)
        base = block_structure(a, delta)
        expected = sorted(
            ((b.start - 1 + shift) % n + 1, b.length, 0 if g is None else g.length)
            for b, g in zip(base.blocks, base.gaps)
        )
        assert sorted(chain_of(rotated)) == expected


class TestValidateBlockStructure:
    def test_accepts_constructed(self):
        a = CircularSet(5, [1, 2])
        report = validate_block_structure(a, block_structure(a, 2))
        assert report.ok and report.first_violation is None

    def test_length_window_violation(self):
        a = CircularSet(5, [1, 2])
        forged = BlockStructure(
            5,
            2,
            (CircularBlock(5, 1, 3),),
            (CircularBlock(5, 4, 2),),
        )
        report = validate_block_structure(a, forged)
        assert not report.cond_iii and not report.ok
        assert "(iii)" in report.first_violation

    # A block longer than delta * t also has a too sparse prefix (or a
    # start outside the set), so (iv) fails too; (iii) is reported first.
    @pytest.mark.parametrize(
        "n, density, length", [(6, 2, 5), (6, "3/2", 4)], ids=["2", "3/2"]
    )
    def test_block_longer_than_density_allows(self, n, density, length):
        a = CircularSet(n, [1, 2])
        forged = BlockStructure(
            n,
            density,
            (CircularBlock(n, 1, length),),
            (CircularBlock(n, length + 1, n - length),),
        )
        report = validate_block_structure(a, forged)
        assert not report.cond_iii and not report.ok
        assert report.first_violation.startswith("(iii)")

    # Each block meets (iii), but its prefix {1, 2} (density 2) or {1}
    # (density 3/2) is too sparse to continue.
    @pytest.mark.parametrize(
        "n, members, density, length, prefix",
        [(7, [1, 4], 2, 4, 2), (5, [1, 3], "3/2", 3, 1)],
        ids=["2", "3/2"],
    )
    def test_sparse_prefix_violation(self, n, members, density, length, prefix):
        a = CircularSet(n, members)
        forged = BlockStructure(
            n,
            density,
            (CircularBlock(n, 1, length),),
            (CircularBlock(n, length + 1, n - length),),
        )
        report = validate_block_structure(a, forged)
        assert report.well_formed and report.cond_i and report.cond_ii and report.cond_iii
        assert not report.cond_iv and not report.ok
        assert report.first_violation == (
            f"(iv): prefix of length {prefix} in block [1..{length}] is too sparse"
        )

    def test_gap_containing_member(self):
        a = CircularSet(5, [1, 2])
        forged = BlockStructure(
            5,
            2,
            (CircularBlock(5, 1, 1),),
            (CircularBlock(5, 2, 4),),
        )
        report = validate_block_structure(a, forged)
        assert not report.cond_ii

    def test_start_outside_set(self):
        a = CircularSet(5, [2, 3])
        forged = BlockStructure(
            5,
            2,
            (CircularBlock(5, 1, 4),),
            (CircularBlock(5, 5, 1),),
        )
        report = validate_block_structure(a, forged)
        assert not report.cond_i

    def test_non_tiling_is_malformed(self):
        a = CircularSet(5, [1])
        forged = BlockStructure(
            5,
            2,
            (CircularBlock(5, 1, 2),),
            (CircularBlock(5, 3, 2),),
        )
        report = validate_block_structure(a, forged)
        assert not report.well_formed

    def test_universe_mismatch(self):
        a = CircularSet(6, [1])
        bs = block_structure(CircularSet(5, [1]), 2)
        with pytest.raises(UniverseMismatchError):
            validate_block_structure(a, bs)


class TestUniqueness:
    def test_exhaustive_small(self):
        # full criterion-scale sweep lives in the acceptance suite
        for n in range(1, 9):
            for r in range(1, n + 1):
                for members in combinations(range(1, n + 1), r):
                    for delta in range(1, (n - 1) // r + 1):
                        found = alternating_structures(n, members, delta, 1)
                        assert len(found) == 1, (n, members, delta)
                        bs = block_structure(CircularSet(n, members), delta)
                        assert chain_of(bs) in found

    def test_exhaustive_rational_densities(self):
        for n in range(2, 8):
            for r in range(1, n):
                for members in combinations(range(1, n + 1), r):
                    for num, den in [(3, 2), (5, 2), (4, 3)]:
                        if num * r > den * (n - 1):
                            continue
                        found = alternating_structures(n, members, num, den)
                        assert len(found) == 1
                        bs = block_structure(CircularSet(n, members), f"{num}/{den}")
                        assert chain_of(bs) in found


class TestTightPairDisjoint:
    # [A, f(A)] and [A', f(A')] for distinct A, A' of equal size are the
    # mixed-density case check_mixed_density_disjoint(A', A, delta, delta).
    def test_examples(self):
        a = CircularSet(5, [1, 2])
        assert check_mixed_density_disjoint(CircularSet(5, [3, 4]), a, 2, 2)
        assert check_mixed_density_disjoint(CircularSet(5, [1, 3]), a, 2, 2)

    def test_vacuous_when_closure_is_loose(self):
        # f({1}) on [7] at density 2 adds five gap points: hypothesis fails
        a, b = CircularSet(7, [1]), CircularSet(7, [2])
        assert len(f_delta(a, 2)) - 1 > 1
        assert check_mixed_density_disjoint(b, a, 2, 2)

    def test_exhaustive_small(self):
        # every ordered equal-size pair at every admissible integer density
        for n in range(2, 10):
            for r in range(1, n):
                sets = [CircularSet(n, c) for c in combinations(range(1, n + 1), r)]
                for delta in range(1, (n - 1) // r + 1):
                    for a in sets:
                        for a2 in sets:
                            if a2 != a:
                                assert check_mixed_density_disjoint(a2, a, delta, delta)
