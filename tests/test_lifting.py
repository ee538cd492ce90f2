from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from veronese_sdepth import (
    CircularSet,
    PosetInterval,
    PreconditionViolatedError,
    SizeMismatchError,
    SOutOfRangeError,
    UniverseMismatchError,
    bitops,
    build_partition,
    build_partition_k3,
    check_cross_level_disjoint,
    check_mixed_density_disjoint,
    check_superset_closure,
    f_delta,
    interval_family,
    is_covered,
    lift,
    validate_lift_params,
)
from veronese_sdepth.certfile import parse_partition_file, write_partition_file
from veronese_sdepth.errors import InternalCheckError
from veronese_sdepth.lifting import closure_upper_mask, closure_upper_masks, family_covers
from oracles import covered_by_definition, superset_closure_by_definition


def family_cap(n, level):
    return (n - level) // (level + 1)


def closure_by_block_structure(n, level, s, combo):
    """The upper mask of [A, f(A~) & [n]] from the block structure of the
    lifted set at density s + 1."""
    lifted = lift(CircularSet(n, combo), validate_lift_params(n, level, s))
    return f_delta(lifted, s + 1).mask & ((1 << n) - 1)


class TestLiftParams:
    def test_examples(self):
        assert validate_lift_params(5, 2, 1).m == 11
        assert validate_lift_params(7, 2, 1).m == 15
        with pytest.raises(SOutOfRangeError):
            validate_lift_params(7, 2, 2)

    def test_rejects_degenerate(self):
        with pytest.raises(PreconditionViolatedError):
            validate_lift_params(5, 5, 1)
        with pytest.raises(PreconditionViolatedError):
            validate_lift_params(5, 2, 0)

    def test_bounds_hold_across_sweep(self):
        for n in range(2, 12):
            for level in range(1, n):
                for s in range(1, family_cap(n, level) + 1):
                    p = validate_lift_params(n, level, s)
                    assert p.m == (n + 1) * s + n > n
                    assert (s + 1) * n <= p.m - 1
                    assert (p.m - n) / (s + 1) <= n - level < p.m - n


class TestLift:
    def test_examples(self):
        lifted = lift(CircularSet(7, [1, 3]), validate_lift_params(7, 2, 1))
        assert lifted.universe == 15 and lifted.members == (1, 3, 8, 9, 10, 11, 12)
        lifted = lift(CircularSet(5, [1, 2]), validate_lift_params(5, 2, 1))
        assert lifted.universe == 11 and lifted.members == (1, 2, 6, 7, 8)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            lift(CircularSet(5, [2, 4, 5]), validate_lift_params(5, 2, 1))

    def test_universe_mismatch(self):
        with pytest.raises(UniverseMismatchError):
            lift(CircularSet(6, [1, 2]), validate_lift_params(5, 2, 1))


class TestLiftedClosure:
    def test_examples(self):
        upper = CircularSet.from_mask(5, closure_upper_mask(5, 2, 1, (1, 2)))
        assert upper.members == (1, 2, 5)
        upper = CircularSet.from_mask(5, closure_upper_mask(5, 2, 1, (4, 5)))
        assert upper.members == (3, 4, 5)

    def test_upper_grows_by_s(self):
        for n in range(3, 9):
            for level in range(1, n):
                for s in range(1, family_cap(n, level) + 1):
                    for combo in combinations(range(1, n + 1), level):
                        assert closure_upper_mask(n, level, s, combo).bit_count() - level == s

    def test_fast_path_agrees_with_validated_path(self):
        for n in range(3, 8):
            for level in range(1, n):
                for s in range(1, family_cap(n, level) + 1):
                    for combo in combinations(range(1, n + 1), level):
                        expected = closure_by_block_structure(n, level, s, combo)
                        assert closure_upper_mask(n, level, s, combo) == expected


class TestBatchedClosure:
    def test_matches_scalar_for_every_admissible_subset(self):
        checked = 0
        for n in range(2, 15):
            for level in range(1, n):
                for s in range(1, family_cap(n, level) + 1):
                    sets = np.array(list(combinations(range(1, n + 1), level)), np.int16).T
                    lowers = bitops.row_masks(sets, n)
                    got = closure_upper_masks(n, level, s, sets, lowers).tolist()
                    expected = [closure_upper_mask(n, level, s, tuple(c)) for c in sets.T.tolist()]
                    assert got == expected
                    checked += sets.shape[1]
        assert checked == 17157

    @pytest.mark.parametrize("n", [31, 32, 33, 63, 64])
    def test_matches_scalar_at_the_mask_width_edges(self, n):
        # At n = 32 and 64 an upper mask can fill the mask width, where
        # 2 * lowers + 2^n wraps; the first block of each level starts at
        # {1, 2, ...}, and random sets reach member n.
        rng = np.random.default_rng(n)
        for level in sorted({1, 2, 3, n // 8, n // 4}):
            for s in sorted({1, family_cap(n, level)}):
                first = next(bitops.lex_combinations(n, level, 1 << 9))
                picked = [np.sort(rng.choice(n, level, replace=False)) + 1 for _ in range(200)]
                for sets in (first, np.array(picked, dtype=np.int16).T):
                    lowers = bitops.row_masks(sets, n)
                    got = closure_upper_masks(n, level, s, sets, lowers).tolist()
                    expected = [closure_upper_mask(n, level, s, tuple(c)) for c in sets.T.tolist()]
                    assert got == expected, (n, level, s)
                    assert max(expected).bit_length() == n or n % 32
                # The scalar reference itself, against the block structure
                # of the lifted set, on a sample of the random sets.
                for c in picked[:20]:
                    combo = tuple(c.tolist())
                    assert closure_upper_mask(n, level, s, combo) == closure_by_block_structure(
                        n, level, s, combo
                    ), (n, level, s, combo)

    def test_checks_fire_as_in_the_scalar_path(self):
        # Beyond the admissible s the closure can spill into the padding;
        # both paths must then refuse the same level sets, for a gap that
        # leaves [1, n].
        refused = 0
        for n in range(2, 9):
            for level in range(1, n):
                for s in range(family_cap(n, level) + 1, n + 2):
                    for combo in combinations(range(1, n + 1), level):
                        try:
                            expected = closure_upper_mask(n, level, s, combo)
                        except InternalCheckError as exc:
                            expected = "leaves [1," in str(exc)
                        try:
                            column = np.array([combo]).T
                            lowers = bitops.row_masks(column, n)
                            got = int(closure_upper_masks(n, level, s, column, lowers)[0])
                        except InternalCheckError as exc:
                            got = "leaves [1," in str(exc)
                        assert got == expected, (n, level, s, combo)
                        refused += expected is True
        assert refused > 0


class TestFamilyCovers:
    def test_matches_the_expanded_family_for_every_admissible_case(self):
        # Every (n, level, s, q) with n <= 20: the closed-form test against
        # the members of every interval of the family, q above its level.
        cases = checked = 0
        for n in range(2, 21):
            for level in range(1, n):
                for s in range(1, family_cap(n, level) + 1):
                    lowers_sets = next(bitops.lex_combinations(n, level, 1 << 30))
                    lowers = bitops.row_masks(lowers_sets, n)
                    uppers = closure_upper_masks(n, level, s, lowers_sets, lowers)
                    members = bitops.expand_uniform(lowers, uppers, s)
                    added = s - bitops.popcounts(np.arange(1 << s))
                    for q in range(1, s + 1):
                        sets = next(bitops.lex_combinations(n, level + q, 1 << 30))
                        expected = np.isin(bitops.row_masks(sets, n), members[added == q])
                        got = family_covers(n, level, s, sets)
                        assert np.array_equal(got, expected), (n, level, s, q)
                        cases += 1
                        checked += sets.shape[1]
        assert (cases, checked) == (588, 6821836)

    @pytest.mark.parametrize("n", [31, 32, 33, 63, 64])
    def test_matches_subset_search_at_the_mask_width_edges(self, n):
        # Random sets, and as many sets A + G, G random q gaps of a random
        # level set A: a set C is covered iff the interval of some
        # level-subset of C holds all of C.
        rng = np.random.default_rng(n)
        for level in sorted({1, 2, n // 8}):
            for s in sorted({1, 2, family_cap(n, level)}):
                for q in sorted({1, s}):
                    lows = [rng.choice(n, level, replace=False) + 1 for _ in range(50)]
                    picked = [rng.choice(n, level + q, replace=False) + 1 for _ in range(50)]
                    for a in lows:
                        upper = closure_upper_mask(n, level, s, tuple(sorted(a.tolist())))
                        gaps = [b + 1 for b in range(n) if upper >> b & 1 and b + 1 not in a]
                        picked.append(np.append(a, rng.choice(gaps, q, replace=False)))
                    sets = np.sort(np.array(picked, dtype=np.int16), axis=1).T
                    rows = np.array(
                        [a for c in sets.T.tolist() for a in combinations(c, level)], np.int16
                    ).T
                    uppers = closure_upper_masks(n, level, s, rows, bitops.row_masks(rows, n))
                    wanted = bitops.row_masks(sets, n).repeat(rows.shape[1] // sets.shape[1])
                    held = (uppers & wanted) == wanted
                    expected = held.reshape(sets.shape[1], -1).any(axis=1)
                    assert expected[50:].all()
                    got = family_covers(n, level, s, sets)
                    assert np.array_equal(got, expected), (n, level, s, q)

    @pytest.mark.parametrize("size", [3, 6])
    def test_a_size_outside_the_family_reach_is_an_internal_error(self, size):
        # The family I[11, 3, 3] covers sizes 4 and 5 only.
        sets = next(bitops.lex_combinations(11, size, 1 << 10))
        with pytest.raises(InternalCheckError, match=r"outside \[1, 2\]"):
            family_covers(11, 3, 2, sets)


class TestLiftedFamilies:
    def test_counts_and_upper_sizes(self):
        fam = interval_family(5, 2, 0, 1)
        assert len(fam) == 10 and set(bitops.popcounts(fam.uppers).tolist()) == {3}
        fam = interval_family(7, 1, 0, 3)
        assert len(fam) == 7 and set(bitops.popcounts(fam.uppers).tolist()) == {4}

    def test_inadmissible_parameters_refused(self):
        # s = 1 exceeds floor((4-2)/3) = 0: the lift degenerates
        with pytest.raises(SOutOfRangeError):
            interval_family(4, 1, 1, 1)

    def test_pairwise_disjoint_exhaustive(self):
        for n in range(3, 9):
            for level in range(1, n):
                for s in range(1, family_cap(n, level) + 1):
                    intervals = list(interval_family(n, level, 0, s))
                    for i in range(len(intervals)):
                        for j in range(i + 1, len(intervals)):
                            assert not intervals[i].intersects(intervals[j])


class TestCoverage:
    def test_examples(self):
        fam = interval_family(5, 2, 0, 1)
        assert is_covered(CircularSet(5, [1, 2, 5]), fam)
        assert is_covered(CircularSet(5, [1, 2]), fam)
        assert not is_covered(CircularSet(5, [1]), fam)

    def test_accepts_plain_interval_iterables(self):
        fam = interval_family(5, 2, 0, 1)
        assert is_covered(CircularSet(5, [1, 2, 5]), list(fam))

    def test_universe_mismatch(self):
        fam = interval_family(5, 2, 0, 1)
        with pytest.raises(UniverseMismatchError):
            is_covered(CircularSet(6, [1, 2]), fam)

    def test_superset_closure_examples(self):
        fam = interval_family(5, 2, 0, 1)
        # every uncovered set at or above the family's level obeys closure
        for size in range(2, 6):
            for combo in combinations(range(1, 6), size):
                dset = CircularSet(5, combo)
                if not is_covered(dset, fam):
                    assert check_superset_closure(dset, fam)
        # below the level the law genuinely fails: supersets are covered
        assert not check_superset_closure(CircularSet(5, [1]), fam)

    def test_superset_closure_rejects_covered(self):
        fam = interval_family(5, 2, 0, 1)
        with pytest.raises(PreconditionViolatedError):
            check_superset_closure(CircularSet(5, [1, 2]), fam)

    def test_superset_closure_exhaustive_small(self):
        for n in range(3, 7):
            for level in range(1, n):
                for s in range(1, family_cap(n, level) + 1):
                    fam = interval_family(n, level, 0, s)
                    for size in range(level, n + 1):
                        for combo in combinations(range(1, n + 1), size):
                            dset = CircularSet(n, combo)
                            if not is_covered(dset, fam):
                                assert check_superset_closure(dset, fam)


def check_against_definition(n, family, pairs):
    """``is_covered`` and ``check_superset_closure`` on every subset of [n]
    agree with the brute-force references over the mask pairs ``pairs``."""
    for dmask in range(1 << n):
        dset = CircularSet.from_mask(n, dmask)
        covered = covered_by_definition(dmask, pairs)
        assert is_covered(dset, family) == covered, (n, dmask)
        if covered:
            with pytest.raises(PreconditionViolatedError):
                check_superset_closure(dset, family)
        else:
            assert check_superset_closure(dset, family) == superset_closure_by_definition(
                n, dmask, pairs
            ), (n, dmask)


@st.composite
def interval_lists(draw):
    """(n, intervals) with n <= 7; lower endpoints come from a small pool,
    so they repeat, and the uppers add any bits, so sizes mix."""
    n = draw(st.integers(1, 7))
    full = (1 << n) - 1
    pool = draw(st.lists(st.integers(0, full), min_size=1, max_size=4))
    pairs = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(0, full)), max_size=10))
    return n, [
        PosetInterval(CircularSet.from_mask(n, lo), CircularSet.from_mask(n, lo | extra))
        for lo, extra in pairs
    ]


class TestCoverageByDefinition:
    @given(interval_lists())
    @settings(max_examples=150, deadline=None)
    def test_random_interval_lists_in_both_orders(self, case):
        n, intervals = case
        pairs = [(iv.lower.mask, iv.upper.mask) for iv in intervals]
        check_against_definition(n, intervals, pairs)
        check_against_definition(n, intervals[::-1], pairs)

    def test_every_small_family_exhaustively(self, tmp_path):
        for n in range(2, 8):
            for level in range(1, n):
                for s in range(1, family_cap(n, level) + 1):
                    fam = interval_family(n, level, 0, s)
                    pairs = list(zip(fam.lowers.tolist(), fam.uppers.tolist()))
                    check_against_definition(n, fam, pairs)
        # Whole built partitions, as built and as parsed from their files.
        for part, _ in (build_partition(9, 2), build_partition_k3(1)):
            pairs = list(zip(part.lowers.tolist(), part.uppers.tolist()))
            path = tmp_path / f"{part.n}-{part.d}.txt"
            write_partition_file(part, path)
            parsed = parse_partition_file(path)
            assert parsed == part
            for family in (part, parsed):
                check_against_definition(part.n, family, pairs)

    def test_iterable_of_families(self):
        fams = [interval_family(7, 1, 0, 1), interval_family(7, 2, 0, 1)]
        pairs = [p for f in fams for p in zip(f.lowers.tolist(), f.uppers.tolist())]
        check_against_definition(7, fams, pairs)

    def test_closure_reads_a_one_shot_iterable_once(self):
        fam = interval_family(5, 2, 0, 1)
        assert not check_superset_closure(CircularSet(5, [1]), iter(list(fam)))

    def test_superset_closure_sees_every_upper_endpoint(self):
        # {1,3} is uncovered, yet {1,3,5} lies in [{5}, {1,3,5,6}], whose
        # upper endpoint is larger than any other interval's.
        c, p = CircularSet, PosetInterval
        intervals = [
            p(c(6, [2, 3]), c(6, [2, 3])),
            p(c(6, [1]), c(6, [1])),
            p(c(6, [5]), c(6, [1, 3, 5, 6])),
        ]
        for order in (intervals, intervals[::-1]):
            assert not is_covered(c(6, [1, 3]), order)
            assert not check_superset_closure(c(6, [1, 3]), order)

    def test_is_covered_with_a_repeated_lower_endpoint(self):
        # Two intervals share the lower endpoint {1}, and only one of them
        # holds {1,2}.
        c, p = CircularSet, PosetInterval
        intervals = [p(c(3, [1]), c(3, [1, 2])), p(c(3, [1]), c(3, [1]))]
        for order in (intervals, intervals[::-1]):
            assert is_covered(c(3, [1, 2]), order)


class TestMixedDensityDisjoint:
    def test_example(self):
        assert check_mixed_density_disjoint(
            CircularSet(7, [1]), CircularSet(7, [2, 3]), 3, 2
        )

    def test_vacuous_containment(self):
        assert check_mixed_density_disjoint(
            CircularSet(7, [1]), CircularSet(7, [1, 2]), 3, 2
        )

    def test_vacuous_loose_closure(self):
        # f({2}) at density 2 on [7] adds 5 gap points: hypothesis fails
        assert check_mixed_density_disjoint(
            CircularSet(7, [1]), CircularSet(7, [2]), 2, 2
        )

    def test_preconditions(self):
        with pytest.raises(PreconditionViolatedError):
            check_mixed_density_disjoint(
                CircularSet(7, [1, 2]), CircularSet(7, [3]), 3, 2
            )
        with pytest.raises(PreconditionViolatedError):
            check_mixed_density_disjoint(
                CircularSet(7, [1]), CircularSet(7, [2, 3]), 2, 3
            )


class TestCrossLevelDisjoint:
    def test_admissible_example(self):
        # 3*eta = 6 >= 2*delta = 6, eta <= floor(8/3), delta <= floor(8/2)
        assert check_cross_level_disjoint(
            CircularSet(7, [1]), CircularSet(7, [2, 3]), 1, 0, 1, 3, 2
        )

    def test_vacuous_when_covered(self):
        c = CircularSet(7, [1])
        upper = CircularSet.from_mask(7, closure_upper_mask(7, 1, 2, c.members))
        dset = CircularSet(7, upper.members[:2])
        assert c.is_subset_of(dset)
        assert check_cross_level_disjoint(c, dset, 1, 0, 1, 3, 2)

    def test_refuses_failed_ratio(self):
        with pytest.raises(PreconditionViolatedError) as exc:
            check_cross_level_disjoint(
                CircularSet(7, [1]), CircularSet(7, [2, 3]), 1, 0, 1, 4, 2
            )
        assert "(d+l+1)*eta" in str(exc.value)

    def test_refuses_density_above_level_bound(self):
        # eta = 3 > floor(8/3): the lift of a 2-set cannot run at density 3
        with pytest.raises(PreconditionViolatedError):
            check_cross_level_disjoint(
                CircularSet(7, [1]), CircularSet(7, [2, 3]), 1, 0, 1, 4, 3
            )


class TestPosetInterval:
    def test_contains_and_intersects(self):
        iv = PosetInterval(CircularSet(5, [1, 2]), CircularSet(5, [1, 2, 5]))
        assert iv.contains(CircularSet(5, [1, 2]))
        assert iv.contains(CircularSet(5, [1, 2, 5]))
        assert not iv.contains(CircularSet(5, [1, 3]))
        other = PosetInterval(CircularSet(5, [3]), CircularSet(5, [1, 2, 3, 5]))
        assert not iv.intersects(other)
        overlapping = PosetInterval(CircularSet(5, [1]), CircularSet(5, [1, 2, 5]))
        assert iv.intersects(overlapping)

    def test_member_masks_enumerate_volume(self):
        iv = PosetInterval(CircularSet(5, [1]), CircularSet(5, [1, 2, 3]))
        assert sorted(iv.member_masks()) == [0b1, 0b11, 0b101, 0b111]
        assert iv.volume == 4

    def test_validates(self):
        with pytest.raises(PreconditionViolatedError):
            PosetInterval(CircularSet(5, [1, 3]), CircularSet(5, [1, 2]))
        with pytest.raises(UniverseMismatchError):
            PosetInterval(CircularSet(5, [1]), CircularSet(6, [1, 2]))
