import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import (
    _BudgetHit as ReferenceBudgetHit,
    cover_feasible_building_every_candidate,
    exact_sdepth_unrestricted,
    materialize,
    verify_by_definition,
)

import veronese_sdepth.oracle as oracle_module
import veronese_sdepth.verify as verify_module
from veronese_sdepth.builder import predicted_volume

from veronese_sdepth import (
    DEFAULT_ORACLE_BUDGET,
    DEFAULT_SWEEP_CAP,
    CircularSet,
    IntervalPartition,
    InvalidPartitionError,
    PreconditionViolatedError,
    build_partition,
    build_partition_k3,
    certify_layered,
    conjectured_sdepth,
    exact_sdepth,
    regime_of,
    render_stanley_decomposition,
    sdepth_of_partition,
    sdepth_report,
    sdepth_upper_bound,
    select_build,
    verify_partition,
)


def small_partition():
    return materialize(build_partition(5, 2).partition)


def drop_interval(p, idx):
    keep = np.ones(len(p), dtype=bool)
    keep[idx] = False
    return IntervalPartition(p.n, p.d, p.lowers[keep], p.uppers[keep])


def duplicate_interval(p, idx):
    return IntervalPartition(
        p.n,
        p.d,
        np.concatenate([p.lowers, p.lowers[idx : idx + 1]]),
        np.concatenate([p.uppers, p.uppers[idx : idx + 1]]),
    )


def shrink_upper(p, idx):
    uppers = p.uppers.copy()
    lo, up = int(p.lowers[idx]), int(p.uppers[idx])
    removable = up & ~lo
    assert removable
    uppers[idx] = up ^ (removable & -removable)
    return IntervalPartition(p.n, p.d, p.lowers.copy(), uppers)


class TestVerifyPartition:
    def test_built_partition_verifies(self):
        verdict = verify_partition(small_partition())
        assert verdict.ok and verdict.disjoint and verdict.covers
        assert verdict.min_upper_size == 3
        assert verdict.interval_count == 16
        assert verdict.overlap_witness is None and verdict.uncovered_witness is None

    def test_dropped_interval_reported_uncovered(self):
        p = small_partition()
        verdict = verify_partition(drop_interval(p, len(p) - 1))
        assert verdict.disjoint and not verdict.covers
        assert verdict.uncovered_witness is not None
        witness = verdict.uncovered_witness
        assert witness == CircularSet.from_mask(p.n, int(p.lowers[len(p) - 1]))

    def test_duplicated_interval_reported_overlapping(self):
        p = small_partition()
        verdict = verify_partition(duplicate_interval(p, 0))
        assert not verdict.disjoint and verdict.covers
        i, j, witness = verdict.overlap_witness
        assert (i, j) == (0, len(p))
        assert witness == p.interval(0).lower

    def test_mask_in_three_intervals_reports_earliest_non_trivial_pair(self):
        # {1,2,3,4} is a singleton of the built partition; two appended
        # copies of [{1,2,3,4}, {1,..,5}] put it in three intervals.  The
        # witness is the smallest repeated mask, and its pair is the two
        # earliest holders with non-trivial intervals ahead of singletons.
        p = small_partition()
        mask = CircularSet(5, [1, 2, 3, 4]).mask
        singleton = int(np.flatnonzero((p.lowers == mask) & (p.uppers == mask))[0])
        lo = np.array([mask, mask], dtype=p.lowers.dtype)
        up = np.array([0b11111, 0b11111], dtype=p.uppers.dtype)
        tripled = IntervalPartition(
            p.n,
            p.d,
            np.concatenate([p.lowers, lo]),
            np.concatenate([p.uppers, up]),
        )
        verdict = verify_partition(tripled)
        assert not verdict.disjoint and verdict.covers
        assert singleton < len(p)
        assert verdict.overlap_witness == (len(p), len(p) + 1, CircularSet(5, [1, 2, 3, 4]))

    def test_shrunk_upper_reported_uncovered(self):
        p = small_partition()
        verdict = verify_partition(shrink_upper(p, 0))
        assert verdict.disjoint and not verdict.covers
        assert verdict.uncovered_witness is not None

    def test_empty_partition(self):
        p = small_partition()
        empty = IntervalPartition(5, 2, p.lowers[:0], p.uppers[:0])
        verdict = verify_partition(empty)
        assert not verdict.covers and verdict.min_upper_size == 0

    def test_explicit_partition_beyond_materializing_reports_first_missing(self):
        # At n = 30 the verifier expands only the listed intervals and walks
        # to the first absent 2-set, {1, 5}, without touching all 2^30 sets.
        def masks(*sets):
            return np.array([CircularSet(30, s).mask for s in sets], dtype=np.uint32)

        lowers = masks([1, 2], [1, 3], [1, 4])
        uppers = masks([1, 2, 3], [1, 3], [1, 4, 5])
        sparse = IntervalPartition(30, 2, lowers, uppers)
        tracemalloc.start()
        try:
            verdict = verify_partition(sparse)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict.disjoint and not verdict.covers
        assert verdict.uncovered_witness == CircularSet(30, [1, 5])
        assert verdict.min_upper_size == 2 and verdict.interval_count == 3
        assert peak < 4 * 2**20


@st.composite
def listed_partitions(draw):
    """(n, d, pairs, claim): a build of (n, d), n <= 6, in compact form or
    materialized, with some intervals dropped, some listed again (an index
    may repeat, so an interval can be listed three times) and some random
    intervals added, which overlap others and may leave their sizes."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, n))
    part = build_partition(n, d).partition
    if draw(st.booleans()):
        part, claim = materialize(part), None
    else:
        claim = draw(st.sampled_from([part.claimed_min, *range(d, n + 1)]))
    pairs = list(zip(part.lowers.tolist(), part.uppers.tolist()))
    dropped = draw(st.sets(st.integers(0, max(len(pairs) - 1, 0)), max_size=3))
    pairs = [pair for i, pair in enumerate(pairs) if i not in dropped]
    if pairs:
        pairs += [pairs[i] for i in draw(st.lists(st.integers(0, len(pairs) - 1), max_size=3))]
    full = (1 << n) - 1
    poset = [m for m in range(1 << n) if m.bit_count() >= d]
    pairs += draw(
        st.lists(st.tuples(st.sampled_from(poset), st.integers(0, full)), max_size=3).map(
            lambda extra: [(lo, lo | up) for lo, up in extra]
        )
    )
    return n, d, pairs, claim


def check_against_the_definition(case):
    n, d, pairs, claim = case
    dtype = np.uint32
    lowers = np.array([lo for lo, _ in pairs], dtype=dtype)
    uppers = np.array([up for _, up in pairs], dtype=dtype)
    p = IntervalPartition(n, d, lowers, uppers, claim)
    assert verify_partition(p) == verify_by_definition(p)


# (5, 2) with its first interval listed three times: every member of it
# repeats twice, and so does {1, 2} among the 2-sets.
TRIPLED = [(0b11, 0b10011)] * 3 + [(0b101, 0b10101)]


class TestVerifyByDefinition:
    @given(listed_partitions())
    @settings(max_examples=300, deadline=None)
    @example((5, 2, TRIPLED, None))
    @example((5, 2, TRIPLED, 3))
    def test_counts_and_witnesses_match_the_definition(self, case):
        check_against_the_definition(case)

    @pytest.mark.parametrize("block", [1, 3])
    @given(case=listed_partitions())
    @settings(max_examples=150, deadline=None)
    @example(case=(5, 2, TRIPLED, None))
    @example(case=(5, 2, TRIPLED, 3))
    def test_block_edges_change_nothing(self, block, case):
        # Interval blocks of 1 or 3 split the runs of mixed volumes, and
        # scan blocks that small put a repeat across two of them.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify_module, "_INTERVAL_BLOCK", block)
            patch.setattr(verify_module, "_SCAN_BLOCK", block)
            check_against_the_definition(case)


@pytest.mark.parametrize(
    "n,d", [(25, 5), (29, 1), (30, 2), (23, 5)], ids=["25-5", "29-1", "30-2", "k3-5"]
)
def test_verifier_working_set_is_its_member_array(n, d):
    # What verify_partition allocates beyond the partition it is given:
    # the sorted member array of the listed volume, plus blocks.
    if n == 4 * d + 3:
        p = build_partition_k3(d).partition
    else:
        p = certify_layered(n, d, cap=DEFAULT_SWEEP_CAP, use_k3=False).partition
    # A first call's one-time allocations are not the working set.
    verify_partition(small_partition())
    tracemalloc.start()
    try:
        verdict = verify_partition(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.ok
    assert peak <= p.volume() * p.lowers.dtype.itemsize + 2 * 2**20


class TestSdepthOfPartition:
    def test_values(self):
        assert sdepth_of_partition(small_partition()) == 3
        assert sdepth_of_partition(build_partition(4, 2)[0]) == 2
        assert sdepth_of_partition(build_partition_k3(1)[0]) == 4

    def test_rejects_invalid(self):
        broken = drop_interval(small_partition(), 3)
        with pytest.raises(InvalidPartitionError):
            sdepth_of_partition(broken)


class TestRender:
    def test_summand_format(self):
        p = small_partition()
        lines = render_stanley_decomposition(p).splitlines()
        assert len(lines) == len(p)
        assert lines[0] == "x1*x2 · K[x1,x2,x5]"
        assert lines[-1] == "x1*x2*x3*x4*x5 · K[x1,x2,x3,x4,x5]"

    def test_trivial_summand(self):
        part, _ = build_partition(3, 3)
        assert render_stanley_decomposition(part) == "x1*x2*x3 · K[x1,x2,x3]"

    def test_refuses_invalid(self):
        with pytest.raises(InvalidPartitionError):
            render_stanley_decomposition(drop_interval(small_partition(), 0))


def overclaimed(n, d):
    """The compact build of (n, d), claiming one more than it reaches."""
    p = build_partition(n, d).partition
    return IntervalPartition(p.n, p.d, p.lowers, p.uppers, p.claimed_min + 1)


@pytest.mark.parametrize("use", [sdepth_of_partition, render_stanley_decomposition])
def test_rejection_names_its_witnesses(use):
    with pytest.raises(InvalidPartitionError, match="failed verification: below claim: "):
        use(overclaimed(9, 2))


class TestExactOracle:
    def test_tiny_values(self):
        assert exact_sdepth(3, 1) == 2
        assert exact_sdepth(4, 2) == 2
        assert exact_sdepth(5, 2) == 3

    def test_budget_exhaustion_is_none(self):
        assert exact_sdepth(6, 1, budget=5) is None

    def test_agreement_with_formula_through_seven(self):
        for n in range(1, 7):
            for d in range(1, n + 1):
                assert exact_sdepth(n, d) == conjectured_sdepth(n, d)
        assert exact_sdepth(7, 1) == 4
        assert exact_sdepth(7, 2) == 3

    def test_agreement_with_formula_through_eleven(self):
        for n in range(1, 12):
            for d in range(1, n + 1):
                assert exact_sdepth(n, d) == conjectured_sdepth(n, d), (n, d)

    def test_equals_unrestricted_search_through_eight(self):
        for n in range(1, 9):
            for d in range(1, n + 1):
                got = exact_sdepth(n, d)
                assert got is not None and got == exact_sdepth_unrestricted(n, d), (n, d)

    @pytest.mark.parametrize("n, d, value", [(15, 4, 6), (16, 5, 6), (18, 6, 7)])
    def test_answers_beyond_desk_scale_on_the_default_budget(self, n, d, value):
        assert exact_sdepth(n, d) == value

    @pytest.mark.parametrize(
        "n, d",
        [(n, 1) for n in range(9, 21) if n != 19]
        + [(n, 2) for n in range(14, 21)]
        + [(19, 3), (20, 3)],
    )
    def test_answers_the_open_table_rows_on_the_default_budget(self, n, d):
        # The rows that `table --d-range 1..5 --n-range 1..20` leaves
        # unverified, but for (19, 1), which the default budget cannot
        # settle: the answer reaches the upper bound on each.
        assert exact_sdepth(n, d) == sdepth_upper_bound(n, d)

    @pytest.mark.parametrize(
        "n, d, counting_prune, spent",
        [
            (3, 1, True, 16),
            (5, 1, True, 65),
            (5, 2, False, 219),
            (14, 2, True, 14791),
            (13, 1, True, 15575),
        ],
    )
    def test_budget_is_charged_for_every_step(self, n, d, counting_prune, spent):
        # The smallest budget that answers is the work done.  At (3, 1),
        # t = 3 fails the counting test; t = 2 enumerates {1}, {2}, {3}
        # (3 units).  {1} probes 2 and takes [1, 12]; {2} probes 1 (12 is
        # covered) and 3 and takes [2, 23]; {3} probes 1 and takes
        # [3, 13]: 4 probes and 3 candidates of 1 + 2 units, 16 in all.
        # (5, 1) also skips covered 2-sets, and (5, 2) without the prune
        # backtracks.  At (14, 2) and (13, 1) most candidates are blocked,
        # and a blocked candidate is never built, so it costs nothing.
        assert exact_sdepth(n, d, spent, counting_prune) is not None
        assert exact_sdepth(n, d, spent - 1, counting_prune) is None

    @pytest.mark.parametrize("counting_prune", [True, False])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_search_matches_building_every_candidate(self, n, counting_prune):
        # Per target, at every budget tried, the search gives the answer
        # of the reference that builds every candidate, or runs out; on
        # the default budget it answers wherever the reference does.
        # Without the counting test the search backtracks, so frames
        # resume and rebuild the members they applied, and the reference
        # runs out on some targets above the answer.  Those targets are
        # infeasible, as the reference with the counting test says.
        def outcome(search, budget_hit, d, t, budget, prune=counting_prune):
            try:
                return search(n, d, t, [budget], prune)
            except budget_hit:
                return "budget"

        def reference(d, t, prune=counting_prune):
            return outcome(
                cover_feasible_building_every_candidate,
                ReferenceBudgetHit,
                d,
                t,
                DEFAULT_ORACLE_BUDGET,
                prune,
            )

        for d in range(1, n + 1):
            for t in range(n, d, -1):
                want = reference(d, t)
                answer = reference(d, t, True) if want == "budget" else want
                assert answer in (True, False), (d, t)
                for budget in (1, 50, 500, 5000, DEFAULT_ORACLE_BUDGET):
                    got = outcome(
                        oracle_module._cover_feasible, oracle_module._BudgetHit, d, t, budget
                    )
                    assert got in (answer, "budget"), (d, t, budget)
                if want != "budget":
                    assert got == want, (d, t)

    @pytest.mark.parametrize("counting_prune", [True, False])
    def test_answers_exactly_when_the_budget_covers_its_spend(self, counting_prune):
        # Every charge is checked as it is made: each budget below a
        # target's spend runs out, and its spend answers with nothing left.
        search, budget_hit = oracle_module._cover_feasible, oracle_module._BudgetHit
        for n in range(1, 6):
            for d in range(1, n + 1):
                for t in range(n, d, -1):
                    work = [DEFAULT_ORACLE_BUDGET]
                    want = search(n, d, t, work, counting_prune)
                    spent = DEFAULT_ORACLE_BUDGET - work[0]
                    for budget in range(spent):
                        with pytest.raises(budget_hit):
                            search(n, d, t, [budget], counting_prune)
                    work = [spent]
                    assert search(n, d, t, work, counting_prune) == want
                    assert work == [0], (n, d, t)

    def test_counting_prune_is_conservative(self):
        cases = [(n, d) for n in range(1, 7) for d in range(1, n + 1)] + [(7, 1)]
        for n, d in cases:
            assert exact_sdepth(n, d) == exact_sdepth(n, d, counting_prune=False), (n, d)

    def test_exhausted_budget_stops_before_enumerating(self):
        tracemalloc.start()
        try:
            assert exact_sdepth(20, 1, budget=1) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_search_memory_stays_small(self):
        # A frame holds three fields: its position, the upper set it
        # applied, and an iterator over its later candidates, made only
        # once its first candidate fails, which never happens here.
        tracemalloc.start()
        try:
            assert exact_sdepth(16, 5) == 6
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_search_stopped_by_the_budget_stays_small(self):
        # (18, 6) enumerates its 18,564 6-sets, then searches t = 7 until
        # the budget runs out.  The peak is about 2.6 MiB, some 45 bytes a
        # unit.
        n, d, budget = 18, 6, 60_000
        assert comb(n, d) < budget
        tracemalloc.start()
        try:
            assert exact_sdepth(n, d, budget) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_never_above_builder_certificate(self):
        for n in range(2, 7):
            for d in range(1, n + 1):
                part, _ = build_partition(n, d)
                assert sdepth_of_partition(part) <= exact_sdepth(n, d)


class TestSdepthReport:
    def test_small_instance_verified(self):
        rep = sdepth_report(5, 2, with_oracle=True)
        assert rep.certified_lower == rep.conjectured == rep.oracle_exact == 3
        assert rep.verified and rep.certification == "construction"

    def test_band_lifts_certificate(self):
        rep = sdepth_report(8, 1)
        assert rep.certified_lower == 4 and rep.verified
        assert "k3-band" in rep.certification

    def test_k3_path(self):
        rep = sdepth_report(7, 1)
        assert rep.certified_lower == 4 and rep.certification == "construction-k3"

    def test_layered_path(self):
        rep = sdepth_report(29, 1)
        assert rep.certified_lower == 6 and rep.upper_bound_formula == 15
        assert not rep.verified and rep.certification == "layered"

    @pytest.mark.parametrize(
        "n,d,how",
        [
            (22, 5, "construction"),
            (23, 5, "construction-k3"),
            (25, 5, "layered"),
            (29, 1, "layered"),
            (30, 2, "layered"),
        ],
    )
    def test_every_certified_number_is_verified(self, monkeypatch, n, d, how):
        built, checked = [], []
        for name in ("build_partition", "build_partition_k3", "certify_layered"):

            def recorded(*args, _build=getattr(verify_module, name), **kwargs):
                result = _build(*args, **kwargs)
                built.append(result.partition)
                return result

            monkeypatch.setattr(verify_module, name, recorded)

        def counted(p, _verify=verify_module.verify_partition):
            checked.append(p)
            return _verify(p)

        monkeypatch.setattr(verify_module, "verify_partition", counted)
        rep = sdepth_report(n, d)
        assert rep.certification == how
        assert len(built) == len(checked) == 1 and checked[0] is built[0]
        assert rep.certified_lower == built[0].claimed_min

    @pytest.mark.parametrize(
        "n,d,cap,how",
        [
            (24, 11, DEFAULT_SWEEP_CAP, "construction"),
            (26, 1, DEFAULT_SWEEP_CAP, "layered"),
            (26, 1, 10_400_600, "construction"),
            (27, 1, 10**9, "layered"),
            (3, 1, 6, "construction"),  # the listed volume is exactly the cap
        ],
    )
    def test_build_label_boundary(self, n, d, cap, how):
        # C(26, 13) = 10,400,600; beyond n = 26 every build is layered.
        built, label = select_build(n, d, cap, False)
        assert label == how and built is not None

    @pytest.mark.parametrize(
        "n,d,cap,volume",
        [(26, 11, 10_400_600, 15_452_320), (24, 11, 3_000_000, 4_992_288), (3, 1, 3, 6)],
    )
    def test_listed_volume_beyond_the_cap_refuses_the_construction(self, n, d, cap, volume):
        # C(n, ceil(n/2)) is within the cap but the listed volume is not,
        # so the layered build is chosen, and it refuses that volume.
        assert comb(n, (n + 1) // 2) <= cap < predicted_volume(n, d) == volume
        assert select_build(n, d, cap, False) == (None, "layered")
        assert sdepth_report(n, d, cap=cap).certification == "none"

    @pytest.mark.parametrize("cap", [DEFAULT_SWEEP_CAP, 3])
    def test_select_build_refuses_k3_off_4d_plus_3(self, cap):
        with pytest.raises(PreconditionViolatedError, match="4d \\+ 3"):
            select_build(20, 4, cap, True)

    def test_bounds_ordering_enforced(self):
        rep = sdepth_report(9, 1, with_oracle=False)
        assert rep.certified_lower <= rep.upper_bound_formula
        assert rep.regime == regime_of(9, 1)
        assert rep.conjectured == conjectured_sdepth(9, 1)
