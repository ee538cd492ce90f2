import hashlib
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from veronese_sdepth import (
    DEFAULT_SWEEP_CAP,
    Build,
    CircularSet,
    PreconditionViolatedError,
    Regime,
    bitops,
    builder,
    core,
    build_partition,
    build_partition_k3,
    certify_layered,
    conjectured_sdepth,
    interval_family,
    is_covered,
    lower_bound_large_n,
    regime_of,
    sdepth_upper_bound,
    threshold,
    verify_partition,
)
from veronese_sdepth.builder import (
    _flag_covered,
    _plan_for,
    _predicted_kept,
    _run_layers,
    build_refusal,
    predicted_volume,
)
from veronese_sdepth.cli import main, write_partition_file
from veronese_sdepth.errors import InternalCheckError
from veronese_sdepth.verify import select_build, verify_build
from oracles import materialize, per_subset_layers, searchsorted_layers


def ensured(d, k3):
    """The sizes the base layer must cover on its own: the (d+1)-sets of
    the k3 construction, which no later layer visits."""
    return (d + 1,) if k3 else ()


def covered_masks(lowers, uppers):
    """Every member of the intervals [lowers[i], uppers[i]], in ascending
    order, expanded one volume at a time."""
    free = bitops.popcounts(uppers & ~lowers)
    parts = [
        bitops.expand_uniform(lowers[free == s], uppers[free == s], s).ravel()
        for s in np.unique(free).tolist()
    ]
    return np.sort(np.concatenate([np.empty(0, np.uint64), *parts]))


def layer_pairs(lowers, uppers, traces):
    """Each layer's (lower, upper) pairs, split at the traces' counts."""
    ends = np.cumsum([t.selected for t in traces])[:-1]
    return [
        list(zip(lo.tolist(), up.tolist()))
        for lo, up in zip(np.split(lowers, ends), np.split(uppers, ends))
    ]


class TestRegimeBuilds:
    def test_k1_example(self):
        built, trace = build_partition(5, 2)
        part = materialize(built)
        assert part.min_upper_size() == 3
        assert trace.layers[0].selected == 10
        assert len(part) == 10 + trace.trivial_count
        sizes = [len(iv.upper) for iv in part]
        assert min(sizes) == 3
        # everything of size >= 4 is trivial
        for iv in part:
            if len(iv.lower) >= 4:
                assert iv.lower == iv.upper

    def test_trivial_range_example(self):
        built, trace = build_partition(4, 2)
        assert len(built) == 0 and built.claimed_min == 2
        part = materialize(built)
        assert part.min_upper_size() == 2
        assert len(part) == 11 and trace.trivial_count == 11
        assert all(iv.lower == iv.upper for iv in part)

    def test_k2_example(self):
        part, trace = build_partition(9, 2)
        assert part.regime.regime == Regime.K2
        assert part.min_upper_size() == 4 == conjectured_sdepth(9, 2)
        assert [t.selected for t in trace.layers] == [36, 12]

    def test_large_example(self):
        part = materialize(build_partition(7, 1).partition)
        assert part.regime.regime == Regime.LARGE
        assert part.min_upper_size() == 3 >= lower_bound_large_n(7, 1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(PreconditionViolatedError):
            build_partition(3, 0)

    def test_materialization_guard(self):
        # A build lists only its layered intervals, so n = 30 builds; the
        # guard bounds their predicted listed volume by 2^26 sets, which
        # (40, 5), at 183,639,066, exceeds.
        assert build_partition(30, 1).partition.claimed_min == lower_bound_large_n(30, 1)
        with pytest.raises(PreconditionViolatedError, match="layered sweep"):
            build_partition(40, 5)


class TestK3Build:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_min_upper_is_d_plus_3(self, d):
        part, trace = build_partition_k3(d)
        assert part.n == 4 * d + 3
        assert part.min_upper_size() == d + 3
        assert verify_partition(part).ok

    def test_base_layer_covers_next_size(self):
        # re-check externally: every (d+1)-set lies inside the base family
        for d in (1, 2):
            n = 4 * d + 3
            fam = interval_family(n, d, 0, 3)
            for combo in combinations(range(1, n + 1), d + 1):
                assert any(
                    iv_lower & ~mask == 0 and mask & ~iv_upper == 0
                    for iv_lower, iv_upper in zip(fam.lowers.tolist(), fam.uppers.tolist())
                    for mask in [sum(1 << (x - 1) for x in combo)]
                )

    def test_rejects_bad_d(self):
        with pytest.raises(PreconditionViolatedError):
            build_partition_k3(0)


class TestPartitionInvariants:
    def test_lower_endpoints_at_least_d(self):
        part = materialize(build_partition(8, 3).partition)
        assert all(len(iv.lower) >= 3 for iv in part)

    def test_determinism(self):
        a, _ = build_partition(9, 2)
        b, _ = build_partition(9, 2)
        assert a == b

    def test_determinism_on_disk(self, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_partition_file(build_partition(8, 2)[0], p1)
        write_partition_file(build_partition(8, 2)[0], p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_trivial_completion_order(self):
        part = materialize(build_partition(4, 2).partition)
        lowers = [iv.lower.members for iv in part]
        sizes = [len(m) for m in lowers]
        assert sizes == sorted(sizes)
        by_size = {}
        for m in lowers:
            by_size.setdefault(len(m), []).append(m)
        for group in by_size.values():
            assert group == sorted(group)

    def test_trace_counts_consistent(self):
        _, trace = build_partition(11, 2)
        for layer in trace.layers:
            assert layer.selected + layer.discarded == layer.candidates
            assert layer.candidates > 0


class TestCoverageQuery:
    def test_matches_membership_set(self):
        part = build_partition(9, 2).partition
        covered = covered_masks(part.lowers, part.uppers)
        for size in range(2, 10):
            for combo in combinations(range(1, 10), size):
                dset = CircularSet(9, combo)
                assert is_covered(dset, part) == (dset.mask in covered)

    def test_endpoint_examples(self):
        part = build_partition(7, 1).partition
        lower = CircularSet(7, [1])
        upper_mask = int(part.uppers[part.lowers == lower.mask][0])
        assert is_covered(lower, part)
        assert is_covered(CircularSet.from_mask(7, upper_mask), part)


class TestBatchedLayers:
    @pytest.mark.parametrize(
        "n, d, k3, regime",
        [
            (9, 2, False, Regime.K2),
            (12, 2, False, None),
            (13, 1, False, None),
            (19, 4, False, Regime.LARGE),
            (15, 3, True, None),
            (23, 5, False, Regime.MID),
        ],
    )
    def test_matches_per_subset_loop(self, n, d, k3, regime):
        reg = regime_of(n, d)
        assert regime is None or reg.regime == regime
        plan = _plan_for(reg, k3)
        lowers, uppers, traces = _run_layers(n, plan.layers)
        tables, ref_covered, ref_traces = per_subset_layers(
            n, plan.layers, ensured(d, k3)
        )
        assert layer_pairs(lowers, uppers, traces) == [list(t.items()) for t in tables]
        covered = covered_masks(lowers, uppers)
        assert np.all(covered[1:] > covered[:-1])
        assert set(covered.tolist()) == ref_covered
        assert [
            (t.tag, t.level_size, t.density, t.candidates, t.selected, t.discarded)
            for t in traces
        ] == ref_traces

    def test_top_size_of_a_layer_filters_the_next(self):
        # The base layer's 3-sets are its largest members; no construction
        # filters at that size, but the next layer here does.
        plan = [(2, 1), (3, 1)]
        lowers, uppers, traces = _run_layers(9, plan)
        ref_lowers, ref_uppers, _, ref_counts = searchsorted_layers(9, plan)
        assert np.array_equal(lowers, ref_lowers)
        assert np.array_equal(uppers, ref_uppers)
        assert [(t.candidates, t.selected) for t in traces] == ref_counts

    def test_escaped_set_named_as_in_per_subset_loop(self, monkeypatch):
        # A k3 plan whose base has density 3 leaves (d+1)-sets uncovered
        # under a claim of d + 3.  The builder does not count its cover;
        # the verifier names the first escaped set as the reference loop
        # does.
        plan_for = builder._plan_for

        def density_3_base(reg, k3=False):
            plan = plan_for(reg, k3)
            (level, _), *rest = plan.layers
            return plan._replace(layers=[(level, 2), *rest])

        monkeypatch.setattr(builder, "_plan_for", density_3_base)
        with pytest.raises(InternalCheckError) as ref:
            per_subset_layers(11, builder._plan_for(regime_of(11, 2), True).layers, (3,))
        assert str(ref.value) == "size-3 set (1, 2, 3) escaped the base layer"
        built = build_partition_k3(2)
        with pytest.raises(InternalCheckError) as got:
            verify_build(built.partition)
        assert str(got.value) == (
            "built partition failed verification: below claim: {1,2,3} is "
            "uncovered, so its implicit singleton has size 3 < min_upper=5"
        )

    @pytest.mark.parametrize(
        "n, d, short",
        [
            (9, 2, "interval 0 has upper {1,2,8,9}, which has size 4"),
            (4, 2, "{1,2} is uncovered, so its implicit singleton has size 2"),
            (7, 1, "interval 0 has upper {1,5,6,7}, which has size 4"),
        ],
        ids=["k2-interval", "trivial-singleton", "k3-interval"],
    )
    def test_over_claim_is_named_by_the_verifier(self, monkeypatch, capsys, n, d, short):
        # A plan that claims one more than its layers reach: the builder
        # passes the claim through, and the verifier names the interval or
        # the implicit singleton that falls short.  (7, 1) is the k3 build.
        plan_for = builder._plan_for
        monkeypatch.setattr(
            builder,
            "_plan_for",
            lambda reg, k3=False: plan_for(reg, k3)._replace(
                min_upper=plan_for(reg, k3).min_upper + 1
            ),
        )
        assert main(["report", "-n", str(n), "-d", str(d)]) == 3
        out, err = capsys.readouterr()
        claim = builder._plan_for(regime_of(n, d), n == 4 * d + 3).min_upper
        assert out == ""
        assert err == (
            "internal error: built partition failed verification: "
            f"below claim: {short} < min_upper={claim}\n"
        )

    def test_overlapping_layers_are_named_by_the_builder(self, monkeypatch):
        # With the base-coverage test off, the second layer keeps all 84
        # 3-sets, 72 of which the base already covers; the builder names
        # the layer whose kept count leaves the plan's prediction.
        monkeypatch.setattr(
            builder, "family_covers", lambda n, level, s, sets: np.zeros(sets.shape[1], bool)
        )
        with pytest.raises(InternalCheckError) as got:
            build_partition(9, 2)
        assert str(got.value) == "layer I[9,3,2] kept 84 intervals where 12 were predicted"

    def test_dropped_candidate_is_named_by_the_builder(self, monkeypatch):
        # Mark one more 3-set covered than the base covers: the layer keeps
        # 11 intervals, and is refused after it sweeps.
        covers = builder.family_covers

        def one_more(n, level, s, sets):
            covered = covers(n, level, s, sets)
            covered[np.flatnonzero(~covered)[0]] = True
            return covered

        monkeypatch.setattr(builder, "family_covers", one_more)
        with pytest.raises(InternalCheckError) as got:
            build_partition(9, 2)
        assert str(got.value) == "layer I[9,3,2] kept 11 intervals where 12 were predicted"

    @pytest.mark.parametrize("command", ["report", "build"])
    def test_overlap_is_named_by_the_verifier(self, monkeypatch, tmp_path, capsys, command):
        # Give a later interval of the base layer the first one's upper
        # endpoint: [{1,2}, {1,2,5}] and [{1,5}, {1,2,5}] share {1,2,5}.
        # The builder does not check disjointness; the verifier names it.
        closure = builder.closure_upper_masks

        def overlapping(n, level, s, rows, lowers):
            uppers = closure(n, level, s, rows, lowers)
            inside = np.flatnonzero(lowers[1:] & ~uppers[0] == 0)
            if inside.size:
                uppers[inside[0] + 1] = uppers[0]
            return uppers

        monkeypatch.setattr(builder, "closure_upper_masks", overlapping)
        argv = [command, "-n", "5", "-d", "2"]
        if command == "build":
            argv += ["--out", str(tmp_path / "p.txt")]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "internal error: built partition failed verification: "
            "not disjoint: intervals 0 and 3 share {1,2,5}\n"
        )


class TestCertifyLayered:
    def test_matches_full_build_when_both_apply(self):
        for n, d in [(5, 2), (9, 2), (7, 1), (12, 1), (13, 2)]:
            cert = certify_layered(n, d)
            part = materialize(build_partition(n, d).partition)
            assert cert is not None
            assert cert.partition.claimed_min == part.min_upper_size()

    def test_large_instance(self):
        cert = certify_layered(29, 1)
        assert cert is not None
        assert cert.partition.claimed_min == 6 == lower_bound_large_n(29, 1)

    def test_cap_refusal(self):
        assert certify_layered(29, 1, cap=100) is None

    def test_k3_variant(self):
        cert = certify_layered(7, 1, use_k3=True)
        assert cert is not None and cert.partition.claimed_min == 4

    def test_is_the_compact_build(self):
        # Every construction returns one Build; the layered certificate is
        # the compact build itself, partition and trace alike.
        pairs = [
            (build_partition(9, 2), certify_layered(9, 2)),
            (build_partition_k3(2), certify_layered(11, 2, use_k3=True)),
        ]
        for built, cert in pairs:
            assert type(built) is Build and type(cert) is Build
            assert cert.partition == built.partition and cert.trace == built.trace
        assert type(build_partition(9, 2)) is Build
        assert type(build_partition_k3(2)) is Build


# Every (n, d) with n <= 16 whose top layer has density above 2, and the
# Mid plan at (23, 5); the K2 build and the k3 build end at density 2.
TRIMMED = [(n, 1, False) for n in range(11, 17)] + [(n, 2, False) for n in range(14, 17)]
TRIM_CASES = TRIMMED + [(23, 5, False), (9, 2, False), (11, 2, True)]


class TestTopLayerTrim:
    @pytest.mark.parametrize("n, d, k3", TRIM_CASES)
    def test_top_layer_lists_only_the_claim(self, n, d, k3):
        # The build is the layer loop's selection with each top interval
        # [L, U] cut to [L, L + x], x the lowest member of U \ L, whenever
        # the top density exceeds 2; every other interval is unchanged.
        plan = _plan_for(regime_of(n, d), k3)
        lowers, uppers, traces = _run_layers(n, plan.layers)
        part, trace = build_partition_k3(d) if k3 else build_partition(n, d)
        assert trace.layers == tuple(traces)
        assert np.array_equal(part.lowers, lowers)
        top = len(lowers) - traces[-1].selected
        assert np.array_equal(part.uppers[:top], uppers[:top])
        trimmed = plan.layers[-1][1] > 1
        assert trimmed == ((n, d, k3) in TRIMMED or (n, d) == (23, 5))
        expected = [
            lo | core.mask_of([min(core.members_of(up & ~lo))]) if trimmed else up
            for lo, up in zip(lowers[top:].tolist(), uppers[top:].tolist())
        ]
        assert part.uppers[top:].tolist() == expected
        assert part.volume() == predicted_volume(n, d, k3)
        verdict = verify_partition(part)
        assert verdict.ok
        assert verdict.min_upper_size == part.claimed_min == plan.min_upper

    def test_top_level_off_the_claim_is_an_internal_error(self, monkeypatch):
        # A claim two above the top level would leave the trimmed intervals
        # below it: the builder refuses the trim before the verifier runs.
        plan_for = builder._plan_for
        monkeypatch.setattr(
            builder,
            "_plan_for",
            lambda reg, k3=False: plan_for(reg, k3)._replace(
                min_upper=plan_for(reg, k3).min_upper + 1
            ),
        )
        with pytest.raises(InternalCheckError) as got:
            build_partition(12, 1)
        assert str(got.value) == "the top layer at level 3 is not one below the claim 5"


RANK_FILTER_PLANS = [(n, d, False) for n in range(1, 13) for d in range(1, n + 1)] + [
    (7, 1, True),
    (11, 2, True),
]

# Captured from the searchsorted filter on the benchmarked instances: per
# layer (candidates, selected), the trivial count, and the SHA-256 of the
# compact build's lowers.tobytes() + uppers.tobytes().
PINNED_BUILDS = {
    (25, 5, False): (
        [(53130, 53130), (177100, 17710), (480700, 285890)],
        32471496,
        "56fea3a0cc6d77a07929633ed115e8e094bc35da81c0c89308ffecfff15fba55",
    ),
    (29, 1, False): (
        [(29, 29), (406, 0), (3654, 1015), (23751, 9135), (118755, 47096)],
        536139183,
        "381ad0e578c4ae91944a6f0cedf189af2c3e106cfbb417a6f5ea249f59e8d8b4",
    ),
    (30, 2, False): (
        [(435, 435), (4060, 145), (27405, 11310), (142506, 71601)],
        1073284231,
        "e4a27fe1884b2528d857a89fe7fe35d806c02d96f58ec5d3c2ffe491e0717ed4",
    ),
    (22, 5, False): (
        [(26334, 26334), (74613, 21945)],
        4035969,
        "14c03e4b7bfbfddd3212d8d30915cc3c8c8e46334a3948224efe2f93e7ef6089",
    ),
    (23, 5, True): (
        [(33649, 33649), (245157, 144210)],
        7820093,
        "9436acf07ca1780cf53f732be270f39949f15d34306cb833bf6ff998dcdae4fa",
    ),
}


class TestRankFilter:
    @pytest.mark.parametrize("n,d,k3", RANK_FILTER_PLANS)
    def test_matches_searchsorted_filter(self, n, d, k3):
        plan = _plan_for(regime_of(n, d), k3)
        lowers, uppers, traces = _run_layers(n, plan.layers)
        ref_lowers, ref_uppers, ref_covered, ref_counts = searchsorted_layers(
            n, plan.layers, ensured(d, k3)
        )
        assert np.array_equal(lowers, ref_lowers)
        assert np.array_equal(uppers, ref_uppers)
        assert np.array_equal(covered_masks(lowers, uppers), ref_covered)
        assert [(t.candidates, t.selected) for t in traces] == ref_counts

    @pytest.mark.parametrize("n,d,k3", list(PINNED_BUILDS))
    def test_benchmarked_builds_are_unchanged(self, n, d, k3):
        part, trace = build_partition_k3(d) if k3 else build_partition(n, d)
        counts, trivial, digest = PINNED_BUILDS[n, d, k3]
        assert [(t.candidates, t.selected) for t in trace.layers] == counts
        assert trace.trivial_count == trivial
        assert hashlib.sha256(part.lowers.tobytes() + part.uppers.tobytes()).hexdigest() == digest

    def test_flags_follow_ranks(self):
        m = core.mask_of
        covered = np.array([m([4, 5]), m([1, 2]), m([2, 5])], np.uint32)
        flags = np.zeros(10, dtype=bool)
        _flag_covered(flags, covered, 5, 2)
        # lexicographic order: 12 13 14 15 23 24 25 34 35 45
        assert np.flatnonzero(flags).tolist() == [0, 6, 9]
        # A later call adds to the flags already set.
        _flag_covered(flags, np.array([m([3, 4])], np.uint32), 5, 2)
        assert np.flatnonzero(flags).tolist() == [0, 6, 7, 9]
        # It is given the sets of its own size only; any other has no rank.
        with pytest.raises(InternalCheckError, match="not a 2-subset"):
            _flag_covered(flags, np.append(covered, np.uint32(m([1, 2, 3]))), 5, 2)

    def test_repeated_rank_raises(self, monkeypatch):
        # At (12, 1) the filtered layer (2, 2) flags level 3.  One covered
        # 3-set flagged twice, in place of another, leaves the flags one
        # set short, so the layer keeps one interval more than predicted
        # and is refused after it sweeps.
        flag = builder._flag_covered

        def repeated(flags, covered, n, level):
            covered = covered.copy()
            covered[1] = covered[0]
            flag(flags, covered, n, level)

        monkeypatch.setattr(builder, "_flag_covered", repeated)
        with pytest.raises(InternalCheckError) as got:
            build_partition(12, 1)
        assert str(got.value) == "layer I[12,3,3] kept 89 intervals where 88 were predicted"

    def test_flags_do_not_depend_on_the_block_edges(self, monkeypatch):
        # 2 covered sets per block: the range and subset checks run on
        # every block, so a non-3-subset in a later block is still refused.
        covered = np.array([core.mask_of(c) for c in combinations(range(1, 8), 3)], np.uint32)
        keep = covered[::3]
        expected, flags = np.zeros(35, dtype=bool), np.zeros(35, dtype=bool)
        _flag_covered(expected, keep, 7, 3)
        monkeypatch.setattr(builder, "_CHUNK", 2)
        _flag_covered(flags, keep, 7, 3)
        assert np.array_equal(flags, expected)
        assert np.flatnonzero(expected).tolist() == list(range(0, 35, 3))
        with pytest.raises(InternalCheckError, match="not a 3-subset"):
            _flag_covered(flags, np.append(keep, np.uint32(0b1111)), 7, 3)

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_out_of_range_rank_raises(self, monkeypatch, bad):
        # A negative rank would index the flags from the end; it must not.
        monkeypatch.setattr(bitops, "lex_ranks", lambda masks, n, k: np.array([bad]))
        covered = np.array([core.mask_of([1, 2])], np.uint32)
        with pytest.raises(InternalCheckError, match=r"ranks outside \[0, 10\)"):
            _flag_covered(np.zeros(10, dtype=bool), covered, 5, 2)

    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    @pytest.mark.parametrize("n, d, k3", [(12, 2, False), (13, 3, False), (15, 3, True)])
    def test_chunk_width_does_not_change_the_selection(self, monkeypatch, chunk, n, d, k3):
        # Every chunk boundary re-runs the scalar rank and closure checks;
        # the selection and its counts must not depend on where they fall.
        plan = _plan_for(regime_of(n, d), k3).layers
        ref_lowers, ref_uppers, ref_traces = _run_layers(n, plan)
        monkeypatch.setattr(builder, "_CHUNK", chunk)
        lowers, uppers, traces = _run_layers(n, plan)
        assert traces == ref_traces
        assert np.array_equal(lowers, ref_lowers)
        assert np.array_equal(uppers, ref_uppers)

    def test_sweep_position_checked_against_scalar_rank(self, monkeypatch):
        rank = bitops.lex_rank
        monkeypatch.setattr(bitops, "lex_rank", lambda members, n: rank(members, n) + 1)
        with pytest.raises(InternalCheckError, match=r"\(1, 2\) is swept at position 0"):
            _run_layers(9, [(2, 1), (3, 1)])

    @pytest.mark.parametrize("level, total", [(2, 36), (3, 84)])
    def test_long_sweep_is_an_internal_error(self, monkeypatch, capsys, level, total):
        # One extra column on the last block of the base (level 2) or the
        # filtered (level 3) sweep of (9, 2): refused before anything is
        # written past the layer's slot, never a numpy broadcast error.
        combinations_of = bitops.lex_combinations

        def one_long(n, k, chunk):
            blocks = list(combinations_of(n, k, chunk))
            if k == level:
                blocks[-1] = np.concatenate([blocks[-1], blocks[-1][:, -1:]], axis=1)
            return iter(blocks)

        monkeypatch.setattr(bitops, "lex_combinations", one_long)
        assert main(["report", "-n", "9", "-d", "2"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        visited = f"the sweep of level {level} visited {total + 1} of {total} sets"
        assert err == f"internal error: {visited}\n"


CLAIM_SWEEP = [(n, d, False) for n in range(1, 21) for d in range(1, n + 1)] + [
    (4 * d + 3, d, True) for d in range(1, 6)
]


@pytest.mark.parametrize("n,d,k3", CLAIM_SWEEP)
def test_plan_claim_is_the_verified_minimum(n, d, k3):
    # The builder claims the plan's closed form and counts no cover; the
    # verifier's minimum and interval count must agree with both, and the
    # plan's predicted kept counts and listed volume with the build.
    part, trace = build_partition_k3(d) if k3 else build_partition(n, d)
    plan = _plan_for(regime_of(n, d), k3).layers
    assert _predicted_kept(n, plan) == [t.selected for t in trace.layers]
    assert predicted_volume(n, d, k3) == part.volume()
    verdict = verify_partition(part)
    assert verdict.ok
    assert part.claimed_min == verdict.min_upper_size <= sdepth_upper_bound(n, d)
    if n <= threshold(d):
        assert verdict.min_upper_size == conjectured_sdepth(n, d)
    else:
        assert verdict.min_upper_size >= lower_bound_large_n(n, d)
    assert trace.trivial_count == verdict.interval_count - len(part)


def test_listed_volume_is_exact_past_int64():
    # Two intervals [{1}, [64]] list 2^63 sets each: 2^64 in all, which no
    # fixed-width sum holds.
    lowers = np.array([1, 1], np.uint64)
    uppers = np.full(2, 2**64 - 1, np.uint64)
    assert builder.listed_volume(lowers, uppers) == 2**64


@pytest.mark.parametrize("n,d", [(24, 11), (25, 5), (29, 1), (30, 2), (35, 2)])
def test_predicted_volume_is_the_listed_volume(n, d):
    # The quantity every build's cap bounds is the one ``verify --cap``
    # bounds; (24, 11) is the largest at n <= 24 and (35, 2) beyond the
    # default cap.
    assert predicted_volume(n, d) == build_partition(n, d).partition.volume()


def plan_by_regime(n, d, k3):
    """The plans written out regime by regime: the (level, s) layers and
    the claimed minimum upper size."""
    reg = regime_of(n, d)
    k = reg.k
    if k3:
        return [(d, 3), (d + 2, 1)], d + 3
    if reg.regime is Regime.TRIVIAL_RANGE:
        return [], d
    if reg.regime is Regime.K1:
        return [(d, 1)], d + 1
    if reg.regime is Regime.K2:
        return [(d, 2), (d + 1, 1)], d + 2
    if reg.regime is Regime.MID:
        return [(d, k)] + [(d + l, k - 1) for l in range(1, k)], d + k
    s = core.large_n_density_shift(n, d)
    return [(d, k)] + [(d + q, s) for q in range(1, s + 1)], d + 1 + s


def test_one_plan_formula_matches_every_regime():
    # Every pair the masks hold, and the k3 plan wherever n = 4d + 3 fits.
    pairs = [(n, d, False) for n in range(1, 65) for d in range(1, n + 1)]
    pairs += [(4 * d + 3, d, True) for d in range(1, 16)]
    regimes = set()
    for n, d, k3 in pairs:
        plan = _plan_for(regime_of(n, d), k3)
        assert (plan.layers, plan.min_upper) == plan_by_regime(n, d, k3), (n, d, k3)
        regimes.add(regime_of(n, d).regime)
    assert regimes == set(Regime)


VOLUME_REASON = (
    "the layered sweep at n=24, d=11 would list 4992288 sets, "
    "beyond the enumeration cap 4992287"
)
UNIVERSE_REASON = "n=70 is wider than a mask holds (64)"


class TestOneRefusalRule:
    @pytest.mark.parametrize(
        "n, d, cap, k3, reason",
        [
            (24, 11, 4_992_287, False, VOLUME_REASON),
            (70, 1, DEFAULT_SWEEP_CAP, False, UNIVERSE_REASON),
            # The mask width is checked before the k3 plan's n = 4d + 3.
            (70, 1, DEFAULT_SWEEP_CAP, True, UNIVERSE_REASON),
        ],
        ids=["volume", "universe", "universe-k3"],
    )
    def test_every_entry_point_gives_the_builders_reason(
        self, tmp_path, capsys, n, d, cap, k3, reason
    ):
        assert build_refusal(n, d, cap, k3) == reason
        out = tmp_path / "p.txt"
        argv = ["build", "-n", str(n), "-d", str(d), "--cap", str(cap), "--out", str(out)]
        assert main(argv + ["--k3"] * k3) == 2
        assert capsys.readouterr() == ("", reason + "\n")
        assert not out.exists()
        assert certify_layered(n, d, cap=cap, use_k3=k3) is None
        assert select_build(n, d, cap, k3) == (None, "layered")

    def test_within_the_cap_nothing_is_refused(self):
        assert build_refusal(24, 11, 4_992_288) is None
        assert build_refusal(64, 1, 1 << 70) is None

    def test_construction_refuses_with_its_own_cap(self):
        with pytest.raises(PreconditionViolatedError) as got:
            build_partition(40, 5)
        assert str(got.value) == (
            "the layered sweep at n=40, d=5 would list 183639066 sets, "
            "beyond the enumeration cap 67108864"
        )
        assert str(got.value) == build_refusal(40, 5, 1 << 26)

    @pytest.mark.parametrize("n, d", [(70, 1), (65, 40)])
    def test_universe_is_checked_before_any_plan_is_priced(self, n, d):
        # (65, 40) is in the trivial range: its empty plan prices within any cap.
        with pytest.raises(PreconditionViolatedError, match=r"wider than a mask holds \(64\)"):
            build_partition(n, d)
        assert certify_layered(n, d) is None

    def test_k3_build_refuses_d_below_1_as_core_does(self):
        with pytest.raises(PreconditionViolatedError, match=r"^need 1 <= d <= n, got n=3, d=0$"):
            build_partition_k3(0)

    def test_k3_at_the_wrong_n_gives_the_plans_one_reason(self, tmp_path, capsys):
        reason = "the k3 construction needs n = 4d + 3 = 7, got n=8"
        out = tmp_path / "p.txt"
        assert main(["build", "-n", "8", "-d", "1", "--k3", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {reason}\n")
        assert not out.exists()
        reason = "the k3 construction needs n = 4d + 3 = 19, got n=20"
        for call in (
            lambda: select_build(20, 4, DEFAULT_SWEEP_CAP, True),
            lambda: certify_layered(20, 4, use_k3=True),
            lambda: build_refusal(20, 4, DEFAULT_SWEEP_CAP, k3=True),
        ):
            with pytest.raises(PreconditionViolatedError) as got:
                call()
            assert str(got.value) == reason
        src = Path(builder.__file__).parents[1]
        text = "".join(p.read_text() for p in sorted(src.rglob("*.py")))
        assert text.count("the k3 construction needs") == 1
