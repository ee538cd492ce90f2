"""Compact certificates: only the non-trivial intervals are listed, every
other set of size >= d is an implicit singleton, and the header claims the
minimum upper size.

The compact verifier is checked against ``verify_compact_by_materializing``
(every singleton written out, then the explicit verifier and the claim
check), the explicit writer against the frozen per-line writer, and the
outputs of ``build``, ``verify``, ``table`` and ``report`` against the
values the explicit path printed.
"""

import contextlib
import importlib.util
import io
import os
import subprocess
import sys
import tracemalloc
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import materialize, verify_compact_by_materializing, write_partition_file_per_line
from test_certfile import IDENTITY_CASES

from veronese_sdepth import (
    IntervalPartition,
    PreconditionViolatedError,
    build_partition,
    build_partition_k3,
    regime_of,
    render_stanley_decomposition,
    sdepth_report,
    verify_partition,
)
from veronese_sdepth.cli import main, parse_partition_file, write_partition_file

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def compact(n, d, k3=False):
    return (build_partition_k3(d) if k3 else build_partition(n, d)).partition


def explicit(n, d, k3=False):
    return materialize(compact(n, d, k3))


def edited(p, lowers=None, uppers=None, claim=None):
    lowers = p.lowers if lowers is None else lowers
    uppers = p.uppers if uppers is None else uppers
    return IntervalPartition(
        p.n,
        p.d,
        lowers,
        uppers,
        p.claimed_min if claim is None else claim,
    )


def mutations(p):
    """Each listed interval dropped, the first duplicated, the first upper
    shrunk by its lowest free member, and the claim raised by one."""
    for i in range(len(p)):
        keep = np.arange(len(p)) != i
        yield f"drop {i}", edited(p, p.lowers[keep], p.uppers[keep])
    if len(p):
        yield "duplicate 0", edited(
            p, np.concatenate([p.lowers, p.lowers[:1]]), np.concatenate([p.uppers, p.uppers[:1]])
        )
        uppers = p.uppers.copy()
        free = int(uppers[0] & ~p.lowers[0])
        uppers[0] ^= free & -free
        yield "shrink 0", edited(p, uppers=uppers)
    yield "raise claim", edited(p, claim=p.claimed_min + 1)


def outcome(verdict):
    return verdict.ok, verdict.min_upper_size, verdict.interval_count


COMPACT_CASES = [(n, d, False) for n in range(1, 13) for d in range(1, n + 1)] + [
    (7, 1, True),
    (11, 2, True),
]


class TestAgainstMaterializedReference:
    @pytest.mark.parametrize("n,d,k3", COMPACT_CASES)
    def test_built_partition(self, n, d, k3):
        part = compact(n, d, k3)
        got = outcome(verify_partition(part))
        assert got == verify_compact_by_materializing(part)
        assert got == outcome(verify_partition(explicit(n, d, k3)))
        assert got[0] and part.claimed_min == got[1]

    @pytest.mark.parametrize("n,d,k3", [(5, 2, False), (8, 2, False), (7, 1, True)])
    def test_mutations(self, n, d, k3):
        seen = set()
        for name, mutant in mutations(compact(n, d, k3)):
            got = outcome(verify_partition(mutant))
            assert got == verify_compact_by_materializing(mutant), name
            assert not got[0], name
            seen.add(name.split()[0])
        assert seen == {"drop", "duplicate", "shrink", "raise"}


class TestFormat:
    @pytest.mark.parametrize("n,d,k3", IDENTITY_CASES)
    def test_explicit_writer_matches_per_line_writer(self, tmp_path, n, d, k3):
        explicit_file, compact_file, old = (tmp_path / f for f in ("e.txt", "c.txt", "o.txt"))
        write_partition_file(explicit(n, d, k3), str(explicit_file))
        write_partition_file_per_line(explicit(n, d, k3), old)
        assert explicit_file.read_bytes() == old.read_bytes()
        # The compact file `build` writes is the explicit one cut after the
        # listed intervals, with the claim in its header; `verify` prints
        # the same for both.
        base = ["build", "-n", str(n), "-d", str(d)] + (["--k3"] if k3 else [])
        code, _, _ = run(base + ["--out", str(compact_file)])
        assert code == 0
        part = compact(n, d, k3)
        header, *body = compact_file.read_bytes().splitlines(keepends=True)
        first, *rest = explicit_file.read_bytes().splitlines(keepends=True)
        assert header == first.rstrip(b"\n") + f" min_upper={part.claimed_min}\n".encode()
        assert body == rest[: len(body)]
        assert parse_partition_file(str(compact_file)) == part
        verified = [
            run(["verify", "--in", str(path)])[1] for path in (compact_file, explicit_file)
        ]
        assert verified[0] == verified[1]

    @pytest.mark.parametrize(
        "claim", ["min_upper=0", "min_upper=1", "min_upper=6", "min_upper=", "min_upper=x"]
    )
    def test_claim_outside_d_to_n_is_a_bad_header(self, tmp_path, claim):
        path = tmp_path / "p.txt"
        path.write_text(f"n=5 d=2 regime=K1 {claim}\n1,2;1,2,5\n")
        code, out, err = run(["verify", "--in", str(path)])
        assert code == 2 and out == "" and "line 1" in err

    def test_compact_beyond_materialization(self, tmp_path):
        # n = 40 lists nothing, so nothing is enumerated: the remainder is
        # every set of size >= 20, and the claim must match the smallest.
        path = tmp_path / "p.txt"
        path.write_text("n=40 d=20 regime=TrivialRange min_upper=20\n")
        code, out, _ = run(["verify", "--in", str(path)])
        assert code == 0 and "intervals=618679078298 min_upper_size=20" in out
        path.write_text("n=40 d=20 regime=TrivialRange min_upper=21\n")
        code, out, _ = run(["verify", "--in", str(path)])
        assert code == 4 and out.startswith("below claim: {1,2,3,4,5,6,7,8,9,10,11,12")

    def test_compact_build_refuses_an_oversized_sweep(self):
        # (40, 5) would list 183,639,066 sets, beyond 2^26; it is refused
        # from the plan alone.
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionViolatedError, match="layered sweep"):
                build_partition(40, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 9) for d in range(1, n + 1)])
    def test_render_matches_materialized(self, n, d):
        # The implicit singletons follow the listed intervals, by size and
        # then lexicographically, as in the explicit partition.
        part = compact(n, d)
        assert render_stanley_decomposition(part) == render_stanley_decomposition(
            materialize(part)
        )


def repeated_interval_file(path, claim):
    line = "1;" + ",".join(map(str, range(1, 21))) + "\n"
    path.write_text(f"n=20 d=1 regime={regime_of(20, 1).regime.value}{claim}\n" + line * 40)


def peak_of(argv):
    """``run(argv)`` and the peak traced allocation it made."""
    tracemalloc.start()
    try:
        result = run(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestDeclaredVolume:
    """40 copies of [{1}, [20]] declare 40 * 2^19 sets: more than the 2^20 - 1
    of the poset, and more than the default cap of 5,000,000.  The poset
    bound is checked first, so either form is refused as not disjoint."""

    @pytest.mark.parametrize("claim", ["", " min_upper=1"], ids=["explicit", "compact"])
    def test_refused_before_expansion(self, tmp_path, claim):
        path = tmp_path / "p.txt"
        repeated_interval_file(path, claim)
        (code, out, _), peak = peak_of(["verify", "--in", str(path)])
        assert code == 4
        assert out == (
            "not disjoint: declared volume 20971520 exceeds the 1048575 sets of the poset\n"
        )
        assert peak < 20 * 2**20


def interval_file(path, n, d, claim, lines):
    """A certificate at (n, d) whose body is ``lines`` of member lists
    (lower, upper), with ``min_upper=claim`` in the header unless claim is
    None."""
    head = f"n={n} d={d} regime={regime_of(n, d).regime.value}"
    head += "" if claim is None else f" min_upper={claim}"
    body = "".join(f"{','.join(map(str, lo))};{','.join(map(str, up))}\n" for lo, up in lines)
    path.write_text(head + "\n" + body)


@st.composite
def interval_lists(draw):
    """(n, d, claim or None, intervals, cap): up to five intervals over
    [n], n <= 30, each with at most 12 free members, and a cap below 2^16,
    so no draw expands more than a few hundred thousand sets."""
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, n))
    claim = draw(st.one_of(st.none(), st.integers(d, n)))
    intervals = []
    for _ in range(draw(st.integers(0, 5))):
        lower = sorted(draw(st.sets(st.integers(1, n), min_size=d, max_size=n)))
        rest = sorted(set(range(1, n + 1)) - set(lower))
        free = draw(st.sets(st.sampled_from(rest), max_size=12)) if rest else set()
        intervals.append((lower, sorted(set(lower) | free)))
    return n, d, claim, intervals, draw(st.integers(1, 1 << 16))


class TestVerifyCap:
    """``verify`` bounds every certificate, explicit or compact, by its
    listed volume: above the poset size it exits 4, else above ``--cap`` it
    exits 2, else it prints what ``verify_partition`` decides."""

    @settings(max_examples=300, deadline=None)
    @given(case=interval_lists())
    def test_listed_volume_decides_before_expansion(self, tmp_path_factory, case):
        n, d, claim, intervals, cap = case
        path = tmp_path_factory.mktemp("cap") / "p.txt"
        interval_file(path, n, d, claim, intervals)
        code, out, err = run(["verify", "--in", str(path), "--cap", str(cap)])
        volume = sum(2 ** (len(up) - len(lo)) for lo, up in intervals)
        poset = sum(comb(n, k) for k in range(d, n + 1))
        if volume > poset:
            assert code == 4 and out.startswith("not disjoint: declared volume"), out
        elif volume > cap:
            assert code == 2 and out == ""
            assert f"verifying {volume} listed sets exceeds the enumeration cap {cap}" in err
        else:
            verdict = verify_partition(parse_partition_file(str(path)))
            assert code == (0 if verdict.ok else 4) and err == ""
            if verdict.ok:
                assert f"intervals={verdict.interval_count} " in out
                assert f"min_upper_size={verdict.min_upper_size}\n" in out
            assert out.startswith("not disjoint") == (not verdict.disjoint)
            assert ("not covering" in out) == (not verdict.covers)

    @pytest.mark.parametrize("claim", [None, 1], ids=["explicit", "compact"])
    def test_within_poset_but_over_cap(self, tmp_path, claim):
        # [{1}, [24]] holds 2^23 sets: within the 2^24 - 1 of the poset, over
        # the default cap of 5,000,000.
        path = tmp_path / "p.txt"
        interval_file(path, 24, 1, claim, [([1], list(range(1, 25)))])
        (code, out, err), peak = peak_of(["verify", "--in", str(path)])
        assert code == 2 and out == ""
        assert "verifying 8388608 listed sets exceeds the enumeration cap 5000000" in err
        assert peak < 4 * 2**20  # one parser block; the expansion would take 32 MB

    @pytest.mark.parametrize("cap", [None, "1000000000000"])
    def test_sparse_explicit_file_beyond_26(self, tmp_path, cap):
        # Three listed intervals: whatever the cap, the volume is 7 sets.
        path = tmp_path / "p.txt"
        lines = [([1, 2], [1, 2, 3]), ([4, 5], [4, 5]), ([6, 7], [6, 7, 8, 9])]
        interval_file(path, 30, 2, None, lines)
        argv = ["verify", "--in", str(path)] + ([] if cap is None else ["--cap", cap])
        assert run(argv) == (4, "not covering: {1,3} is uncovered\n", "")


class TestSameAnswers:
    def test_table_matches_recorded_output(self):
        code, out, _ = run(["table", "--d-range", "1..5", "--n-range", "1..20"])
        assert code == 0
        assert out.encode("ascii") == (DATA / "table_d1-5_n1-20.csv").read_bytes()

    def test_wide_table_matches_recorded_output(self):
        # Every regime's plan at n <= 40, d <= 10: 195 rows verified, 87
        # with no certified number.
        code, out, _ = run(["table", "--d-range", "1..10", "--n-range", "1..40"])
        assert code == 0
        assert out.encode("ascii") == (DATA / "table_d1-10_n1-40.csv").read_bytes()

    def test_report_on_benchmarked_instances(self, monkeypatch):
        monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
        spec.loader.exec_module(workloads)
        for (n, d), (value, how, _) in workloads.REPORT_EXPECT.items():
            rep = sdepth_report(n, d)
            assert (rep.certified_lower, rep.certification) == (value, how), (n, d)

    def test_k3_23_5_round_trip(self, tmp_path):
        path = tmp_path / "p.txt"
        code, out, _ = run(["build", "--k3", "-n", "23", "-d", "5", "--out", str(path)])
        assert code == 0 and out == "intervals=7997952\nmin_upper_size=8\n"
        code, out, _ = run(["verify", "--in", str(path)])
        assert code == 0 and "intervals=7997952 min_upper_size=8" in out
        assert path.stat().st_size < 10 * 2**20


@pytest.mark.parametrize("cut", ["drop-last-line", "raise-claim"])
def test_rejected_under_python_O(tmp_path, cut):
    path = tmp_path / "p.txt"
    write_partition_file(compact(5, 2), str(path))
    text = path.read_text()
    if cut == "drop-last-line":
        text = text[: text.rstrip("\n").rindex("\n") + 1]
    else:
        text = text.replace("min_upper=3", "min_upper=4", 1)
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-O", "-m", "veronese_sdepth", "verify", "--in", str(path)],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 4 and result.stdout.startswith(b"below claim:")


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["report", "-n", "25", "-d", "5"], b"certified_lower=8\n"),
        (["build", "--k3", "-n", "11", "-d", "2"], b"min_upper_size=5\n"),
    ],
    ids=["report-layered", "build-k3"],
)
def test_layer_sweep_under_python_O(tmp_path, argv, expected):
    # The sweep's rank and closure checks are not asserts, so ``-O`` keeps
    # them and prints the same answers.
    if argv[0] == "build":
        argv = argv + ["--out", str(tmp_path / "p.txt")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-O", "-m", "veronese_sdepth", *argv],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout
