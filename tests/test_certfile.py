"""The block certificate codec against the frozen per-line writer and parser.

The writer must emit the same bytes as the per-line writer.  The parser
must return an equal partition wherever the per-line parser does, and
raise the same exception with the same message and line number wherever it
raises, whatever the block size and wherever a block boundary falls.
"""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
import tracemalloc
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import materialize, parse_partition_file_per_line, write_partition_file_per_line
from veronese_sdepth import (
    DEFAULT_SWEEP_CAP,
    build_partition,
    build_partition_k3,
    certfile,
    regime_of,
)
from veronese_sdepth.builder import IntervalPartition
from veronese_sdepth.cli import main, parse_partition_file, write_partition_file
from veronese_sdepth.errors import PartitionFileError
from veronese_sdepth.verify import select_build

IDENTITY_CASES = [(n, d, False) for n in range(1, 15) for d in range(1, n + 1)] + [
    (7, 1, True),
    (11, 2, True),
]


def built(n, d, k3=False):
    return materialize((build_partition_k3(d) if k3 else build_partition(n, d)).partition)


@lru_cache(maxsize=None)
def certificate_bytes(n, d):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.txt"
        write_partition_file_per_line(built(n, d), str(path))
        return path.read_bytes()


def outcome(parse, path):
    """A parser's result: the partition and its mask dtype, or the raised
    exception's class, message and line number."""
    try:
        part = parse(str(path))
    except Exception as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "lineno", None))
    return ("parsed", part, part.lowers.dtype, part.uppers.dtype)


def assert_same_outcome(path):
    got = outcome(parse_partition_file, path)
    want = outcome(parse_partition_file_per_line, path)
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got == want
    else:
        assert got[1] == want[1] and got[2:] == want[2:]
    return got


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestIdentity:
    @pytest.mark.parametrize("n,d,k3", IDENTITY_CASES)
    def test_bytes_and_partition_match_per_line_codec(self, tmp_path, n, d, k3):
        part = built(n, d, k3)
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        write_partition_file(part, str(new))
        write_partition_file_per_line(part, str(old))
        assert new.read_bytes() == old.read_bytes()
        parsed = parse_partition_file(str(new))
        assert parsed == part == parse_partition_file_per_line(str(new))
        assert parsed.lowers.dtype == part.lowers.dtype

    @pytest.mark.parametrize("n", [9, 10, 17, 24, 32, 33, 47, 64])
    def test_random_intervals_in_wide_universes(self, tmp_path, n):
        rng = np.random.default_rng(n)
        uppers = rng.integers(1, 1 << n, size=300, dtype=np.uint64)
        uppers[::2] |= np.uint64(1 << (n - 1))
        lowers = uppers & rng.integers(0, 1 << n, size=300, dtype=np.uint64)
        lowers |= uppers & (~uppers + np.uint64(1))  # keep the least member
        dtype = np.uint32 if n <= 32 else np.uint64
        part = IntervalPartition(
            n,
            1,
            lowers.astype(dtype),
            uppers.astype(dtype),
        )
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        write_partition_file(part, str(new))
        write_partition_file_per_line(part, str(old))
        assert new.read_bytes() == old.read_bytes()
        assert parse_partition_file(str(new)) == part

    def test_fragment_table_matches_joined_members(self):
        # Each row is the joined text of the members its chunk value
        # stands for, zero-padded to the longest fragment.
        for n in range(1, 65):
            frags = [
                "".join(f"{8 * c + b + 1}," for b in range(8) if v >> b & 1 and 8 * c + b < n)
                for c in range(-(-n // 8))
                for v in range(256)
            ]
            table, lengths = certfile._fragment_table(n)
            width = max(map(len, frags))
            assert table.shape == (len(frags), width) and table.dtype == np.uint8
            assert [bytes(row).rstrip(b"\0").decode() for row in table] == frags
            assert lengths.dtype == np.intp and lengths.tolist() == list(map(len, frags))


class TestNonCanonicalForms:
    """Inputs outside the canonical form keep the per-line parser's verdict,
    whether they decode in bulk (CR LF and CR line ends) or take the
    per-line path."""

    def body_edit(self, edit):
        text = certificate_bytes(7, 2).decode("ascii")
        header, _, body = text.partition("\n")
        return (header + "\n" + edit(body)).encode("latin-1")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda b: b.replace("\n", "\r\n"),
            lambda b: b.replace("\n", "\r"),
            lambda b: b.replace(";", ";+", 3),
            lambda b: b.replace(";", ";00", 2),
            lambda b: b.replace(",", ", ", 5),
            lambda b: b.replace(";", "\t;", 1),
            lambda b: b[:-1],
        ],
        ids=["crlf", "lone-cr", "plus", "leading-zeros", "space", "tab", "no-final-newline"],
    )
    def test_accepted_with_equal_partition(self, tmp_path, edit):
        path = tmp_path / "p.txt"
        path.write_bytes(self.body_edit(edit))
        got = assert_same_outcome(path)
        assert got[0] == "parsed" and got[1] == built(7, 2)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda b: b.replace("\n", "\n\n", 3),
            lambda b: b.replace(",", "é", 1),
            lambda b: b.replace(",", ",,", 1),
            lambda b: b.replace(";", ";0,", 1),
            lambda b: b.replace(";", "100;", 1),
            lambda b: "10" + b,
            lambda b: b.replace(";", "\n", 1),
            lambda b: b.replace(",", ";", 1),
            lambda b: b[: b.rindex(";")],
            lambda b: "1;1\n" + b,
        ],
        ids=[
            "blank-line",
            "non-ascii",
            "empty-token",
            "zero",
            "long-token",
            "three-digit-token",
            "no-semicolon",
            "two-semicolons",
            "last-line-cut",
            "lower-below-d",
        ],
    )
    def test_rejected_with_same_error(self, tmp_path, edit):
        path = tmp_path / "p.txt"
        path.write_bytes(self.body_edit(edit))
        assert assert_same_outcome(path)[0] == "raised"


# Body lines of six bytes each; with 24-byte reads every block holds four
# whole lines, so line 2 + 4k opens a block and line 5 + 4k closes one.
LINE = b"1;1,2\n"
HEADER = f"n=9 d=1 regime={regime_of(9, 1).regime.value}\n".encode("ascii")


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(certfile, "_BLOCK_BYTES", 24)


@pytest.fixture
def decode_calls(monkeypatch):
    """Whether each block was decoded in bulk (True) or per line (False)."""
    calls = []
    real = certfile._decode_block

    def spy(buf, n, d):
        result = real(buf, n, d)
        calls.append(result is not None)
        return result

    monkeypatch.setattr(certfile, "_decode_block", spy)
    return calls


class TestBlockBoundaries:
    @pytest.mark.parametrize("block", [5, 16, 24, 40, 1 << 20])
    def test_lines_split_across_reads(self, tmp_path, monkeypatch, block):
        # With CR LF ends, some reads stop between a CR and its LF.  LF,
        # CR LF and CR bodies all decode in bulk, never line by line.
        monkeypatch.setattr(certfile, "_BLOCK_BYTES", block)
        per_line = []
        real = certfile._parse_lines
        monkeypatch.setattr(certfile, "_parse_lines", lambda *a: per_line.append(a) or real(*a))
        header, body = certificate_bytes(8, 2).split(b"\n", 1)
        path = tmp_path / "p.txt"
        for eol in (b"\n", b"\r\n", b"\r"):
            path.write_bytes(header + b"\n" + body.replace(b"\n", eol))
            got = assert_same_outcome(path)
            assert got[0] == "parsed" and got[1] == built(8, 2), eol
            assert run(["verify", "--in", str(path)])[0] == 0
        assert per_line == []

    @pytest.mark.parametrize(
        "bad",
        [b"2;1,3\n", b"1;1,a\n", b"1;1,0\n", b"1;\n1,2\n", b"1;1,\xc3\n"],
        ids=["lower-not-in-upper", "letter", "zero", "split-line", "non-ascii"],
    )
    @pytest.mark.parametrize("index,lineno", [(4, 6), (7, 9), (8, 10)])
    def test_bad_line_at_block_edge_carries_its_line_number(
        self, tmp_path, small_blocks, bad, index, lineno
    ):
        lines = [LINE] * 16
        lines[index] = bad
        path = tmp_path / "p.txt"
        path.write_bytes(HEADER + b"".join(lines))
        got = assert_same_outcome(path)
        assert got[0] == "raised" and got[1] is PartitionFileError and got[3] == lineno

    def test_non_ascii_header_is_named_by_line_1(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_bytes(HEADER.replace(b"regime", b"r\xc3\xa9gime") + LINE)
        assert assert_same_outcome(path)[1:] == (PartitionFileError, "line 1: non-ASCII byte", 1)
        assert run(["verify", "--in", str(path)]) == (2, "", "error: line 1: non-ASCII byte\n")

    def test_header_longer_than_its_bound_is_refused(self, tmp_path):
        # Leading zeros are read by int(), so only the bound of the header's
        # one readline refuses the longer header; the per-line reference,
        # which has no bound, accepts it.
        path = tmp_path / "p.txt"
        for zeros, accepted in ((200, True), (300, False)):
            header = HEADER.replace(b"n=9", b"n=" + b"0" * zeros + b"9")
            path.write_bytes(header + LINE)
            if accepted:
                assert parse_partition_file(str(path)).uppers.tolist() == [3]
            else:
                with pytest.raises(PartitionFileError, match="^line 1: bad header"):
                    parse_partition_file(str(path))

    def test_non_canonical_block_between_canonical_ones(
        self, tmp_path, small_blocks, decode_calls
    ):
        lines = [LINE] * 16
        lines[5] = b"1;1, 2\r\n"
        path = tmp_path / "p.txt"
        path.write_bytes(HEADER + b"".join(lines))
        got = assert_same_outcome(path)
        assert got[0] == "parsed"
        assert got[1].lowers.tolist() == [1] * 16 and got[1].uppers.tolist() == [3] * 16
        assert decode_calls.count(False) == 1
        assert decode_calls[0] and decode_calls[-1]

    def test_bulk_path_serves_canonical_files(self, tmp_path, small_blocks, decode_calls):
        path = tmp_path / "p.txt"
        path.write_bytes(HEADER + LINE * 16)
        assert assert_same_outcome(path)[0] == "parsed"
        assert decode_calls == [True] * 4

    @pytest.mark.parametrize("header", [b"n=5 d=2 regime=K1\n", b"n=5 d=2 regime=K1"])
    def test_header_only_file(self, tmp_path, small_blocks, header):
        path = tmp_path / "p.txt"
        path.write_bytes(header)
        got = assert_same_outcome(path)
        assert got[0] == "parsed" and len(got[1]) == 0
        code, out, _ = run(["verify", "--in", str(path)])
        assert code == 4 and "not covering" in out


MUTATIONS = (
    "flip", "separator", "insert", "delete", "crlf", "cr", "zero", "plus", "blank", "dup",
    "drop", "strip_eol",
)
INSERTS = [b"0", b"7", b"10", b",", b";", b"\n", b"\r", b" ", b"\t", b"+", b"-", b"_", b"\xc3"]


def token_starts(data):
    return [i for i in range(1, len(data)) if data[i - 1] in b",;\n" and data[i] in b"0123456789"]


@st.composite
def mutated_certificates(draw):
    n = draw(st.integers(1, 9))
    d = draw(st.integers(1, n))
    data = bytearray(certificate_bytes(n, d))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(MUTATIONS))
        at = draw(st.integers(0, max(len(data) - 1, 0)))
        if kind == "flip" and data:
            data[at] = draw(st.integers(0, 255))
        elif kind == "separator":
            seps = [i for i, byte in enumerate(data) if byte in b",;\n"]
            if seps:
                data[draw(st.sampled_from(seps))] = draw(st.sampled_from(b",;\n"))
        elif kind == "insert":
            piece = draw(st.sampled_from(INSERTS) | st.binary(min_size=1, max_size=3))
            data[at:at] = piece
        elif kind == "delete":
            del data[at : at + draw(st.integers(1, 4))]
        elif kind in ("crlf", "cr"):
            new = b"\r\n" if kind == "crlf" else b"\r"
            if draw(st.booleans()):
                data = bytearray(bytes(data).replace(b"\n", new))
            else:
                pos = data.find(b"\n", at)
                if pos >= 0:
                    data[pos : pos + 1] = new
        elif kind in ("zero", "plus"):
            starts = token_starts(data)
            if starts:
                pos = draw(st.sampled_from(starts))
                data[pos:pos] = b"0" * draw(st.integers(1, 2)) if kind == "zero" else b"+"
        elif kind == "blank":
            pos = data.find(b"\n", at)
            if pos >= 0:
                data[pos:pos] = b"\n"
        elif kind in ("dup", "drop"):
            lines = bytes(data).splitlines(keepends=True)
            if lines:
                i = draw(st.integers(0, len(lines) - 1))
                lines[i:i + 1] = [lines[i]] * (2 if kind == "dup" else 0)
                data = bytearray(b"".join(lines))
        elif kind == "strip_eol" and data.endswith(b"\n"):
            del data[-1]
    return bytes(data)


@pytest.fixture(scope="module")
def mutation_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "p.txt"


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=mutated_certificates(), block=st.sampled_from([7, 40, 1 << 20]))
def test_mutated_certificates_match_per_line_parser(mutation_path, data, block):
    mutation_path.write_bytes(data)
    with mock.patch.object(certfile, "_BLOCK_BYTES", block):
        assert_same_outcome(mutation_path)
        code, _, _ = run(["verify", "--in", str(mutation_path)])
    assert code in {0, 2, 3, 4, 10}


def traced_peak(fn):
    """fn's result and the tracemalloc peak, in bytes, while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@lru_cache(maxsize=None)
def selected(n, d, k3=False):
    return select_build(n, d, DEFAULT_SWEEP_CAP, k3)[0].partition


class TestWriterBlocks:
    """The writer's block size, set by the budget, never shows in its output."""

    @pytest.mark.parametrize("n,d,k3", [(19, 4, True), (33, 2, False)], ids=["uint32", "uint64"])
    def test_small_budget_writes_the_same_bytes(self, tmp_path, monkeypatch, n, d, k3):
        part = selected(n, d, k3)
        default, small = tmp_path / "default.txt", tmp_path / "small.txt"
        write_partition_file(part, str(default))
        encoded = []
        real = certfile._encode_rows

        def spy(lowers, uppers, table, lengths):
            encoded.append(len(lowers))
            return real(lowers, uppers, table, lengths)

        monkeypatch.setattr(certfile, "_encode_rows", spy)
        monkeypatch.setattr(certfile, "_BLOCK_BYTES", 4099)
        write_partition_file(part, str(small))
        # Every block but the last is full, and no block is the whole file.
        assert len(encoded) > 1 and sum(encoded) == len(part)
        assert set(encoded[:-1]) == {encoded[0]} and encoded[-1] <= encoded[0]
        assert small.read_bytes() == default.read_bytes()
        assert parse_partition_file(str(small)) == part

    def test_one_row_per_block_below_a_row(self, tmp_path, monkeypatch):
        part = built(9, 2)
        default, small = tmp_path / "default.txt", tmp_path / "small.txt"
        write_partition_file(part, str(default))
        monkeypatch.setattr(certfile, "_BLOCK_BYTES", 1)
        assert certfile._rows_per_block(certfile._fragment_table(9)[0]) == 1
        write_partition_file(part, str(small))
        assert small.read_bytes() == default.read_bytes()

    def test_wider_masks_get_fewer_rows(self):
        rows = [certfile._rows_per_block(certfile._fragment_table(n)[0]) for n in (8, 19, 33, 64)]
        assert rows == sorted(rows, reverse=True) and rows[-1] < rows[0]


def test_codec_memory_is_bounded_by_the_budget(tmp_path):
    """At (23, 5) with the n = 4d + 3 construction, a 6.8 MB certificate of
    a 1.4 MiB partition, neither direction's peak grows with the file: the
    writer holds one block's temporaries, about 1 MiB, and the parser the
    partition twice (its blocks and their concatenation) or one block's
    temporaries beside the blocks decoded before it."""
    part = build_partition_k3(5).partition
    path = tmp_path / "k3.txt"
    # A first call's one-time allocations are not the working set.
    write_partition_file(part, str(path))
    parse_partition_file(str(path))
    _, write_peak = traced_peak(lambda: write_partition_file(part, str(path)))
    parsed, parse_peak = traced_peak(lambda: parse_partition_file(str(path)))
    assert parsed == part
    assert write_peak < 2 * 2**20
    assert parse_peak < 2 * (part.lowers.nbytes + part.uppers.nbytes) + 2 * 2**20


class TestVerifyCapDuringParse:
    """Past ``verify --cap`` the parser keeps no interval but still reads the
    whole file, so the listed volume, every message and every exit code stay
    what a full parse gives."""

    # n = 9: 2**9 - 1 = 511 sets of size >= 1, fewer than any file's volume
    # here; n = 30: more than any.  Each line declares 2 sets.
    def certificate(self, tmp_path, n, lines, tail=b"", eol=b"\n"):
        path = tmp_path / f"cap{n}_{lines}.txt"
        header = f"n={n} d=1 regime={regime_of(n, 1).regime.value}\n".encode("ascii")
        path.write_bytes(header + LINE.replace(b"\n", eol) * lines + tail)
        return path

    @pytest.mark.parametrize("cap", [10, 100_000])
    def test_volume_above_the_poset_exits_4_first(self, tmp_path, cap):
        path = self.certificate(tmp_path, 9, 100_000)
        assert run(["verify", "--in", str(path), "--cap", str(cap)]) == (
            4,
            "not disjoint: declared volume 200000 exceeds the 511 sets of the poset\n",
            "",
        )

    @pytest.mark.parametrize("cap", [10, 100_000, 199_999])
    def test_volume_above_the_cap_exits_2(self, tmp_path, cap):
        path = self.certificate(tmp_path, 30, 100_000)
        over = certfile.parse_partition_file(str(path), cap=cap)
        assert isinstance(over, certfile.OverCap)
        assert len(over) == 100_000 and over.volume() == 200_000 and (over.n, over.d) == (30, 1)
        assert run(["verify", "--in", str(path), "--cap", str(cap)]) == (
            2,
            "",
            f"verifying 200000 listed sets exceeds the enumeration cap {cap}\n",
        )

    def test_at_the_cap_the_partition_is_kept(self, tmp_path):
        path = self.certificate(tmp_path, 30, 100_000)
        part = certfile.parse_partition_file(str(path), cap=200_000)
        assert part == parse_partition_file(str(path))
        assert len(part) == 100_000

    def test_parse_error_past_the_cap_is_still_raised(self, tmp_path):
        path = self.certificate(tmp_path, 30, 100_000, tail=b"2;1,3\n")
        want = (2, "", "error: line 100002: lower is not a subset of upper\n")
        assert run(["verify", "--in", str(path), "--cap", "10"]) == want
        assert run(["verify", "--in", str(path)]) == want

    def test_parse_memory_does_not_grow_with_the_file(self, tmp_path):
        # 25,000 and 250,000 lines: 0.15 and 1.5 MB with LF ends, 3 and 23
        # blocks of 64 KiB, and up to 1.75 MB, 27 blocks, with CR LF ends.
        # A full parse would hold 2 MB of masks for the longer file, twice.
        # A CR body, which holds no LF, must be cut into blocks too.
        for eol in (b"\n", b"\r\n", b"\r"):
            peaks = []
            for lines in (25_000, 250_000):
                path = self.certificate(tmp_path, 30, lines, eol=eol)
                run(["verify", "--in", str(path), "--cap", "10"])
                (code, _, err), peak = traced_peak(
                    lambda: run(["verify", "--in", str(path), "--cap", "10"])
                )
                assert code == 2 and err.startswith(f"verifying {2 * lines} listed sets")
                peaks.append(peak)
            assert peaks[1] < peaks[0] + 2**18, (eol, peaks)


def test_verify_reads_a_certificate_piped_to_stdin(tmp_path):
    """The parser reads a certificate once, without seeking, so a pipe
    verifies as the file does.  A fresh process gets a real pipe."""
    path = tmp_path / "p.txt"
    assert run(["build", "-n", "9", "-d", "2", "--out", str(path)])[0] == 0
    want = run(["verify", "--in", str(path)])
    assert want[0] == 0
    result = subprocess.run(
        [sys.executable, "-m", "veronese_sdepth", "verify", "--in", "/dev/stdin"],
        input=path.read_bytes(),
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
        timeout=120,
    )
    assert (result.returncode, result.stdout.decode(), result.stderr.decode()) == want
