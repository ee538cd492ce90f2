import io
import contextlib
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from oracles import materialize
from veronese_sdepth import DEFAULT_SWEEP_CAP, build_partition, regime_of
from veronese_sdepth.cli import main, parse_partition_file, write_partition_file
from veronese_sdepth.verify import select_build
from veronese_sdepth.errors import PartitionFileError


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def machine_lines(text):
    pairs = {}
    for line in text.splitlines():
        if "=" in line and " " not in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            pairs[key] = value
    return pairs


class TestReport:
    def test_verified_instance(self):
        code, out, _ = run(["report", "-n", "5", "-d", "2"])
        values = machine_lines(out)
        assert code == 0
        assert values["conjectured"] == "3"
        assert values["certified_lower"] == "3"
        assert values["verified"] == "yes"

    def test_k3_path(self):
        code, out, _ = run(["report", "-n", "7", "-d", "1"])
        assert code == 0 and machine_lines(out)["certified_lower"] == "4"

    def test_bounds_only_instance(self):
        code, out, _ = run(["report", "-n", "29", "-d", "1"])
        values = machine_lines(out)
        assert code == 10
        assert values["certified_lower"] == "6"
        assert values["upper_bound"] == "15"
        assert values["verified"] == "no"

    @pytest.mark.parametrize(
        "n, d, certified, exit_code",
        [(33, 1, "6", 10), (25, 9, "10", 0), (26, 5, "8", 0)],
    )
    def test_listed_volume_within_the_cap_is_certified(self, n, d, certified, exit_code):
        # The default cap bounds the listed volume, which these layered
        # builds stay within; (26, 5) needs the k3 band no longer.
        code, out, _ = run(["report", "-n", str(n), "-d", str(d)])
        values = machine_lines(out)
        assert code == exit_code
        assert values["certified_lower"] == certified
        assert values["certification"] == "layered"

    def test_trivial_range_beyond_cap(self):
        # n <= 2d: every set self-covers, so the layered certificate is
        # exact however large C(n, d) is.
        code, out, _ = run(["report", "-n", "30", "-d", "20"])
        values = machine_lines(out)
        assert code == 0
        assert values["certification"] == "layered"
        assert values["certified_lower"] == "20"

    @pytest.mark.parametrize(
        "argv", [["-n", "65", "-d", "40"], ["-n", "65", "-d", "1", "--cap", "1000000000000000"]]
    )
    def test_universe_wider_than_a_mask_is_bounds_only(self, argv):
        # No mask holds a subset of [65], so nothing is certified, in the
        # trivial range or under a cap the listed volume passes.
        code, out, err = run(["report", *argv])
        values = machine_lines(out)
        assert code == 10 and not err
        assert values["certified_lower"] == "none"
        assert values["certification"] == "none"

    def test_trivial_range_at_the_widest_mask(self):
        code, out, _ = run(["report", "-n", "64", "-d", "40"])
        values = machine_lines(out)
        assert code == 0
        assert values["certified_lower"] == "40"
        assert values["certification"] == "layered"

    def test_oracle_flag(self):
        code, out, _ = run(["report", "-n", "6", "-d", "2", "--oracle"])
        assert code == 0 and machine_lines(out)["oracle_exact"] == "3"

    def test_bad_arguments(self):
        code, _, err = run(["report", "-n", "0", "-d", "1"])
        assert code == 2 and err
        code, _, _ = run(["report", "-n", "5"])
        assert code == 2


class TestBuildVerify:
    def test_roundtrip(self, tmp_path):
        out_file = tmp_path / "p.txt"
        code, out, _ = run(["build", "-n", "5", "-d", "2", "--out", str(out_file)])
        assert code == 0 and "min_upper_size=3" in out
        code, out, _ = run(["verify", "--in", str(out_file)])
        assert code == 0 and "verified" in out

    def test_file_format_roundtrip_identity(self, tmp_path):
        part, _ = build_partition(6, 2)
        path = tmp_path / "p.txt"
        write_partition_file(part, str(path))
        assert parse_partition_file(str(path)) == part

    def test_k3_build(self, tmp_path):
        out_file = tmp_path / "p.txt"
        code, out, _ = run(["build", "-n", "7", "-d", "1", "--k3", "--out", str(out_file)])
        assert code == 0 and "min_upper_size=4" in out

    def test_k3_wrong_n(self, tmp_path):
        code, _, err = run(["build", "-n", "8", "-d", "1", "--k3", "--out", str(tmp_path / "p")])
        assert code == 2 and "4d + 3" in err

    def test_trivial_build(self, tmp_path):
        out_file = tmp_path / "p.txt"
        write_partition_file(materialize(build_partition(4, 2).partition), str(out_file))
        lines = out_file.read_text().splitlines()
        assert lines[0] == "n=4 d=2 regime=TrivialRange"
        assert all(line.split(";")[0] == line.split(";")[1] for line in lines[1:])

    def test_trivial_build_compact(self, tmp_path):
        # Every set is a singleton, so the compact certificate lists nothing.
        out_file = tmp_path / "p.txt"
        code, out, _ = run(["build", "-n", "4", "-d", "2", "--out", str(out_file)])
        assert code == 0 and out == "intervals=11\nmin_upper_size=2\n"
        assert out_file.read_text() == "n=4 d=2 regime=TrivialRange min_upper=2\n"
        code, out, _ = run(["verify", "--in", str(out_file)])
        assert code == 0 and "intervals=11 min_upper_size=2" in out

    def test_cap_guard(self, tmp_path):
        code, _, err = run(
            ["build", "-n", "24", "-d", "5", "--cap", "1000", "--out", str(tmp_path / "p")]
        )
        assert code == 2 and "cap" in err

    @pytest.mark.parametrize(
        "n,d,cap,volume", [(26, 11, 10_400_600, 15_452_320), (24, 11, 3_000_000, 4_992_288)]
    )
    def test_construction_volume_beyond_the_cap_is_refused(self, tmp_path, n, d, cap, volume):
        # C(n, ceil(n/2)) <= cap, yet the construction would list more
        # sets than ``verify --cap`` accepts at the same cap.
        out_file = tmp_path / "p.txt"
        argv = ["build", "-n", str(n), "-d", str(d), "--cap", str(cap), "--out", str(out_file)]
        code, out, err = run(argv)
        assert (code, out) == (2, "") and f"would list {volume} sets" in err
        assert not out_file.exists()

    def test_beyond_the_cap_builds_the_layered_certificate(self, tmp_path):
        out_file = tmp_path / "p.txt"
        code, out, _ = run(["build", "-n", "30", "-d", "1", "--out", str(out_file)])
        assert code == 0 and machine_lines(out)["min_upper_size"] == "6"
        code, out, _ = run(["verify", "--in", str(out_file)])
        assert code == 0 and out.endswith(" min_upper_size=6\n")

    @pytest.mark.parametrize("n,d,k3", [(19, 4, False), (19, 4, True), (30, 1, False)])
    def test_build_writes_the_selected_partition(self, tmp_path, n, d, k3):
        out_file = tmp_path / "p.txt"
        argv = ["build", "-n", str(n), "-d", str(d), "--out", str(out_file)]
        code, _, _ = run(argv + (["--k3"] if k3 else []))
        built, _ = select_build(n, d, DEFAULT_SWEEP_CAP, k3)
        assert code == 0 and parse_partition_file(str(out_file)) == built.partition

    def test_layered_sweep_beyond_the_cap_is_refused(self, tmp_path):
        out_file = tmp_path / "p.txt"
        code, out, err = run(["build", "-n", "35", "-d", "2", "--out", str(out_file)])
        assert (code, out) == (2, "") and "layered sweep" in err and "5000000" in err
        assert not out_file.exists()

    def test_mutations(self, tmp_path):
        out_file = tmp_path / "p.txt"
        run(["build", "-n", "5", "-d", "2", "--out", str(out_file)])
        original = out_file.read_text().splitlines(keepends=True)

        out_file.write_text("".join(original[:-1]))
        code, out, _ = run(["verify", "--in", str(out_file)])
        assert code == 4 and "uncovered" in out

        out_file.write_text("".join(original) + original[-1])
        code, out, _ = run(["verify", "--in", str(out_file)])
        assert code == 4 and "not disjoint" in out

        out_file.write_text("n=five d=2 regime=K1\n" + "".join(original[1:]))
        code, _, err = run(["verify", "--in", str(out_file)])
        assert code == 2 and "header" in err

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("n=5 d=2 regime=K1\n1,2;1,2,5\n3,1;1,2,3\n")
        with pytest.raises(PartitionFileError) as exc:
            parse_partition_file(str(path))
        assert exc.value.lineno == 3

    def test_parse_rejects_out_of_range_member(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("n=5 d=2 regime=K1\n1,6;1,6\n")
        code, _, err = run(["verify", "--in", str(path)])
        assert code == 2 and "line 2" in err

    def test_bad_body_line_beyond_26_carries_its_line_number(self, tmp_path):
        path = tmp_path / "p.txt"
        tag = regime_of(27, 2).regime.value
        path.write_text(f"n=27 d=2 regime={tag}\n1,2;1,2,3\nnot an interval line\n")
        code, out, err = run(["verify", "--in", str(path)])
        assert code == 2 and out == ""
        assert "line 3" in err and "cap" not in err

    def test_parse_rejects_regime_mismatch(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("n=5 d=2 regime=Large\n1,2;1,2,5\n")
        code, _, err = run(["verify", "--in", str(path)])
        assert code == 2


class TestTable:
    def test_exact_range(self):
        code, out, _ = run(["table", "--d-range", "2..2", "--n-range", "5..10"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,d,regime,conjectured,certified_lower,upper_bound,verified"
        assert len(lines) == 7
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[3] == fields[4] and fields[6] == "yes"

    def test_proven_range_for_d1(self):
        code, out, _ = run(["table", "--d-range", "1..1", "--n-range", "2..6"])
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            fields = line.split(",")
            assert fields[3] == fields[4], line

    def test_band_rows(self):
        code, out, _ = run(["table", "--d-range", "1..1", "--n-range", "7..9"])
        rows = {line.split(",")[0]: line.split(",") for line in out.strip().splitlines()[1:]}
        assert rows["7"][4] == "4" and rows["7"][6] == "yes"
        assert rows["8"][4] == "4" and rows["8"][6] == "yes"
        assert rows["9"][6] == "no"

    def test_row_order_and_skip(self):
        code, out, _ = run(["table", "--d-range", "1..2", "--n-range", "1..4", "--cap", "3"])
        lines = out.strip().splitlines()[1:]
        keys = [(int(l.split(",")[1]), int(l.split(",")[0])) for l in lines]
        assert keys == sorted(keys)
        assert all(l.split(",")[0] >= l.split(",")[1] for l in lines)
        for line in lines:
            n, d, _, _, cert, _, verified = line.split(",")
            _, rep_out, _ = run(["report", "-n", n, "-d", d, "--cap", "3"])
            report = machine_lines(rep_out)
            assert (cert or "none", verified) == (
                report["certified_lower"], report["verified"]
            ), line
        assert "4,2,TrivialRange,2,2,2,yes" in lines

    def test_rows_beyond_26_match_report(self):
        code, out, _ = run(["table", "--d-range", "1..2", "--n-range", "29..30"])
        assert code == 0 and "SKIPPED" not in out
        rows = {tuple(l.split(",")[:2]): l.split(",") for l in out.strip().splitlines()[1:]}
        for n, d in [("29", "1"), ("30", "2")]:
            _, rep_out, _ = run(["report", "-n", n, "-d", d])
            report = machine_lines(rep_out)
            keys = ["regime", "conjectured", "certified_lower", "upper_bound", "verified"]
            assert rows[n, d][2:] == [report[k] for k in keys]
        assert rows["29", "1"] == "29,1,Large,15,6,15,no".split(",")

    def test_bad_range(self):
        code, _, _ = run(["table", "--d-range", "2..1", "--n-range", "1..4"])
        assert code == 2
        code, _, _ = run(["table", "--d-range", "x", "--n-range", "1..4"])
        assert code == 2

    @pytest.mark.parametrize(
        "d_range,n_range", [("0..2", "1..3"), ("1..2", "0..3"), ("0..0", "0..0")]
    )
    def test_range_below_1_fails_before_any_output(self, d_range, n_range):
        code, out, err = run(["table", "--d-range", d_range, "--n-range", n_range])
        assert code == 2 and out == "" and "range must start at 1 or above" in err


class TestBlocks:
    def test_examples(self):
        code, out, _ = run(["blocks", "-n", "5", "--set", "1,2", "--density", "2"])
        assert code == 0 and out == "B[1..4] G[5..5]\nf=1,2,5\n"
        code, out, _ = run(["blocks", "-n", "5", "--set", "1", "--density", "2"])
        assert code == 0 and out.splitlines()[0] == "B[1..2] G[3..5]"

    def test_density_out_of_range(self):
        code, _, err = run(["blocks", "-n", "5", "--set", "1,2,3", "--density", "2"])
        assert code == 2 and err

    def test_rational_density(self):
        code, out, _ = run(["blocks", "-n", "7", "--set", "1,3", "--density", "3/2"])
        assert code == 0

    def test_density_forms(self):
        outs = {}
        for density in ["2", "3/2", "6/4", "1.5"]:
            argv = ["blocks", "-n", "7", "--set", "1,3", "--density", density]
            code, outs[density], _ = run(argv)
            assert code == 0
        assert outs["6/4"] == outs["1.5"] == outs["3/2"] != outs["2"]

    @pytest.mark.parametrize("density", ["3/0", "1/2", "0", "abc", "2/", "1e3"])
    def test_refused_density_forms(self, density):
        code, out, err = run(["blocks", "-n", "7", "--set", "1,3", "--density", density])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_empty_set(self):
        code, _, _ = run(["blocks", "-n", "5", "--set", "", "--density", "2"])
        assert code == 2

    def test_too_wide_circle_refused_at_once(self):
        tracemalloc.start()
        try:
            code, out, err = run(["blocks", "-n", "1000000", "--set", "1", "--density", "2"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and out == "" and "100000" in err
        assert peak < 2**20


class TestOracleCommand:
    def test_value(self):
        code, out, _ = run(["oracle", "-n", "5", "-d", "2"])
        assert code == 0 and "oracle_exact=3" in out

    def test_budget_exhaustion(self):
        code, out, _ = run(["oracle", "-n", "6", "-d", "1", "--budget", "5"])
        assert code == 10 and "oracle_exact=none" in out

    def test_universe_beyond_a_mask_is_none_at_once(self):
        start = time.perf_counter()
        code, out, err = run(["oracle", "-n", "1000", "-d", "1", "--budget", "1"])
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (10, "oracle_exact=none\n", "")

    def test_deep_search_needs_no_recursion(self):
        code, out, err = run(["oracle", "-n", "14", "-d", "2"])
        assert (code, out, err) == (0, "oracle_exact=6\n", "")


class TestNonPositiveLimits:
    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "-n", "6", "-d", "1", "--budget", "0"],
            ["oracle", "-n", "6", "-d", "1", "--budget", "-3"],
            ["report", "-n", "6", "-d", "2", "--oracle", "--oracle-budget", "0"],
            ["report", "-n", "22", "-d", "5", "--cap", "0"],
            ["build", "-n", "5", "-d", "2", "--cap", "-1", "--out", "unused"],
            ["verify", "--in", "unused", "--cap", "0"],
            ["table", "--d-range", "1..1", "--n-range", "1..3", "--cap", "0"],
        ],
    )
    def test_rejected_with_message(self, argv):
        code, out, err = run(argv)
        assert code == 2 and out == ""
        assert "must be positive" in err


class TestFileErrors:
    def test_missing_certificate(self, tmp_path):
        code, out, err = run(["verify", "--in", str(tmp_path / "missing.txt")])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "missing.txt" in err

    def test_unwritable_output(self, tmp_path):
        out_file = tmp_path / "no-such-dir" / "p.txt"
        code, out, err = run(["build", "-n", "5", "-d", "2", "--out", str(out_file)])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "no-such-dir" in err


NOT_POSITIVE = st.one_of(
    st.integers(-2, 0).map(str), st.sampled_from(["abc", "1.5", "", "1e3", "0x5", "--"])
)


def mostly(valid, edge):
    """``valid`` four times in five, else ``edge``.  Hypothesis leans
    towards drawing 0, so 0 picks ``valid``."""
    return st.integers(0, 4).flatmap(lambda i: edge if i == 4 else valid)


def int_range(hi):
    """a..b with 1 <= a <= b <= hi, or a reversed, negative, empty or
    malformed range."""
    return mostly(
        st.tuples(st.integers(1, hi), st.integers(1, hi)).map(lambda t: f"{min(t)}..{max(t)}"),
        st.one_of(
            st.tuples(st.integers(-2, hi), st.integers(-2, hi)).map(lambda t: f"{t[0]}..{t[1]}"),
            st.sampled_from(["..", "3..", "..3", "a..b", "1", "1...3", "5..2"]),
        ),
    )


CAPS = mostly(st.sampled_from(["5000000", "100", "1"]), st.sampled_from(["0", "-1", "abc"]))
BUDGETS = mostly(st.integers(1, 20_000).map(str), NOT_POSITIVE)
DENSITIES = mostly(
    st.sampled_from(["3/2", "2", "5/2", "1", "7/3", "3", "4/3", "5"]),
    st.sampled_from(["1/0", "1.5", "abc", "0", "-1", "1/2", "2/-1", "1/1/1"]),
)


@st.composite
def cli_argvs(draw, paths):
    """An argv for ``main``, its work bounded here: n <= 14 where it builds
    or reports, n <= 8 and a budget of at most 20,000 for the oracle."""
    command = draw(
        st.sampled_from(["report", "build", "verify", "table", "blocks", "oracle", "frobnicate"])
    )
    argv = [command]

    def flag(name, values, always=False):
        # Each flag is now and then left out, so missing arguments come up too.
        if always or draw(st.integers(0, 19)) < 19:
            argv.extend([name, draw(values)])

    def n_and_d(hi, k3=False):
        # With --k3, mostly an n = 4d + 3 the flag accepts.
        d = draw(st.integers(1, (hi - 3) // 4)) if k3 and draw(st.integers(0, 3)) < 3 else None
        n = draw(st.integers(1, hi)) if d is None else 4 * d + 3
        flag("-n", mostly(st.just(str(n)), NOT_POSITIVE))
        valid_d = st.integers(1, n) if d is None else st.just(d)
        too_big = st.integers(n + 1, hi + 2)
        flag("-d", mostly(valid_d.map(str), st.one_of(NOT_POSITIVE, too_big.map(str))))

    if command == "report":
        oracle = draw(st.booleans())
        n_and_d(8 if oracle else 14)
        if oracle:
            argv.append("--oracle")
            flag("--oracle-budget", BUDGETS, always=True)
        flag("--cap", CAPS)
    elif command == "build":
        k3 = draw(st.booleans())
        n_and_d(14, k3)
        flag("--out", mostly(st.just(paths["out"][0]), st.sampled_from(paths["out"][1:])))
        if k3:
            argv.append("--k3")
        flag("--cap", CAPS)
    elif command == "verify":
        flag("--in", st.sampled_from(paths["in"]))
        flag("--cap", CAPS)
    elif command == "table":
        flag("--d-range", int_range(14))
        flag("--n-range", int_range(14))
        flag("--cap", CAPS)
    elif command == "blocks":
        n = draw(st.integers(1, 14))
        flag("-n", mostly(st.just(str(n)), NOT_POSITIVE))
        members = st.lists(st.integers(1, n), min_size=1, max_size=4).map(
            lambda xs: ",".join(map(str, xs))
        )
        bad_sets = st.sampled_from(["", "0", "-1", "1,,2", "abc", str(n + 1)])
        flag("--set", mostly(members, bad_sets))
        flag("--density", DENSITIES)
    elif command == "oracle":
        n_and_d(8)
        flag("--budget", BUDGETS, always=True)
    else:
        argv += draw(st.lists(st.sampled_from(["-n", "5", "--cap", "x"]), max_size=3))
    return argv


@pytest.fixture(scope="module")
def argv_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    (root / "dir").mkdir()
    valid = root / "valid.txt"
    write_partition_file(materialize(build_partition(6, 2).partition), valid)
    lines = valid.read_bytes().splitlines(keepends=True)
    bad = {
        "duplicate": b"".join(lines + lines[-1:]),  # parses, exit 4
        "header": b"n=6 d=2 regime=XX\n" + b"".join(lines[1:]),
        "blank": b"".join(lines[:2] + [b"\n"] + lines[2:]),
        "member": b"".join(lines[:2] + [b"1,x;1,2\n"] + lines[2:]),
        "separator": b"".join(lines[:2] + [b"1,2\n"] + lines[2:]),
        "ascii": b"".join(lines[:2] + [b"1,2;1,2\xff\n"] + lines[2:]),
    }
    for name, data in bad.items():
        (root / f"{name}.txt").write_bytes(data)
    return {
        "in": [str(valid), str(root / "missing.txt"), str(root / "dir")]
        + [str(root / f"{name}.txt") for name in bad],
        "out": [str(root / "out.txt"), str(root / "dir"), str(root / "missing" / "p.txt")],
    }


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_any_argv_exits_with_a_contract_code(argv_paths, data):
    argv = data.draw(cli_argvs(argv_paths), label="argv")
    code, _, _ = run(argv)
    assert code in {0, 2, 3, 4, 10}, argv
