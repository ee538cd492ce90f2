"""``cli.main`` builds its argument parser once per process and keeps no
state in it from one call to the next.

Each call of a sequence run through ``main`` in this process must print
and return exactly what the same call prints and returns when it is the
first call of a fresh interpreter."""

import argparse
import contextlib
import io
from functools import cache

import pytest
from test_startup import run_fresh

from veronese_sdepth import cli

ORACLE = ["oracle", "-n", "9", "-d", "1"]


def run(argv) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [code, out.getvalue(), err.getvalue()]


def run_first(argv) -> list:
    """``run(argv)`` as the first call of a fresh interpreter."""
    return run_fresh(
        f"""
import contextlib, io, json
from veronese_sdepth import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cli.main({argv!r})
print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""
    )


def build(tmp_path, name, *flags):
    return ["build", "-n", "19", "-d", "4", "--out", str(tmp_path / name), *flags]


@pytest.fixture
def cert(tmp_path):
    path = tmp_path / "c19.txt"
    assert run(build(tmp_path, "c19.txt"))[0] == cli.EXIT_OK
    return str(path)


SEQUENCES = {
    "report --oracle, report": lambda tmp_path, cert: [
        ["report", "-n", "7", "-d", "1", "--oracle"],
        ["report", "-n", "7", "-d", "1"],
    ],
    "build --k3, build": lambda tmp_path, cert: [
        build(tmp_path, "k3.txt", "--k3"),
        build(tmp_path, "plain.txt"),
    ],
    "verify --cap 1, verify": lambda tmp_path, cert: [
        ["verify", "--in", cert, "--cap", "1"],
        ["verify", "--in", cert],
    ],
    "usage error, oracle": lambda tmp_path, cert: [["no-such-command"], ORACLE],
    "report usage error, report": lambda tmp_path, cert: [
        ["report", "-n", "7"],
        ["report", "-n", "7", "-d", "1"],
    ],
    "--help, oracle": lambda tmp_path, cert: [["--help"], ORACLE],
}


@pytest.mark.parametrize("name", SEQUENCES)
def test_each_call_answers_as_a_first_call(monkeypatch, tmp_path, cert, name):
    # The help text wraps at the terminal width, so both processes get one.
    monkeypatch.setenv("COLUMNS", "80")
    sequence = SEQUENCES[name](tmp_path, cert)
    in_process = [run(argv) for argv in sequence]
    assert in_process == [run_first(argv) for argv in sequence]
    if name == "report --oracle, report":
        assert "oracle_exact=" in in_process[0][1]
        assert "oracle_exact=" not in in_process[1][1]
    if name == "verify --cap 1, verify":
        assert [code for code, _, _ in in_process] == [cli.EXIT_USAGE, cli.EXIT_OK]


def test_build_after_k3_writes_the_plain_certificate(tmp_path):
    run(build(tmp_path, "k3.txt", "--k3"))
    run(build(tmp_path, "plain.txt"))
    assert run_first(build(tmp_path, "first.txt"))[0] == cli.EXIT_OK
    assert (tmp_path / "plain.txt").read_bytes() == (tmp_path / "first.txt").read_bytes()
    assert (tmp_path / "plain.txt").read_bytes() != (tmp_path / "k3.txt").read_bytes()


def count_parsers(monkeypatch) -> list:
    """Record every ``argparse.ArgumentParser`` constructed from now on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


def test_many_calls_build_one_parser_tree(monkeypatch, tmp_path, cert):
    built = count_parsers(monkeypatch)
    assert cli.build_arg_parser() is not cli.build_arg_parser()
    tree = len(built) // 2
    assert tree == 7  # the top-level parser and one per command
    built.clear()
    # An empty cache for this test; the shared one is restored after it.
    monkeypatch.setattr(cli, "_parser", cache(cli.build_arg_parser))
    argvs = [ORACLE, ["--help"], ["no-such-command"], ["verify", "--in", cert], ORACLE]
    codes = [run(argv)[0] for argv in argvs]
    assert codes == [0, 0, 2, 0, 0]
    assert len(built) == tree


def test_import_builds_no_parser():
    got = run_fresh(
        f"""
import argparse, contextlib, io, json
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
from veronese_sdepth import cli
counts = [len(built)]
with contextlib.redirect_stdout(io.StringIO()):
    for _ in range(3):
        cli.main({ORACLE!r})
        counts.append(len(built))
print(json.dumps(counts))
"""
    )
    assert got == [0, 7, 7, 7]
