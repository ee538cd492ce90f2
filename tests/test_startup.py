"""``oracle``, ``blocks``, ``--help`` and usage errors run without numpy,
and all but ``blocks`` without ``veronese_sdepth.blocks``.

The package namespace and ``cli`` load the numpy-backed modules on first
use.  Each check on that runs in a fresh interpreter, because any earlier
test of this process has imported numpy already, and which one ran first
would decide the answer."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import veronese_sdepth
from veronese_sdepth import cli
from veronese_sdepth.oracle import exact_sdepth

ROOT = Path(__file__).resolve().parent.parent

# ``blocks`` runs last, so the others are seen to run without its module.
NUMPY_FREE = [
    ["oracle", "-n", "9", "-d", "1"],
    ["--help"],
    ["no-such-command"],
    ["blocks", "-n", "9", "--set", "1,4,5", "--density", "2"],
]


def run_fresh(script: str) -> dict:
    """Run ``script`` in a fresh interpreter on this source tree and return
    the JSON object it prints last."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, env=env, check=True, timeout=120
    )
    return json.loads(result.stdout.decode().splitlines()[-1])


def run_main(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_numpy_free_commands_do_not_import_numpy():
    got = run_fresh(
        f"""
import contextlib, io, json, sys
from veronese_sdepth import cli
out = io.StringIO()
*argvs, blocks = {NUMPY_FREE!r}
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in argvs]
    blocks_free = "veronese_sdepth.blocks" not in sys.modules
    codes.append(cli.main(blocks))
numpy_free = "numpy" not in sys.modules
oracle = out.getvalue().splitlines()[0]
with contextlib.redirect_stdout(io.StringIO()) as report:
    code = cli.main(["report", "-n", "7", "-d", "1"])
print(json.dumps(dict(codes=codes, numpy_free=numpy_free, oracle=oracle,
                      blocks_free=blocks_free, report=[code, report.getvalue()])))
"""
    )
    assert got["codes"] == [cli.EXIT_OK, cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_OK]
    assert got["oracle"] == "oracle_exact=5"
    assert got["numpy_free"]
    assert got["blocks_free"]
    # Once a numpy-backed command has run, the same process answers as a
    # process that imported everything up front.
    assert got["report"] == list(run_main(["report", "-n", "7", "-d", "1"]))


def test_wrapper_set_before_first_use_is_the_one_called():
    # A tracer replaces ``cli.verify_partition`` before any command runs;
    # binding the deferred names must not put the original back.
    got = run_fresh(
        """
import contextlib, io, json, os, sys, tempfile
from veronese_sdepth import cli
calls = []
def spy(p):
    from veronese_sdepth.verify import verify_partition
    calls.append(len(p))
    return verify_partition(p)
setattr(cli, "verify_partition", spy)
path = os.path.join(tempfile.mkdtemp(), "p.txt")
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["build", "-n", "9", "-d", "2", "--out", path]),
             cli.main(["verify", "--in", path])]
print(json.dumps(dict(codes=codes, calls=calls, kept=cli.verify_partition is spy)))
"""
    )
    assert got["codes"] == [cli.EXIT_OK, cli.EXIT_OK]
    assert len(got["calls"]) == 1 and got["kept"]


def test_every_exported_name_resolves():
    for name in veronese_sdepth.__all__:
        assert getattr(veronese_sdepth, name) is not None, name


def test_star_import():
    namespace = {}
    exec("from veronese_sdepth import *", namespace)
    assert set(veronese_sdepth.__all__) <= set(namespace)
    assert namespace["exact_sdepth"] is exact_sdepth


@pytest.mark.parametrize("module", [veronese_sdepth, cli], ids=["package", "cli"])
def test_unknown_attribute_raises(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
