"""The traced benchmark run (``perfbench/tracing.py``) wraps package
functions by module and attribute name, and counts from what they return,
so renaming or removing one of them, or changing a result type, would
break ``--trace 1`` without failing any other test."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from veronese_sdepth import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_metrics(tracing, *argvs):
    """Per-layer metrics and counters of ``cli.main`` run on each argv,
    with every binding routed through one tracer."""
    tracer = tracing.Tracer()
    with tracing.installed(tracer), contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in argvs]
    assert all(code in (cli.EXIT_OK, cli.EXIT_BOUNDS_ONLY) for code in codes)
    return tracer.layer_metrics()


def test_every_traced_binding_resolves(tracing):
    assert tracing.PATCHES
    for module, attr, span, _ in tracing.PATCHES:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


def test_layered_report_counts(tracing):
    m = traced_metrics(tracing, ["report", "-n", "25", "-d", "5"])
    assert m["builder.candidates"] == 710_930
    assert m["builder.selected"] == 356_730
    assert m["builder.certify_layered_s"] > 0


def test_materialized_report_counts(tracing):
    m = traced_metrics(tracing, ["report", "-n", "22", "-d", "5"])
    assert m["builder.build_s"] > 0
    assert m["verify.intervals"] == 4_084_248


def test_build_then_verify_counts(tracing, tmp_path):
    out = str(tmp_path / "cert.txt")
    m = traced_metrics(
        tracing,
        ["build", "-n", "9", "-d", "2", "--out", out],
        ["verify", "--in", out],
    )
    assert m["cli.parse_lines"] == 48
