"""The traced benchmark run (``perfbench/tracing.py``) wraps package
functions by module and attribute name, so renaming or removing one of
them would break ``--trace 1`` without failing any other test."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_binding_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCHES
    for module, attr, span, _ in tracing.PATCHES:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"
