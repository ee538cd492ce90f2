"""Every name a package module imports is used in that module.

Each module under ``src/veronese_sdepth/`` is parsed with ``ast``; a name
bound by ``import`` or ``from ... import`` (``__future__`` aside) must be
read somewhere in the module, as a bare name or as the base of an
attribute.  An import left behind by a refactor fails here by module and
name."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "veronese_sdepth"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_package_has_modules():
    assert {p.name for p in MODULES} >= {"__init__.py", "builder.py", "cli.py", "verify.py"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import os\n", ["os (line 1)"]),
        ("import os.path\nos.sep\n", []),
        ("import numpy as np\nnp.zeros(1)\n", []),
        ("from math import comb, isqrt\ncomb(3, 1)\n", ["isqrt (line 1)"]),
        ("from . import bitops\nx: bitops.T = 0\n", []),
        ("from __future__ import annotations\n", []),
        ("from .core import MAX_UNIVERSE as M\n", ["M (line 1)"]),
    ],
)
def test_unused_imports_finds_what_it_should(source, unused):
    assert unused_imports(source) == unused
