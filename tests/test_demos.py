"""Each demo script prints exactly the text stored beside the tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_output_unchanged(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, env=env, check=True, timeout=300
    )
    expected = (ROOT / "tests" / "data" / "demos" / f"{script.stem}.txt").read_bytes()
    assert result.stdout == expected
