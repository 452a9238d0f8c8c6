"""Every narrative script under demos/ runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(script):
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr


def test_subprocesses_raise_on_deprecation_warnings():
    # conftest hands every subprocess pyproject's warning policy
    warn = "import warnings; warnings.warn('old', DeprecationWarning)"
    proc = subprocess.run([sys.executable, "-c", warn], capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and "DeprecationWarning: old" in proc.stderr
