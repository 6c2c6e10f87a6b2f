"""Each demo script runs to completion against the public API."""

import subprocess
import sys
from pathlib import Path

import pytest

import epolab

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_three_demos_found():
    assert len(DEMOS) == 3


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(script, tmp_path):
    src = str(Path(epolab.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, str(script)],
        env={"PYTHONPATH": src, "PATH": ""},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
