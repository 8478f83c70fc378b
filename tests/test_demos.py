"""Every demo script runs to completion against the current API."""

import glob
import os
import subprocess
import sys

import pytest

from conftest import cli_env

DEMOS = sorted(
    glob.glob(os.path.join(os.path.dirname(os.path.dirname(__file__)), "demos", "*.py"))
)


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, demo],
        cwd=tmp_path,
        env=cli_env("0"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert "Traceback" not in proc.stdout + proc.stderr
