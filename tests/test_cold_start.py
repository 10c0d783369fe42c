"""Smoke test of tools/cold_start.py: one round of a tree against itself
prints one line per command, each with both trees' median and quartiles and
the new tree's wins."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "cold_start.py"


def test_one_round_against_itself():
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--rounds", "1"],
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    times = r"\d+\.\d ms \(\d+\.\d-\d+\.\d\)"
    for line, case in zip(lines, ('spectrum {"n": 6}', 'observables {"n": 3}',
                                  'validate {"n": 5}')):
        assert re.fullmatch(rf"{re.escape(case)}: old {times}, new {times}; "
                            r"new faster in [01] of 1", line), line


def test_refuses_a_root_without_the_package(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(tmp_path)],
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 2
    assert f"no sovxxz source under {tmp_path}" in proc.stderr
