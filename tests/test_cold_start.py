"""Smoke test of tools/cold_start.py: one round of a tree against itself
prints one line per case, each with both trees' median and quartiles, their
median CPU time and peak RSS and the new tree's wins."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "cold_start.py"
RUN = r"\d+\.\d ms \(\d+\.\d-\d+\.\d\), \d+\.\d ms CPU, \d+\.\d MB"


def run_tool(*args, timeout=300):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=timeout, check=False)


def assert_lines(proc, cases):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(cases)
    for line, case in zip(lines, cases):
        assert re.fullmatch(rf"{re.escape(case)}: old {RUN}, new {RUN}; "
                            r"new faster in [01] of 1", line), line


def test_one_round_against_itself():
    assert_lines(run_tool(ROOT, ROOT, "--rounds", "1"),
                 ['spectrum {"n": 6}', 'observables {"n": 3}', 'validate {"n": 5}'])


def test_cases_replace_the_workloads():
    # each --case runs in the order given, its config written back as JSON
    assert_lines(run_tool(ROOT, ROOT, "--rounds", "1", "--case", "validate", '{"n":2}',
                          "--case", "spectrum", '{"n": 3, "kappa": [0.8, -0.3]}'),
                 ['validate {"n": 2}', 'spectrum {"n": 3, "kappa": [0.8, -0.3]}'])


def test_refuses_a_bad_case():
    for case, message in ((["spectra", "{}"], "command 'spectra' is not one of"),
                          (["spectrum", "{n: 3}"], "config '{n: 3}' is not JSON")):
        proc = run_tool(ROOT, ROOT, "--case", *case, timeout=60)
        assert proc.returncode == 2
        assert message in proc.stderr


def test_refuses_a_root_without_the_package(tmp_path):
    proc = run_tool(ROOT, tmp_path, timeout=60)
    assert proc.returncode == 2
    assert f"no sovxxz source under {tmp_path}" in proc.stderr
