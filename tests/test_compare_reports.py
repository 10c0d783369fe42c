"""Smoke test of tools/compare_reports.py: a tree matches itself, and a tree
whose reports differ is listed as a mismatch."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_reports.py"


def compare(old, new, *cases):
    args = [sys.executable, str(TOOL), str(old), str(new)]
    for case in cases:
        args += ["--case", *case]
    return subprocess.run(args, capture_output=True, text=True, check=False)


def test_working_tree_matches_itself():
    proc = compare(ROOT, ROOT, ("spectrum", '{"n": 2}', "1-2"),
                   ("observables", '{"n": 2}', "1-2"), ("validate", '{"n": 2}', "1-2"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "6 runs compared, 0 mismatched"


def test_differing_report_is_a_mismatch(tmp_path):
    fake = tmp_path / "src" / "sovxxz"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")
    (fake / "cli.py").write_text(
        "import sys\n"
        "args = sys.argv[1:]\n"
        "open(args[args.index('--out') + 1], 'w').write('{}\\n')\n")
    proc = compare(ROOT, tmp_path, ("spectrum", '{"n": 2}', "1"))
    assert proc.returncode == 1
    assert proc.stdout.startswith("MISMATCH spectrum {\"n\": 2} --seed 1: reports differ")
    assert proc.stdout.splitlines()[-1] == "1 runs compared, 1 mismatched"
