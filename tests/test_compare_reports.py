"""Smoke test of tools/compare_reports.py: a tree matches itself, a tree
whose reports differ is listed as a mismatch that names the differing leaf
values, and reports are compared in canonical form (indentation alone
matches, the sign of a zero does not); each case gets a summary line of ok
runs and margins per tree, naming the seed and the residual that hold the
minimum margin."""

import importlib
import json
import re
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
    lines = proc.stdout.splitlines()
    assert lines[-1] == "6 runs compared, 0 mismatched"
    assert len(lines) == 4
    for line, command in zip(lines, ("spectrum", "observables", "validate")):
        head = f'CASE {command} {{"n": 2}} 1-2: '
        assert line.startswith(head)
        old, new = line[len(head):].split("; ")
        # observables exits 1 on pm_equality by design and still counts as ok
        assert re.fullmatch(r"old 2/2 ok, margin median \d+\.\d\d min -?\d+\.\d\d "
                            r"\(seed [12], \S+\)", old)
        assert new == "new" + old[len("old"):]


def fake_tree(root, report, tolerances=None):
    """A source tree whose CLI writes the text ``report``, with every "SEED"
    replaced by its ``--seed``, to its ``--out``."""
    fake = root / "src" / "sovxxz"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")
    (fake / "config.py").write_text(f"DEFAULT_TOLERANCES = {tolerances or {}!r}\n")
    (fake / "cli.py").write_text(
        "import sys\n"
        "args = sys.argv[1:]\n"
        f"text = {report!r}.replace('SEED', args[args.index('--seed') + 1])\n"
        "open(args[args.index('--out') + 1], 'w').write(text)\n")
    return root


def test_minimum_margin_names_its_seed_and_residual(tmp_path):
    # margins log10(1e-9 / 1e-1SEED) = SEED + 1 for the record and 4 for the
    # check: the minimum, 2.00, is seed 1's Bethe residual
    report = ('{"pass": true, "checks": {"x": {"pass": true, "residual": 1e-13, '
              '"tolerance": 1e-9}}, "records": [{"certified": true, '
              '"bethe_residual": 1e-1SEED}]}')
    tree = fake_tree(tmp_path, report, {"bethe_residual": 1e-9})
    proc = compare(tree, tree, ("spectrum", '{"n": 2}', "1-2"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = "2/2 ok, margin median 3.50 min 2.00 (seed 1, records[0].bethe_residual)"
    assert proc.stdout.splitlines()[0] == \
        f'CASE spectrum {{"n": 2}} 1-2: old {summary}; new {summary}'


def test_minimum_margin_reads_sections_and_skips_pm_equality(tmp_path):
    # the form-factor check gates every deviation of its section: margins
    # log10(1e-8 / 1e-1SEED) = SEED + 2, so seed 1's deviation holds the
    # minimum, 3.00; pm_equality's margin, 1.00, is never counted
    report = ('{"pass": true, "checks": {"x": {"pass": true, "residual": 1e-13, '
              '"tolerance": 1e-9}, "form_factors": {"pass": true, "residual": 1e-12, '
              '"tolerance": 1e-8}, "pm_equality": {"pass": true, "residual": 1e-3, '
              '"tolerance": 1e-2}}, "form_factors": {"P0_Q1_site1": {"z": '
              '{"deviation": 1e-1SEED}}}}')
    tree = fake_tree(tmp_path, report)
    proc = compare(tree, tree, ("observables", '{"n": 2}', "1-2"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = ("2/2 ok, margin median 4.00 min 3.00 "
               "(seed 1, form_factors.P0_Q1_site1.z.deviation)")
    assert proc.stdout.splitlines()[0] == \
        f'CASE observables {{"n": 2}} 1-2: old {summary}; new {summary}'


def test_differing_report_is_a_mismatch(tmp_path):
    proc = compare(ROOT, fake_tree(tmp_path, "{}\n"), ("spectrum", '{"n": 2}', "1"))
    assert proc.returncode == 1
    assert proc.stdout.startswith("MISMATCH spectrum {\"n\": 2} --seed 1: reports differ")
    assert proc.stdout.splitlines()[-2].endswith("; new 0/1 ok")
    assert proc.stdout.splitlines()[-1] == "1 runs compared, 1 mismatched"


def test_indentation_alone_matches(tmp_path):
    old = fake_tree(tmp_path / "old", '{\n  "a": 1,\n  "b": [\n    1.5,\n    0.0\n  ]\n}\n')
    new = fake_tree(tmp_path / "new", '{"a":1,"b":[1.5,0.0]}\n')
    proc = compare(old, new, ("spectrum", '{"n": 2}', "1"))
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.splitlines()[-1] == "1 runs compared, 0 mismatched"


def test_mismatch_names_its_leaves(tmp_path):
    # four leaves differ, one only by the sign of a zero; the fields they
    # belong to are named once each, list indices folded to [] and pair or
    # site keys to *, and then the first leaf in canonical (sorted-key) order
    old = fake_tree(tmp_path / "old", '{"z": 1, "records": [{"w": 1e-15, "b": 0.0}, '
                                      '{"w": 2.0}], "ff": {"P3_Q5_site2": {"z": 1.0}, '
                                      '"P4_Q1_site1": {"z": 1.0}}}')
    new = fake_tree(tmp_path / "new", '{"z": 1, "records": [{"w": 1e-15, "b": -0.0}, '
                                      '{"w": 3.0}], "ff": {"P3_Q5_site2": {"z": 2.0}, '
                                      '"P4_Q1_site1": {"z": 1.0}}}')
    proc = compare(old, new, ("spectrum", '{"n": 2}', "1"))
    assert proc.returncode == 1
    line = proc.stdout.splitlines()[0]
    assert re.fullmatch(r'MISMATCH spectrum \{"n": 2\} --seed 1: reports differ from byte \d+ '
                        r"\(\d+ vs \d+ bytes\) in 3 leaf values of ff\.\*\.z, records\[\]\.b, "
                        r"records\[\]\.w, first ff\.P3_Q5_site2\.z", line)


def test_each_run_has_the_benchmarks_blas_thread_count(tmp_path, monkeypatch):
    # the old tree's CLI writes the BLAS thread variables it sees, the new
    # tree's the values of perfbench/run.py's count; a count inherited from
    # the caller must not reach a run
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    threads = str(importlib.import_module("run").BLAS_THREADS)
    variables = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    old = fake_tree(tmp_path / "old", "")
    (old / "src" / "sovxxz" / "cli.py").write_text(
        "import json, os, sys\n"
        "args = sys.argv[1:]\n"
        f"text = json.dumps({{v: os.environ.get(v) for v in {variables!r}}})\n"
        "open(args[args.index('--out') + 1], 'w').write(text)\n")
    new = fake_tree(tmp_path / "new", json.dumps(dict.fromkeys(variables, threads)))
    for var in variables:
        monkeypatch.setenv(var, threads + "7")
    proc = compare(old, new, ("spectrum", '{"n": 2}', "1"))
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.splitlines()[-1] == "1 runs compared, 0 mismatched"


def test_sign_of_a_zero_is_a_mismatch(tmp_path):
    old = fake_tree(tmp_path / "old", '{"a":1,"b":[1.5,0.0]}\n')
    new = fake_tree(tmp_path / "new", '{"a":1,"b":[1.5,-0.0]}\n')
    proc = compare(old, new, ("spectrum", '{"n": 2}', "1"))
    assert proc.returncode == 1
    assert proc.stdout.startswith("MISMATCH spectrum {\"n\": 2} --seed 1: reports differ")
    assert proc.stdout.splitlines()[-1] == "1 runs compared, 1 mismatched"
