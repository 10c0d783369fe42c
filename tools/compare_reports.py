#!/usr/bin/env python3
"""Compare the CLI outputs of two sovxxz source checkouts, run for run.

    python3 tools/compare_reports.py OLD_SRC NEW_SRC
    python3 tools/compare_reports.py OLD_SRC NEW_SRC --case spectrum '{"n": 6}' 1-20,100001-100026

OLD_SRC and NEW_SRC are checkout roots; each run imports the package from
that root's ``src/``.  Every (command, config, seed) runs once per tree, each
in a fresh ``python -m sovxxz.cli`` process with ``--out report.json`` in a
working directory of its own, so that no in-process cache carries over from
one run to the next and a message naming the report path reads the same in
both trees.  The canonical form of each report, the exit codes and the stderr
bytes are compared; each mismatch is listed, and the exit status is 1 if there
is any, else 0.  A report's canonical form is its decoded JSON written again
with sorted keys and no whitespace (its raw bytes where it does not decode),
so a change of indentation alone matches, while every float bit still counts,
the sign of a zero included.  Where both reports decode, a mismatch also
names how many leaf values differ, the fields they belong to (their paths
with list indices folded to ``[]`` and pair or site keys such as ``P3_Q5`` or
``P3_Q5_site2`` folded to ``*``, such as ``records[].wronskian_residual``) and
the report path of the first one in canonical order, such as
``records[3].wronskian_residual``.

A change that moves report bytes on purpose is judged by its residuals
instead, so each case also gets one summary line per tree: how many runs were
ok out of those attempted, and the pooled median and minimum of their margins
(log10 tolerance / residual), each run classified by ``perfbench/outcome.py``
against that tree's default tolerances, as the benchmark classifies its ops,
followed by the seed and the report path of the residual that hold the
minimum, such as ``(seed 100004, records[12].bethe_residual)``.

``--case COMMAND CONFIG SEEDS`` (repeatable) names a command, its JSON config
and a seed list such as ``1-20,100001-100026``; without it, the default cases
below are run.  Runs are compared in parallel, one per CPU this process may
use; each has its own working directory, so the order cannot change them.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from outcome import (  # noqa: E402
    PM_EQUALITY,
    RECORD_RESIDUALS,
    SECTION_RESIDUALS,
    Outcome,
    _margin,
    _walk,
    classify,
)
from run import BLAS_THREADS  # noqa: E402

BENCH_SEEDS = "1-20,100001-100026"
DEFAULT_CASES = (
    ("spectrum", '{"n": 6}', BENCH_SEEDS),
    ("observables", '{"n": 3}', BENCH_SEEDS),
    ("validate", '{"n": 5}', BENCH_SEEDS),
    ("spectrum", '{"n": 7}', "1-3"),
    ("spectrum", '{"n": 8}', "1-2"),
    ("observables", '{"n": 4}', "1-2"),
    ("observables", '{"n": 5}', "1-2"),
    ("observables", '{"n": 6}', "1"),
    ("validate", '{"n": 3}', "1-5"),
    ("observables", '{"n": 3, "kappa_prime": [1.0, 0.0]}', "1-3"),
    ("observables", '{"n": 3, "sites": [3, 1], "operators": ["z", "-"], '
                    '"representations": ["izergin", "tau_slavnov"]}', "1-3"),
    ("observables", '{"n": 3, "operators": ["+"], "representations": ["direct"]}', "1-3"),
    ("observables", '{"n": 3, "operators": ["z"]}', "1-2"),
    ("observables", '{"n": 2, "kappa": [0.8, -0.3]}', "1-3"),
    ("spectrum", '{"n": 5, "kappa": [0.8, -0.3]}', "1-4"),
    ("observables", '{"n": 3, "kappa": [-0.8, 0.3]}', "1-3"),
    ("spectrum", '{"n": 5, "kappa": [-0.8, 0.3]}', "1-2"),
    ("spectrum", '{"n": 1}', "1-10"),
    ("spectrum", '{"n": 2}', "1-10"),
    ("spectrum", '{"n": 6, "kappa": [0.8, -0.3], "kappa_prime": [1.0, 0.0]}', "1-3"),
    ("spectrum", '{"n": 7, "kappa_prime": [20.0, 0.0]}', "1-2"),
    ("spectrum", '{"n": 6, "tolerances": {"bethe_residual": 1e-30}}', "1-3"),
    ("validate", '{"n": 3, "sites": [1]}', "1-3"),
    ("validate", '{"n": 4, "sites": [3, 2]}', "1-2"),
    ("validate", '{"n": 4, "kappa": [0.8, -0.3]}', "1-3"),
    ("validate", '{"n": 8}', "1-8"),
    # refusing cases, so that stderr parity covers refusal messages: root-gate
    # refusals of records 4, 40 and 0 (ROADMAP item 15 is expected to turn
    # these into passes), and a certification refusal of record 0
    ("spectrum", '{"n": 7, "eta": [1.2, 0.9]}', "1-3"),
    ("spectrum", '{"n": 8, "eta": [0.8, 0.0]}', "2"),
)


def parse_seeds(text: str) -> list[int]:
    """``1-3,7`` -> [1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def tree_env(root: Path) -> dict:
    """The environment of a run from ``root``: its ``src/`` on the path and
    the benchmark's BLAS thread count, as ``perfbench/run.py`` sets it, since
    reports are byte-identical only at a fixed thread count."""
    return {**os.environ, "PYTHONPATH": str(root / "src"),
            **{var: str(BLAS_THREADS) for var in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def default_tolerances(root: Path) -> dict:
    """``sovxxz.config.DEFAULT_TOLERANCES`` of the tree at ``root``."""
    proc = subprocess.run(
        [sys.executable, "-c", "import json; from sovxxz.config import DEFAULT_TOLERANCES; "
                               "print(json.dumps(DEFAULT_TOLERANCES))"],
        env=tree_env(root), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def run_once(root: Path, command: str, config: Path, seed: int) -> tuple[bytes | None, int, bytes]:
    """(report bytes or None, exit code, stderr) of one CLI run from ``root``."""
    env = tree_env(root)
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run(
            [sys.executable, "-m", "sovxxz.cli", command, "--config", str(config),
             "--seed", str(seed), "--out", "report.json"],
            cwd=work, env=env, capture_output=True, check=False)
        report = Path(work, "report.json")
        data = report.read_bytes() if report.exists() else None
    return data, proc.returncode, proc.stderr


def canonical(report: bytes | None) -> bytes | None:
    """The report as compact JSON with sorted keys, or its raw bytes where it
    does not decode."""
    if report is None:
        return None
    try:
        decoded = json.loads(report)
    except ValueError:
        return report
    return json.dumps(decoded, sort_keys=True, separators=(",", ":")).encode()


def leaves(node, path: str = ""):
    """Yield (path, value) for every leaf of a decoded report in canonical
    order, an empty list or object counting as a leaf; paths read like
    ``records[3].wronskian_residual``."""
    if isinstance(node, dict) and node:
        for key in sorted(node):
            yield from leaves(node[key], f"{path}.{key}" if path else key)
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from leaves(value, f"{path}[{i}]")
    else:
        yield path, node


def differing_leaves(a, b) -> list[str]:
    """Paths of the leaves that differ between two decoded reports, or that
    only one of them has; values compare by their JSON text, so the sign of a
    zero counts."""
    old, new = dict(leaves(a)), dict(leaves(b))
    paths = list(old) + [p for p in new if p not in old]
    return [p for p in paths if p not in old or p not in new
            or json.dumps(old[p]) != json.dumps(new[p])]


def field(path: str) -> str:
    """The field a leaf path belongs to: ``path`` with each list index folded
    to ``[]`` and each pair or site key to ``*``, so that
    ``form_factors.P3_Q5_site2.z`` reads ``form_factors.*.z``."""
    path = re.sub(r"\[\d+\]", "[]", path)
    return re.sub(r"(?<![^.])P\d+_Q\d+(?:_site\d+)?(?![^.\[])", "*", path)


def first_difference(a: bytes | None, b: bytes | None) -> str:
    """What differs between two canonical reports."""
    if a is None or b is None:
        return "report written by one tree only"
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    text = f"reports differ from byte {at} ({len(a)} vs {len(b)} bytes)"
    try:
        paths = differing_leaves(json.loads(a), json.loads(b))
    except ValueError:
        return text
    fields = ", ".join(dict.fromkeys(field(p) or "(top level)" for p in paths))
    return f"{text} in {len(paths)} leaf values of {fields}, first {paths[0] or '(top level)'}"


def worst_residual(report: dict, tolerances: dict) -> tuple[float, str] | None:
    """The smallest margin among those ``classify`` counts, with the report
    path of the residual behind it, such as ``records[12].bethe_residual``."""
    margins = []
    for path, node in _walk(report):
        name = path.rsplit(".", 1)[-1]
        if path and name != PM_EQUALITY and {"pass", "residual", "tolerance"} <= node.keys():
            field_name, section = SECTION_RESIDUALS.get(name), report.get(name)
            if field_name and isinstance(section, dict) and section:
                margins += [(_margin(entry.get(field_name), node["tolerance"]),
                             f"{name}.{where}.{field_name}" if where else f"{name}.{field_name}")
                            for where, entry in _walk(section)]
            else:
                margins.append((_margin(node["residual"], node["tolerance"]), f"{path}.residual"))
        elif path and "certified" in node:
            margins += [(_margin(node.get(key), tolerances.get(tol)), f"{path}.{key}")
                        for key, tol in RECORD_RESIDUALS.items()]
    return min(((m, where) for m, where in margins if m is not None), default=None)


def outcome(report: bytes | None, code: int, tolerances: dict) -> tuple[Outcome, tuple | None]:
    """How ``classify`` judges one run, and its ``worst_residual`` if it is ok."""
    try:
        decoded = json.loads(report) if report is not None else None
    except ValueError:
        decoded = None
    judged = classify(code, decoded, tolerances)
    return judged, worst_residual(decoded, tolerances) if judged.ok else None


def summary(runs: list[tuple[int, Outcome, tuple | None]]) -> str:
    """``ok/attempted``, and the pooled median margin of the ok runs and
    their minimum, with the seed and the residual that hold it."""
    margins = [m for _, o, _ in runs for m in o.margins]
    text = f"{sum(o.ok for _, o, _ in runs)}/{len(runs)} ok"
    if margins:
        text += f", margin median {statistics.median(margins):.2f}"
    worst = min(((worst, seed) for seed, _, worst in runs if worst), default=None)
    if worst:
        (margin, where), seed = worst
        text += f" min {margin:.2f} (seed {seed}, {where})"
    return text


def compare(old: Path, new: Path, command: str, config: Path, seed: int,
            tolerances: tuple[dict, dict]) -> tuple[list[str], tuple[tuple, tuple]]:
    """Mismatches between the two trees' runs of one (command, config, seed),
    and the ``outcome`` of each run."""
    (rep_a, code_a, err_a), (rep_b, code_b, err_b) = (
        run_once(root, command, config, seed) for root in (old, new))
    problems = []
    canon_a, canon_b = canonical(rep_a), canonical(rep_b)
    if canon_a != canon_b:
        problems.append(first_difference(canon_a, canon_b))
    if code_a != code_b:
        problems.append(f"exit code {code_a} vs {code_b}")
    if err_a != err_b:
        problems.append(f"stderr differs: {err_a[-200:]!r} vs {err_b[-200:]!r}")
    return problems, (outcome(rep_a, code_a, tolerances[0]),
                      outcome(rep_b, code_b, tolerances[1]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="checkout root of the reference tree")
    parser.add_argument("new", type=Path, help="checkout root of the changed tree")
    parser.add_argument("--case", nargs=3, action="append", metavar=("COMMAND", "CONFIG", "SEEDS"),
                        help="command, JSON config and seed list (repeatable)")
    args = parser.parse_args(argv)
    for root in (args.old, args.new):
        if not (root / "src" / "sovxxz" / "cli.py").is_file():
            parser.error(f"{root} has no src/sovxxz/cli.py")
    cases = args.case or DEFAULT_CASES
    old, new = args.old.resolve(), args.new.resolve()
    tolerances = (default_tolerances(old), default_tolerances(new))
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for i, (command, config, seeds) in enumerate(cases):
            path = Path(tmp, f"config{i}.json")
            try:
                path.write_text(json.dumps(json.loads(config)))
            except json.JSONDecodeError as exc:
                parser.error(f"config {config!r} is not JSON: {exc.msg}")
            runs += [(i, command, config, path, seed) for seed in parse_seeds(seeds)]
        with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
            results = pool.map(lambda r: compare(old, new, r[1], r[3], r[4], tolerances), runs)
            mismatched = 0
            outcomes: dict[int, tuple[list, list]] = {}
            for (i, command, config, _, seed), (problems, pair) in zip(runs, results):
                for problem in problems:
                    print(f"MISMATCH {command} {config} --seed {seed}: {problem}")
                mismatched += bool(problems)
                for tree, judged in zip(outcomes.setdefault(i, ([], [])), pair):
                    tree.append((seed, *judged))
    for i, (command, config, seeds) in enumerate(cases):
        old_runs, new_runs = outcomes[i]
        print(f"CASE {command} {config} {seeds}: old {summary(old_runs)}; "
              f"new {summary(new_runs)}")
    print(f"{len(runs)} runs compared, {mismatched} mismatched")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
