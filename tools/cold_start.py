#!/usr/bin/env python3
"""Time one cold CLI run per case in two sovxxz checkouts, with its CPU time and peak RSS.

    python3 tools/cold_start.py OLD_ROOT NEW_ROOT [--rounds R]
    python3 tools/cold_start.py OLD_ROOT NEW_ROOT --case spectrum '{"n": 8}' --case validate '{"n": 8}'

OLD_ROOT and NEW_ROOT are checkout roots; each run imports the package from
that root's ``src/``.  Each round runs every case once per tree, each in a
fresh ``python -c`` process with the benchmark's one BLAS thread, which times
``import sovxxz.cli`` plus one ``main([...])`` writing its report to a
temporary directory, in wall time and in the CPU time of all the process's
threads (``time.process_time``), and reads the process's peak RSS
(``ru_maxrss``) after it.  ``--case COMMAND CONFIG`` (repeatable) names a command and its JSON
config; without it, the cases are the command of every workload of
``perfbench/run.py`` at its config (spectrum n = 6, observables n = 3,
validate n = 5).  Round r runs seed r in both trees, and which tree runs first
alternates from round to round.  For each case the tool prints each tree's
median wall time and quartiles in ms, its median CPU time in ms and its
median peak RSS in MB, and in how many rounds the new tree was faster in wall
time (ties count for neither).  CPU time above wall time shows threads that
ran at once; CPU time near wall time with a second thread started shows that
it overlapped nothing.

This is what a user waits for in one CLI run, interpreter start aside: the
import, with its compile where bytecode is not cached, and the op.  The
benchmark's ``setup_s`` times the import alone, so it also falls when a
module's import only moves into the first op that needs it.  The processes
inherit the environment: with ``PYTHONDONTWRITEBYTECODE`` set and no
``__pycache__`` in either tree, every run compiles each module it imports.

The peak RSS of an N = 8 op depends on the directory its source tree lies in,
not only on the code: the same files read about 98 MB from one directory and
103 MB from another (the FOUND line on bimodal N = 8 peak RSS in CHANGES.md).
So compare peak RSS across trees from one path: put each tree in turn at the
same path and give that path as both roots.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import BLAS_THREADS, WORKLOADS  # noqa: E402

COMMANDS = ("validate", "spectrum", "observables")

CODE = """\
import resource, sys, time
start, cpu = time.perf_counter(), time.process_time()
sys.path.insert(0, sys.argv[1])
import sovxxz.cli
sovxxz.cli.main(sys.argv[2:])
print(repr(time.perf_counter() - start), repr(time.process_time() - cpu),
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def cold_run(root: Path, args: list[str], env: dict[str, str]) -> tuple[float, float, float]:
    """Wall and CPU seconds of ``import sovxxz.cli`` plus ``main(args)`` in a
    fresh process, and that process's peak RSS in MB."""
    done = subprocess.run([sys.executable, "-c", CODE, str(root / "src"), *args],
                          capture_output=True, text=True, env=env, timeout=600, check=True)
    seconds, cpu_seconds, peak_kb = done.stdout.splitlines()[-1].split()
    return float(seconds), float(cpu_seconds), int(peak_kb) / 1024


def summary(runs: list[tuple[float, float, float]]) -> str:
    times = [seconds for seconds, _, _ in runs]
    q1, q2, q3 = statistics.quantiles(times, n=4, method="inclusive") \
        if len(times) > 1 else times * 3
    cpu = statistics.median(cpu_seconds for _, cpu_seconds, _ in runs)
    peak = statistics.median(mb for _, _, mb in runs)
    return (f"{q2 * 1e3:.1f} ms ({q1 * 1e3:.1f}-{q3 * 1e3:.1f}), {cpu * 1e3:.1f} ms CPU, "
            f"{peak:.1f} MB")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="root of the old checkout")
    parser.add_argument("new", type=Path, help="root of the new checkout")
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--case", nargs=2, action="append", metavar=("COMMAND", "CONFIG"),
                        help="a command and its JSON config (repeatable; default: the "
                             "benchmark's workloads)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    for root in (args.old, args.new):
        if not (root / "src" / "sovxxz" / "cli.py").is_file():
            parser.error(f"no sovxxz source under {root}")
    cases = []
    for command, config in args.case or [(c, json.dumps(cfg)) for c, cfg, _ in WORKLOADS.values()]:
        if command not in COMMANDS:
            parser.error(f"command {command!r} is not one of {', '.join(COMMANDS)}")
        try:
            cases.append((command, json.dumps(json.loads(config))))
        except json.JSONDecodeError as exc:
            parser.error(f"config {config!r} is not JSON: {exc.msg}")
    env = {**os.environ, **{var: str(BLAS_THREADS) for var in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    with tempfile.TemporaryDirectory(prefix="cold-start-") as work:
        for command, config in cases:
            config_path = Path(work) / "config.json"
            config_path.write_text(config, encoding="utf-8")
            old, new = [], []
            for r in range(1, args.rounds + 1):
                run_args = [command, "--config", str(config_path), "--seed", str(r),
                            "--out", str(Path(work) / "report.json")]
                trees = ((args.old, old), (args.new, new))
                for root, runs in trees if r % 2 else trees[::-1]:
                    runs.append(cold_run(root, run_args, env))
            wins = sum(n[0] < o[0] for o, n in zip(old, new))
            print(f"{command} {config}: old {summary(old)}, new {summary(new)}; "
                  f"new faster in {wins} of {args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
