#!/usr/bin/env python3
"""Time one cold CLI run per command in two sovxxz source checkouts.

    python3 tools/cold_start.py OLD_ROOT NEW_ROOT [--rounds R]

OLD_ROOT and NEW_ROOT are checkout roots; each run imports the package from
that root's ``src/``.  Each round runs the command of every workload of
``perfbench/run.py`` at its config (spectrum n = 6, observables n = 3,
validate n = 5) once per tree, each in a fresh ``python -c`` process with the
benchmark's one BLAS thread, which times ``import sovxxz.cli`` plus one
``main([...])`` writing its report to a temporary directory.  Round r runs
seed r in both trees, and which tree runs first alternates from round to
round.  For each command the tool prints each tree's median and quartiles in
ms, and in how many rounds the new tree was faster (ties count for neither).

This is what a user waits for in one CLI run, interpreter start aside: the
import, with its compile where bytecode is not cached, and the op.  The
benchmark's ``setup_s`` times the import alone, so it also falls when a
module's import only moves into the first op that needs it.  The processes
inherit the environment: with ``PYTHONDONTWRITEBYTECODE`` set and no
``__pycache__`` in either tree, every run compiles each module it imports.
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

CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sovxxz.cli
sovxxz.cli.main(sys.argv[2:])
print(repr(time.perf_counter() - start))
"""


def cold_run(root: Path, args: list[str], env: dict[str, str]) -> float:
    """Seconds of ``import sovxxz.cli`` plus ``main(args)`` in a fresh process."""
    done = subprocess.run([sys.executable, "-c", CODE, str(root / "src"), *args],
                          capture_output=True, text=True, env=env, timeout=600, check=True)
    return float(done.stdout.splitlines()[-1])


def summary(times: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(times, n=4, method="inclusive") \
        if len(times) > 1 else times * 3
    return f"{q2 * 1e3:.1f} ms ({q1 * 1e3:.1f}-{q3 * 1e3:.1f})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="root of the old checkout")
    parser.add_argument("new", type=Path, help="root of the new checkout")
    parser.add_argument("--rounds", type=int, default=12)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    for root in (args.old, args.new):
        if not (root / "src" / "sovxxz" / "cli.py").is_file():
            parser.error(f"no sovxxz source under {root}")
    env = {**os.environ, **{var: str(BLAS_THREADS) for var in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    with tempfile.TemporaryDirectory(prefix="cold-start-") as work:
        for command, config, _ in WORKLOADS.values():
            config_path = Path(work) / "config.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            old, new = [], []
            for r in range(1, args.rounds + 1):
                run_args = [command, "--config", str(config_path), "--seed", str(r),
                            "--out", str(Path(work) / "report.json")]
                trees = ((args.old, old), (args.new, new))
                for root, times in trees if r % 2 else trees[::-1]:
                    times.append(cold_run(root, run_args, env))
            wins = sum(n < o for o, n in zip(old, new))
            print(f"{command} {json.dumps(config)}: old {summary(old)}, new {summary(new)}; "
                  f"new faster in {wins} of {args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
