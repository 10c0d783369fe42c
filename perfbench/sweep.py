#!/usr/bin/env python3
"""Run the benchmark over several seeds and workloads; print and save a table.

    python3 perfbench/sweep.py --seeds 10 --out perfbench/results/BENCH_<date>.json

Each run is a fresh ``run.py`` process, on seeds 1 .. ``--seeds`` for every
workload of ``BENCHMARK.json``.  For every end-to-end metric the table gives
the median of the untraced runs and their spread, the distance between the
first and third quartile as a share of the median, next to the metric's
bound.  One traced run per workload, on seed 1, adds the per-layer metrics,
which are saved with the rest.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stdout}\n{done.stderr}")
    return {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
            "info": json.loads(lines[-2])["info"], "result": json.loads(lines[-1])}


def summarize(bench: dict, runs: list[dict]) -> dict:
    table = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        timed = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        if not timed:
            continue
        rows = {}
        for metric in bench["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in timed]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
                else (values[0], None, values[0])
            rows[metric["name"]] = {"unit": metric["unit"], "median": median,
                                    "q1": q1, "q3": q3,
                                    "spread": (q3 - q1) / abs(median),
                                    "bound": metric["bound"], "runs": len(values)}
        table[workload] = {
            "metrics": rows,
            "attempted": sum(r["result"]["attempted"] for r in timed),
            "failed": sum(r["result"]["failed"] for r in timed),
            "correct": all(r["result"]["correct"] for r in timed),
        }
    return table


def print_table(table: dict) -> None:
    for workload, entry in table.items():
        print(f"\n{workload}: {entry['attempted']} ops attempted, {entry['failed']} failed, "
              f"correct={entry['correct']}")
        print(f"  {'metric':<16}{'unit':<9}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}")
        for name, row in entry["metrics"].items():
            flag = "" if row["spread"] < row["bound"] / 3 else "  > bound/3"
            print(f"  {name:<16}{row['unit']:<9}{row['median']:>12.5g}{row['q1']:>12.5g}"
                  f"{row['q3']:>12.5g}{row['spread']:>9.3f}{row['bound']:>7.2f}{flag}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="untraced runs per workload")
    parser.add_argument("--out", default=None, help="JSON file for every run and the table")
    args = parser.parse_args(argv)

    runs = []
    # seeds outermost, so slow drift of the machine touches every workload alike
    for seed in range(1, args.seeds + 1):
        for workload in workloads:
            runs.append(run_once(bench, workload, seed, 0))
            print(f"{workload} seed {seed}: {json.dumps(runs[-1]['result'])}", flush=True)
    for workload in workloads:
        runs.append(run_once(bench, workload, 1, 1))
        print(f"{workload} seed 1 traced: attempted {runs[-1]['result']['attempted']}",
              flush=True)

    table = summarize(bench, runs)
    print_table(table)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(
            {"run_seconds": bench["run_seconds"], "table": table, "runs": runs},
            indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
