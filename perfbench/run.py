#!/usr/bin/env python3
"""Benchmark of the three ``sovxxz`` CLI commands, run in process.

    python3 perfbench/run.py --workload spectrum-n6 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` there, never from an installed copy.  Each workload is a closed
loop of one client: one op at a time, each op one ``sovxxz.cli.main([...])``
call.  Op ``i`` uses seed ``base + i``; the seeds are consecutive and not
filtered, and no two ops of a run share one, because ``sov._cached_basis``
would hand a repeated seed a free SoV basis that a CLI user never gets.
A run makes a fixed number of ops, ``--seconds`` over the workload's nominal
op time, so the same seed gives the same ops and the same failed ops however
fast the machine is.

``--trace 0`` times the ops untraced and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced ops (see ``spans.py``) and prints
the per-layer metrics.  Each op is judged ok or failed from its report flags
(see ``outcome.py``).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the environment, the op counts and the raw timings.

End-to-end metrics:

- ``setup_s``: cold ``import sovxxz.cli`` + ``load_config`` in a fresh
  interpreter, in seconds at a fixed nominal speed: each of ``SETUP_REPEATS``
  repeats is divided by the time the same interpreter then takes to import a
  fixed set of standard-library modules, and the median ratio is multiplied
  by ``REFERENCE_IMPORT_S``;
- ``op_p50_ref``: median over the run's ok ops of each op's wall time in
  units of the ``ReferenceClock`` time taken around that op;
- ``ops_ok_per_ref``: ok ops per reference unit of summed op wall time, each
  op's time in units of its own reference time, so a
  failed op counts as wasted time;
- ``margin_decades``: median of log10(tolerance / residual) over every
  residual a certifying flag gates, in ok ops;
- ``peak_rss_mb``: peak resident memory of the run's process.

No tail percentile is given: a run holds far fewer than the 100 ops that
would put ten samples beyond p90.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from outcome import PM_EQUALITY, classify
from spans import COUNTS, SPANS, Tracer, metric_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# Why each workload: see BENCHMARK.json.  Each maps to its command, its config
# and its nominal op time: the median op wall time on a 2-vCPU Xeon VM
# (2.0 GHz), which sets the ops per run.  N = 6 is the largest chain that
# mostly certifies.  Observables runs at N = 3 (~1.2 s per op, 70% of it in
# the form factors): at N = 4 (~11 s per op) a run holds only 2-3 ops, and the
# median of so few swung by 36% between runs on a shared 2-core machine.
# Validate runs at N = 5 (~0.65 s per op): at N = 6 (~2.2 s per op, ~13% of
# seeds failing) a run held ~15 ops, and which of them failed moved the run's
# ok-op throughput by up to 24% between runs.
WORKLOADS = {
    "spectrum-n6": ("spectrum", {"n": 6}, 1.25),
    "observables-n3": ("observables", {"n": 3}, 0.95),
    "validate-n5": ("validate", {"n": 5}, 0.8),
}

# Seeds of one run are base .. base + ops - 1 with base = 1 + seed * SEED_STRIDE;
# the warm-up op takes base - 1, outside that range.
SEED_STRIDE = 100_000
SETUP_REPEATS = 15
# Median time of the reference imports below on a 2-vCPU Xeon VM (2.0 GHz),
# so that setup_s reads as seconds on that machine.  Raw cold-import medians
# of a run swung 0.14-0.25 s with the load on the machine; the ratio to the
# reference imports, timed in the same interpreter, moved by ~5%.
REFERENCE_IMPORT_S = 0.05
# A run stops early, with fewer ops, only if its ops take this long, so that
# it ends inside 180 s even on a machine three times slower than nominal.
LOOP_CAP_S = 120.0
# One BLAS thread: on these <= 256 x 256 matrices a second thread mostly spins,
# which on 2 cores cost spectrum-n6 ~40% more wall time and made the run
# hostage to any other load on the machine.
BLAS_THREADS = 1

# Cold import of the CLI plus config loading, timed inside a fresh interpreter,
# then the reference: standard-library modules that neither sovxxz nor numpy
# import, so they load cold after the set-up as well.
SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sovxxz.cli
from sovxxz.config import load_config
load_config(sys.argv[2])
setup = time.perf_counter() - start
start = time.perf_counter()
import configparser, csv, difflib, email.parser, html.parser, http.client
import plistlib, sqlite3, tarfile, xml.dom.minidom
print(repr(setup), repr(time.perf_counter() - start))
"""


class ReferenceClock:
    """Times a fixed piece of work that does not touch sovxxz.

    On a shared 2-vCPU VM (Xeon, 2.0 GHz) the same code ran at speeds up to
    2x apart within seconds and 20-30% apart between runs minutes apart, so
    the raw op times of ten runs spread by a third.  So each op's time is
    given in units of this work's time, taken just before and after that op,
    which cancels most of that drift; raw seconds are on the info line.  The
    mix resembles the ops: 256 x 256 matrix products (~10 ms), small
    determinants (~5 ms) and scalar complex ``sinh`` products (~20 ms).  The
    scalar part runs last, after the matrix products, as it does in the ops:
    with numpy's default AVX-512 OpenBLAS kernels, scalar ``cmath`` code ran
    up to 4x slower after a complex matrix product than before one.
    """

    def __init__(self):
        import numpy

        self._det = numpy.linalg.det
        self._small = numpy.eye(48, dtype=numpy.complex128) + 0.01
        rng = numpy.random.default_rng(0)
        self._large = (rng.standard_normal((256, 256))
                       + 1j * rng.standard_normal((256, 256))) / 16

    def __call__(self) -> float:
        start = time.perf_counter()
        acc = 0j
        for _ in range(4):
            acc += (self._large @ self._large)[0, 0]
        for _ in range(60):
            acc += self._det(self._small @ self._small)
        for i in range(12000):
            z = complex(i * 1e-4, 0.3)
            acc += cmath.sinh(z) * cmath.cosh(z - 0.1)
        return time.perf_counter() - start


def declared_units(kind: str) -> dict[str, str]:
    """The ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json, with their units."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[kind]}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the tracer and ``per_layer`` produce, with its unit."""
    units = {}
    for module, qualname in SPANS:
        name = metric_name(module, qualname)
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
    for module, qualname in COUNTS:
        units[f"{metric_name(module, qualname)}.calls"] = "count"
    units.update({
        "spectrum.certified_ratio": "ratio",
        "cli.report_bytes": "bytes",
        "trace.overhead_share": "ratio",
        "failed_share": "ratio",
        "margin_min_decades": "decades",
    })
    return units


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout, or None where it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def measure_setup(config_path: Path) -> list[tuple[float, float]]:
    """(set-up seconds, reference-import seconds) of each fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(config_path)],
                              capture_output=True, text=True, timeout=60, check=True)
        setup, reference = done.stdout.strip().splitlines()[-1].split()
        times.append((float(setup), float(reference)))
    return times


def setup_seconds(setup_times: list[tuple[float, float]]) -> float:
    return REFERENCE_IMPORT_S * statistics.median(s / r for s, r in setup_times)


class Runner:
    """Runs one workload's ops and keeps what each produced."""

    def __init__(self, command: str, config_path: Path, out_path: Path):
        import sovxxz.cli
        from sovxxz.config import DEFAULT_TOLERANCES

        self.main = sovxxz.cli.main
        self.reference = ReferenceClock()
        self.tolerances = dict(DEFAULT_TOLERANCES)
        self.command = command
        self.config_path = config_path
        self.out_path = out_path

    def op(self, seed: int, tracer: Tracer | None = None, op_id: int = 0) -> dict:
        """Run one op; return its wall time, outcome and report size."""
        if self.out_path.exists():
            self.out_path.unlink()
        args = [self.command, "--config", str(self.config_path), "--seed", str(seed),
                "--out", str(self.out_path)]
        code, error = None, None
        stderr = io.StringIO()
        ref_before = self.reference()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                code = tracer.run_op(op_id, lambda: self.main(args)) if tracer \
                    else self.main(args)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            error = exc
        wall = time.perf_counter() - start
        ref = (ref_before + self.reference()) / 2
        report, size = None, 0
        if error is None and code != 2 and self.out_path.exists():
            size = self.out_path.stat().st_size
            report = json.loads(self.out_path.read_text(encoding="utf-8"))
        outcome = classify(code, report, self.tolerances, error)
        if stderr.getvalue().strip():
            outcome.reason += f" [{stderr.getvalue().strip()}]"
        return {"seed": seed, "wall": wall, "ref": ref, "outcome": outcome, "bytes": size,
                "traced": tracer is not None}


def ops_per_run(seconds: float, op_s: float) -> int:
    """Ops that fill ``seconds`` at the nominal op time: at least two, one per mode."""
    return max(2, round(seconds / op_s))


def closed_loop(count: int, base: int, run_one) -> list[dict]:
    """Run ``count`` ops back to back, or fewer if they reach ``LOOP_CAP_S``."""
    ops: list[dict] = []
    start = time.perf_counter()
    while len(ops) < count and time.perf_counter() - start < LOOP_CAP_S:
        ops.append(run_one(len(ops), base + len(ops)))
    return ops


def oks(ops, traced=None) -> list[dict]:
    return [o for o in ops if o["outcome"].ok and (traced is None or o["traced"] == traced)]


def timings(ops: list[dict]) -> dict[str, float]:
    """Op times in seconds and in reference units; failed ops count as wasted time."""
    good = oks(ops)
    return {"op_p50_s": statistics.median(o["wall"] for o in good),
            "ops_ok_per_s": len(good) / sum(o["wall"] for o in ops),
            "ref_p50_s": statistics.median(o["ref"] for o in ops),
            "op_p50_ref": statistics.median(o["wall"] / o["ref"] for o in good),
            "ops_ok_per_ref": len(good) / sum(o["wall"] / o["ref"] for o in ops)}


def end_to_end(ops: list[dict], setup_times: list[tuple[float, float]]) -> dict[str, float]:
    margins = [m for o in oks(ops) for m in o["outcome"].margins]
    return {
        "setup_s": setup_seconds(setup_times),
        **timings(ops),
        "margin_decades": statistics.median(margins),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(ops: list[dict], stats: dict[int, dict], counts: dict[int, dict]) -> dict:
    traced_ok = oks(ops, traced=True)
    n = len(traced_ok)
    values: dict[str, float] = {name: 0.0 for name in per_layer_units()}
    for o in traced_ok:
        for name, entry in stats[o["op_id"]].items():
            for stat in ("calls", "busy_s", "self_s"):
                key = f"{name}.{stat}"
                if key in values:
                    values[key] += entry[stat] / n
        for name, calls in counts[o["op_id"]].items():
            values[f"{name}.calls"] += calls / n
    certify_calls = certify_raised = 0
    for o in ops:
        if o["traced"]:
            entry = stats[o["op_id"]].get("spectrum.certify", {})
            certify_calls += entry.get("calls", 0)
            certify_raised += entry.get("raised", 0)
    if certify_calls:
        values["spectrum.certified_ratio"] = (certify_calls - certify_raised) / certify_calls
    values["cli.report_bytes"] = statistics.mean(o["bytes"] for o in traced_ok)
    values["trace.overhead_share"] = (
        statistics.median(o["wall"] for o in traced_ok)
        / statistics.median(o["wall"] for o in oks(ops, traced=False)) - 1.0)
    values["failed_share"] = sum(not o["outcome"].ok for o in ops) / len(ops)
    values["margin_min_decades"] = min(m for o in oks(ops) for m in o["outcome"].margins)
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sovxxz" / "cli.py").is_file():
        print(f"error: no sovxxz source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # Cap BLAS threads before numpy is first imported, here or in a child.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    command, config, op_s = WORKLOADS[args.workload]
    count = ops_per_run(args.seconds, op_s)
    base = 1 + args.seed * SEED_STRIDE
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        setup_times = [] if args.trace else measure_setup(config_path)
        runner = Runner(command, config_path, work / "report.json")
        warmup = runner.op(base - 1)

        if args.trace:
            tracer = Tracer()
            stats: dict[int, dict] = {}
            counts: dict[int, dict] = {}

            def run_one(i, seed):
                if i % 2 == 0:
                    return runner.op(seed)
                tracer.install()
                try:
                    result = runner.op(seed, tracer, op_id=i)
                finally:
                    tracer.uninstall()
                stats[i] = tracer.op_stats(i)
                counts[i] = tracer.take_counts()
                result["op_id"] = i
                return result

            ops = closed_loop(count, base, run_one)
            tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
            ready = bool(oks(ops, True) and oks(ops, False))
        else:
            ops = closed_loop(count, base, lambda i, seed: runner.op(seed))
            ready = bool(oks(ops))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    import numpy

    failed = [o for o in ops if not o["outcome"].ok]
    inconsistent = [o for o in ops + [warmup] if not o["outcome"].consistent]
    pm = [o["outcome"].pm_equality for o in ops if o["outcome"].pm_equality]
    info = {
        "workload": args.workload, "command": command, "config": config,
        "seed": args.seed, "seeds": [base, base + len(ops) - 1], "warmup_seed": base - 1,
        "trace": args.trace, "ops_planned": count, "ops_attempted": len(ops),
        "ops_ok": len(ops) - len(failed),
        "failures": {str(o["seed"]): o["outcome"].reason for o in failed},
        "inconsistent": {str(o["seed"]): o["outcome"].reason for o in inconsistent},
        PM_EQUALITY: {"ops": len(pm), "failed": sum(not p["pass"] for p in pm),
                      "max_residual": max((p["residual"] for p in pm), default=None)},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(), "source_sha256": source_digest(),
    }
    if args.trace:
        info["absent"] = tracer.absent
        info["wrapped_at"] = tracer.sites
    if ready:
        info["timings"] = timings(ops)
    if setup_times:
        info["setup_raw_p50_s"] = statistics.median(s for s, _ in setup_times)
        info["setup_reference_p50_s"] = statistics.median(r for _, r in setup_times)
    print(json.dumps({"info": info}, sort_keys=True))
    if not ready:
        print("error: no successful op in one of the run's modes; nothing to report",
              file=sys.stderr)
        return 1

    if args.trace:
        values = per_layer(ops, stats, counts)
        units = declared_units("per_layer")
    else:
        values = end_to_end(ops, setup_times)
        units = declared_units("end_to_end")
    result = {
        "correct": not inconsistent,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
