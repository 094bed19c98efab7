"""gwcalc benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload counts --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src``.  ``--workload all`` runs the four workloads one after another.
Each run is a single-threaded closed loop: one client, the next op starts
when the previous one has returned.  With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
pass over a fixed set of sessions (``--seconds`` does not apply there).
Human-readable lines come first; the last stdout line is the JSON
result ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
nonzero, with no result printed, when the checkout holds no gwcalc source
or a worker fails.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# A run is split over this many worker processes, run one after another;
# each continues the cycle of sessions where the previous one stopped.
PARTS = 5
# Before each of them, this many more workers only set up, so setup_s is
# the median of PARTS * (1 + SETUP_PROBES) set-ups spread over the run.
SETUP_PROBES = 2
# Kernel runs timed just before and just after each set-up (speed.py).
SETUP_KERNEL_RUNS = 8
RUN_DEADLINE_S = 175

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_p90_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    "surfaces.self_s": "s", "surfaces.calls": "count",
    "surfaces.entries_filled": "count", "surfaces.max_int_bits": "bits",
    "surfaces.memo_hit_ratio": "ratio",
    "exact.self_s": "s", "exact.binomial_calls": "count",
    "exact.binomial_s": "s",
    "gw.self_s": "s", "gw.queries": "count", "gw.memo_entries": "count",
    "gw.gate_zero_ratio": "ratio",
    "series.self_s": "s", "series.mul_calls": "count",
    "series.term_pairs": "count", "series.terms_normalised": "count",
    "potentials.self_s": "s", "potentials.phi_calls": "count",
    "potentials.phi_hit_ratio": "ratio",
    "rings.self_s": "s", "rings.big_qmul_calls": "count",
    "partitions.self_s": "s",
    "cli.startup_ms": "ms", "cli.import_ms": "ms", "cli.compute_ms": "ms",
    "cli.render_ms": "ms", "cli.cache_load_ms": "ms",
    "cli.cache_save_ms": "ms", "cli.cache_bytes": "bytes",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_ratio": "ratio", "trace.wall_s": "s",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GW_CACHE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def spawn(args, env, seconds: float = 0.0, start_session: int = 0,
          min_sessions: int = 0, setup_only: bool = False
          ) -> tuple[float, dict]:
    """Run one worker; return its set-up seconds (spawn to the end of its
    set-up, scaled to the reference speed by the kernel's time just before
    and after) and its JSON record."""
    level = speed.measure(SETUP_KERNEL_RUNS)
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--size", args.size, "--start", str(start_session),
           "--min-sessions", str(min_sessions)]
    if setup_only:
        cmd.append("--setup-only")
    # The worker stamps the end of its set-up on the same system-wide clock.
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate()
    except BaseException:
        # The worker leads its own process group, CLI children included.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{err}")
    record = json.loads(lines[-1])
    level = (level + speed.measure(SETUP_KERNEL_RUNS)) / 2
    return (record["ready_at"] - start) * speed.REFERENCE_S / level, record


def percentile(ranked: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def scaled_times(rows: list) -> list[float]:
    """Every op run's latency at the reference speed: its latency times
    ``speed.REFERENCE_S`` over the kernel level around it.  A failed run gets
    infinity, so it misses every bound."""
    return [took * speed.REFERENCE_S / kernel_s if ok else math.inf
            for _, _, took, ok, kernel_s in rows]


def run_workload(args, env) -> dict:
    setups, rows, rss_kb, played = [], [], 0, 0
    count = gen.SIZES[args.size]["run_sessions"][args.workload]
    began = time.perf_counter()
    parts = 1 if args.trace else PARTS
    for part in range(parts):
        if not args.trace:
            setups += [spawn(args, env, setup_only=True)[0]
                       for _ in range(SETUP_PROBES)]
        # Each worker gets an equal share of the wall time left; the last
        # one also finishes the first pass over the run's sessions.
        left = args.seconds - (time.perf_counter() - began)
        seconds = max(0.0, left) / (parts - part)
        need = max(0, count - played) if part == parts - 1 else 0
        setup_s, record = spawn(args, env, seconds, played, need)
        setups.append(setup_s)
        rows += record["ops"]
        played += record["sessions"]
        rss_kb = max(rss_kb, record.get("rss_kb", 0))
    attempted = len(rows)
    failed = sum(1 for row in rows if not row[3])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: "
          f"{attempted} ops, {failed} failed (failed_ratio "
          f"{failed / attempted:.4g})")
    if args.trace:
        values = record["layers"]
        units = PER_LAYER
    else:
        ranked = sorted(scaled_times(rows))
        slowdown = (sum(row[4] for row in rows) / attempted
                    / speed.REFERENCE_S)
        passed = [t for t in ranked if t != math.inf]
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(passed) / sum(passed) if passed else 0.0,
            "op_p50_ms": percentile(ranked, 0.50) * 1000,
            "op_p90_ms": percentile(ranked, 0.90) * 1000,
            "peak_rss_mb": rss_kb / 1024,
        }
        units = END_TO_END
        print(f"  {parts} worker processes, {played} sessions; setup_s is "
              f"the median of {len(setups)} set-ups; latencies are over all "
              f"{attempted} op runs ({len({(r[0], r[1]) for r in rows})} "
              f"distinct ops), at the reference speed (the host ran the "
              f"speed kernel {slowdown:.3f} times slower than it)")
    metrics = {}
    for name, unit in units.items():
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:26s} {values[name]:14.6g} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(gen.SIZES), default="full",
                        help="tiny: seconds-long sizes for the self-test")
    args = parser.parse_args()
    if not (SRC / "gwcalc" / "__init__.py").is_file():
        print(f"error: no gwcalc source under {SRC}", file=sys.stderr)
        return 2
    names = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    # Run this process, the workers and their children on one CPU, so the
    # speed kernel is timed on the CPU the ops run on: on a shared host the
    # CPUs slow down independently of each other.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _deadline)
    signal.alarm(RUN_DEADLINE_S * len(names))
    # Bytecode is written before any timing, so set-up never compiles.
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(BENCH, quiet=1)
    env = child_env()
    results = []
    try:
        for name in names:
            args.workload = name
            results.append(run_workload(args, env))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


def _deadline(signum, frame):
    raise BenchError(f"run exceeded {RUN_DEADLINE_S} s")


if __name__ == "__main__":
    sys.exit(main())
