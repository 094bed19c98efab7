"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks that every workload runs end to end, traced and untraced; that each
run prints every metric BENCHMARK.json names, with its unit; that a
deliberately perturbed value on each workload shows up as failed ops; and
that a directory holding only BENCHMARK.json and this benchmark makes
run.py exit nonzero without a result.  Exit code 0 when all hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what, flush=True)
    if not condition:
        FAILURES.append(what)


def run_bench(cwd: Path, workload: str, trace: int, seconds: int = 1):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload",
           workload, "--seed", "0", "--seconds", str(seconds), "--trace",
           str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for entry in spec["workloads"]:
        for trace in (0, 1):
            name = f"{entry['name']} --trace {trace}"
            proc = run_bench(ROOT, entry["name"], trace)
            if proc.returncode:
                expect(False, f"{name} exits 0\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{name}: result keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1, f"{name}: all ops correct")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(units == wanted[trace],
                   f"{name}: every metric with its unit")
            if trace:
                check_fixed_work(entry["name"], result)


def check_fixed_work(workload: str, result: dict) -> None:
    """A traced run plays a fixed set of sessions, so its counts do not
    depend on --seconds."""
    proc = run_bench(ROOT, workload, 1, seconds=3)
    if proc.returncode:
        expect(False, f"{workload} --trace 1 --seconds 3 exits 0")
        return
    again = json.loads(proc.stdout.strip().splitlines()[-1])

    def counts(res: dict) -> dict:
        return {k: v["value"] for k, v in res["metrics"].items()
                if v["unit"] == "count"}
    expect(counts(again) == counts(result) and counts(result),
           f"{workload} --trace 1: counts independent of --seconds")


def failed_ratio(wl) -> float:
    rows = worker.run_sessions(wl, [(0, wl.session(0))])
    return sum(1 for row in rows if not row[3]) / len(rows)


def check_perturbations() -> None:
    size = gen.SIZES["tiny"]
    os.environ.update(run.child_env())     # for the cli workload's children

    counts = worker.Counts(0, size)
    counts.load_oracle()
    true_n_d = counts.surfaces.n_d
    counts.surfaces.n_d = lambda d: true_n_d(d) + (d % 2)
    ratio = failed_ratio(counts)
    counts.surfaces.n_d = true_n_d
    expect(ratio > 0, f"counts: perturbed N_d fails ops ({ratio:.2f})")

    # A repeat is checked against the value its first run was accepted
    # with, so a value that goes wrong only on a repeat fails too.
    passes = []
    start = counts.start_session

    def count_pass() -> None:
        passes.append(1)
        start()
    counts.start_session = count_pass
    counts.surfaces.n_d = lambda d: true_n_d(d) + (len(passes) > 1)
    session = (0, counts.session(0))
    rows = worker.run_sessions(counts, [session, session])
    counts.surfaces.n_d = true_n_d
    counts.start_session = start
    half = len(rows) // 2
    expect(all(row[3] for row in rows[:half])
           and not all(row[3] for row in rows[half:]),
           "counts: a value wrong only on a repeat fails that repeat")

    inv = worker.Invariants(0, size)
    inv.load_oracle()
    true_gw = inv.gw.gw_invariant
    inv.gw.gw_invariant = lambda key: true_gw(key) * 2
    ratio = failed_ratio(inv)
    inv.gw.gw_invariant = true_gw
    expect(ratio > 0, f"invariants: doubled invariants fail ops ({ratio:.2f})")

    quantum = worker.Quantum(0, size)
    quantum.load_oracle()
    warm = quantum.start_session

    def poisoned_session() -> None:
        warm()
        quantum.surfaces.seed_caches(nd={3: 13})
    quantum.start_session = poisoned_session
    ratio = failed_ratio(quantum)
    quantum.clear_all()
    expect(ratio > 0, f"quantum: a poisoned N_3 fails ops ({ratio:.2f})")

    cli = worker.Cli(0, size)
    cli.load_oracle()
    fresh = cli.before_op

    def poison_cache(op) -> None:
        fresh(op)
        path = cli.cache_path(op[1])
        if op[0] == "warm" and path.exists():
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace("nd:3\t12\n", "nd:3\t13\n"),
                            encoding="utf-8")
    cli.before_op = poison_cache
    ratio = failed_ratio(cli)
    cli.finish()
    expect(ratio > 0, f"cli: a poisoned GW_CACHE fails ops ({ratio:.2f})")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench(bare, "counts", 0)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the source tree: nonzero exit, no result")


def main() -> int:
    check_runs()
    check_perturbations()
    check_bare_directory()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
