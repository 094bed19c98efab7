"""Benchmark worker: one workload in one fresh interpreter.

``run.py`` starts this script through ``sys.executable`` with
``PYTHONPATH=src`` and a fixed ``PYTHONHASHSEED``.  The worker sets up
(imports, domain enumeration, one warm-up op of each kind), notes the
time on the system-wide monotonic clock, and then plays the run's fixed
set of sessions (``run_sessions`` in ``gen.SIZES``) over and over in a
closed loop, one op at a time, from session ``--start`` on, until
``--seconds`` of wall time have passed and at least ``--min-sessions``
sessions have run; with ``--setup-only`` it stops after set-up.  Each op
is checked after its clock stops: the first time it runs in the process
by its oracle, later repeats by equality with that verified value.  The
last stdout line is a JSON record of the set-up time stamp and every op's
(session, position, latency, verdict, kernel level) that ``run.py`` turns
into metrics; the kernel level is the host speed probe's mean time around
the op (``speed.py``).

With ``--trace 1`` the worker ignores ``--seconds`` and runs a fixed
number of sessions (``trace_sessions`` in ``gen.SIZES``) twice: untraced,
then with the span tracer installed.  The per-layer figures are totals
over that fixed work, so a faster layer reads as less time and the counts
stay put; the ratio of the two passes' op time is the tracing overhead.

The interpreter's recursion limit, int-to-str digit limit and gc settings
are left as users get them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import oracle
import spans
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"


class Library:
    """Shared plumbing of the three in-process workloads."""

    def __init__(self, seed: int, size: dict) -> None:
        import gwcalc
        from gwcalc import gw, potentials, rings, surfaces, targets
        self.gwcalc, self.gw, self.potentials = gwcalc, gw, potentials
        self.rings, self.surfaces, self.targets = rings, surfaces, targets
        self.size = size
        self.draws = gen.Draws(self.name, seed,
                               size["run_sessions"][self.name])
        self.target = {"p2": targets.ProjectiveSpace(2),
                       "p3": targets.ProjectiveSpace(3),
                       "p4": targets.ProjectiveSpace(4),
                       "p1xp1": targets.P1XP1}

    def clear_all(self) -> None:
        self.surfaces.clear_caches()
        self.gw.clear_caches()
        self.potentials.clear_caches()

    def load_oracle(self) -> None:
        self.ref = oracle.load_reference()
        self.raw_nde: dict = {}

    def start_session(self) -> None:
        self.clear_all()

    def before_op(self, op) -> None:
        pass

    def finish(self) -> None:
        pass


class Counts(Library):
    name = "counts"

    def warm_up(self) -> None:
        self.surfaces.n_d(8)
        self.surfaces.n_de(3, 4)
        self.clear_all()

    def session(self, index: int) -> list:
        return gen.counts_session(self.draws, index, self.size)

    def before_op(self, op) -> None:
        self.surfaces.clear_caches()        # ops share no work

    def call(self, op):
        if op[0] == "n_d":
            return self.surfaces.n_d(op[1])
        return self.surfaces.n_de(op[1], op[2])

    def check(self, op, value) -> bool:
        if op[0] == "n_d":
            d = op[1]
            if d <= len(oracle.ND_GOLDEN) and value != oracle.ND_GOLDEN[d - 1]:
                return False
            return oracle.expect_digest(self.ref["nd"], str(d), value)
        d, e = op[1], op[2]
        if (d, e) in oracle.NDE_GOLDEN and value != oracle.NDE_GOLDEN[(d, e)]:
            return False
        key = f"{min(d, e)},{max(d, e)}"
        # n_de computes the (min, max) orientation; check the other one.
        return (oracle.expect_digest(self.ref["nde"], key, value)
                and value == self.surfaces.n_de_raw(max(d, e), min(d, e),
                                                    self.raw_nde))


class Invariants(Library):
    name = "invariants"

    def __init__(self, seed: int, size: dict) -> None:
        super().__init__(seed, size)
        self.domain = gen.pr_domain(size["pr"])

    def warm_up(self) -> None:
        self.call(("gw", 3, 1, (0, 1, 4, 0)))
        self.call(("p1x1", 1, 1, (0, 1, 1, 3)))
        self.call(("collected_pr", 3, (0, 0, 2, 1)))
        self.clear_all()

    def session(self, index: int) -> list:
        return gen.invariants_session(self.draws, index, self.size,
                                      self.domain)

    def call(self, op):
        gw, key, target = self.gw, self.targets.InvariantKey, self.target
        kind = op[0]
        if kind == "gw":
            _, r, d, exps = op
            return gw.gw_invariant(
                key(self.targets.ProjectiveSpace(r), d, exps))
        if kind == "p1x1":
            _, d, e, exps = op
            return gw.gw_invariant(key(target["p1xp1"], (d, e), exps))
        if kind == "collected_pr":
            return gw.collected_invariant(
                self.targets.ProjectiveSpace(op[1]), op[2])
        return gw.collected_invariant(target["p1xp1"], op[1])

    def check(self, op, value) -> bool:
        if value.denominator != 1:
            return False
        value = value.numerator
        kind = op[0]
        if kind == "collected_pr":
            r, exps = op[1], op[2]
            codim = sum(i * a for i, a in enumerate(exps))
            d = (codim - r - sum(exps) + 3) // (r + 1)
            return self.check_pr(r, d, exps, value)
        if kind == "gw":
            return self.check_pr(*op[1:], value)
        if kind == "p1x1":
            _, d, e, exps = op
            return value == self.p1x1_expected(d, e, exps)
        total = (op[1][3] + 1) // 2
        return value == sum(self.p1x1_expected(d, total - d, op[1])
                            for d in range(total + 1))

    def check_pr(self, r: int, d: int, exps: tuple, value: int) -> bool:
        n = sum(exps)
        codim = sum(i * a for i, a in enumerate(exps))
        if exps[0] or codim != (r + 1) * d + r - 3 + n:
            return value == 0
        scale = d ** exps[1]
        base = (0, 0) + tuple(exps[2:])
        if (r, d, base) in oracle.PR_GOLDEN and not exps[1]:
            if value != oracle.PR_GOLDEN[(r, d, base)]:
                return False
        return (value % scale == 0 and oracle.expect_digest(
            self.ref["pr"], gen.pr_key_text(r, d, base), value // scale))

    def p1x1_expected(self, d: int, e: int, exps: tuple) -> int:
        """e^#T1 d^#T2 N_(d,e): the divisor axiom over the point count."""
        count = self.surfaces.n_de_raw(e, d, self.raw_nde)
        return e ** exps[1] * d ** exps[2] * count


class Quantum(Library):
    name = "quantum"

    def warm_up(self) -> None:
        for op in (("wdvv_p2", 8), ("wdvv_p1x1", 3),
                   ("wdvv_general", 2, (1, 1, 2, 2), 2),
                   ("phi", "p3", (1, 2, 3), 2), ("big_qmul", "p2", 1, 1, 2),
                   ("small_qmul", "p2", (1, 1, (0,)), (2, 1, (0,))),
                   ("star_power", "p1xp1", (1, 1, (0, 0)), 3)):
            self.call(op)
        self.clear_all()

    def session(self, index: int) -> list:
        return gen.quantum_session(self.draws, index, self.size)

    def start_session(self) -> None:
        # Fresh structure-constant and invariant memos; the curve-count
        # tables are filled before the clock starts, so surfaces is only
        # looked up warm here.
        self.clear_all()
        self.surfaces.n_d(self.size["p2_order"][1] // 3 + 2)
        top = (max(self.size["p1x1_order"][1], self.size["bigq_order"][1])
               + 4) // 2
        for d in range(top + 1):
            self.surfaces.n_de(d, top - d)

    def call(self, op):
        pot, rings, kind = self.potentials, self.rings, op[0]
        if kind == "wdvv_p2":
            return pot.wdvv_residual_p2(op[1])
        if kind == "wdvv_p1x1":
            return pot.wdvv_residual_p1x1(op[1])
        if kind == "wdvv_general":
            _, r, (i, j, k, l), order = op
            return pot.wdvv_general_pr(r, i, j, k, l, order)
        if kind == "phi":
            _, target, (i, j, k), order = op
            return pot.phi_ijk(self.target[target], i, j, k, order)
        if kind == "big_qmul":
            _, target, i, j, order = op
            basis = rings.BigQuantumElement.basis
            t = self.target[target]
            return rings.big_qmul(basis(t, i, order), basis(t, j, order))
        t = self.target[op[1]]
        basis = rings.RingElement.basis
        if kind == "small_qmul":
            (i, c, m), (j, c2, m2) = op[2], op[3]
            return rings.small_qmul(basis(t, i, c, m), basis(t, j, c2, m2))
        i, c, m = op[2]
        return rings.star_power(basis(t, i, c, m), op[3])

    def check(self, op, value) -> bool:
        kind = op[0]
        if kind.startswith("wdvv"):
            return value.is_zero()
        if kind == "phi":
            _, target, ijk, order = op
            key = f"{target}|{','.join(map(str, ijk))}|{order}"
            return oracle.expect_digest(self.ref["phi"], key, value.render())
        if kind == "big_qmul":
            _, target, i, j, order = op
            key = f"{target}|{min(i, j)},{max(i, j)}|{order}"
            return oracle.expect_digest(self.ref["big_qmul"], key,
                                        value.render())
        if kind == "small_qmul":
            return value.coeffs == oracle.small_product(op[1], op[2], op[3])
        return value.coeffs == oracle.small_power(op[1], op[2], op[3])


class Cli:
    """Sequential ``python -m gwcalc`` processes, one at a time."""

    name = "cli"

    def __init__(self, seed: int, size: dict) -> None:
        self.size = size
        self.draws = gen.Draws(self.name, seed,
                               size["run_sessions"][self.name])
        self.light = gen.cli_light_domain()
        self.dir = OUT / f"cli-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env.pop("GW_CACHE", None)
        self.traced = False
        self.trace_records: list[dict] = []
        self.cache_sizes: list[int] = []
        self.stdout_sizes: list[int] = []

    def warm_up(self) -> None:
        rc, _ = self.call(("light", ["nd", "--d", "3"]))
        if rc:
            raise RuntimeError("gwcalc nd --d 3 failed during set-up")
        self.trace_records.clear()

    def load_oracle(self) -> None:
        self.ref = oracle.load_reference()

    def session(self, index: int) -> list:
        return gen.cli_session(self.draws, index, self.size, self.light)

    def start_session(self) -> None:
        for path in self.dir.glob("*.tsv"):
            path.unlink()

    def before_op(self, op) -> None:
        if op[0] == "cold":
            self.cache_path(op[1]).unlink(missing_ok=True)

    def cache_path(self, argv) -> Path:
        return self.dir / (oracle.digest(" ".join(argv)) + ".tsv")

    def call(self, op):
        kind, argv = op
        env = self.env
        if kind != "light":
            env = dict(env, GW_CACHE=str(self.cache_path(argv)))
        if not self.traced:
            cmd = [sys.executable, "-m", "gwcalc", *argv]
            proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=120,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL)
            return proc.returncode, proc.stdout
        trace_file = self.dir / "trace.json"
        trace_file.unlink(missing_ok=True)
        env = dict(env, BENCH_TRACE_OUT=str(trace_file))
        cmd = [sys.executable, str(BENCH / "cli_traced.py"), *argv]
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=120,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        if trace_file.exists():
            record = json.loads(trace_file.read_text(encoding="utf-8"))
            record["startup_s"] = record["started"] - spawned
            record["op"] = len(self.trace_records)
            self.trace_records.append(record)
        return proc.returncode, proc.stdout

    def check(self, op, value) -> bool:
        rc, stdout = value
        if self.traced:
            self.stdout_sizes.append(len(stdout))
            if op[0] != "light":
                self.cache_sizes.append(self.cache_path(op[1]).stat().st_size)
        return rc == 0 and oracle.expect_digest(
            self.ref["cli"], " ".join(op[1]), stdout)

    def finish(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {"counts": Counts, "invariants": Invariants, "quantum": Quantum,
             "cli": Cli}


def run_sessions(wl, sessions, deadline: float = math.inf,
                 min_sessions: int = 0, tracer=None, stats=None) -> list:
    """Run whole sessions from the iterable of (index, ops) pairs in order,
    stopping before the next one once ``time.perf_counter()`` has passed
    ``deadline`` and ``min_sessions`` sessions have run.  Returns one
    [session index, position, latency, verdict, kernel level] row per op;
    the host speed kernel is sampled between ops, never inside one.

    An op that ran before in this call (same session index and position,
    hence the same input and memo state) is checked by equality with the
    value its oracle accepted, which is as strict and much cheaper."""
    rows: list[list] = []
    spans_run: list[tuple[float, float]] = []
    verified: dict[tuple[int, int], object] = {}
    clock = time.perf_counter
    log = speed.SpeedLog()
    for played, (index, ops) in enumerate(sessions):
        if played >= min_sessions and clock() >= deadline:
            break
        wl.start_session()
        for pos, op in enumerate(ops):
            wl.before_op(op)
            log.tick()
            if stats is not None:
                stats.before()
            error = None
            if tracer is not None:
                tracer.op = len(rows)
                tracer.active = True
            start = clock()
            try:
                value = wl.call(op)
            except Exception as exc:   # an op that raises is a failed op
                error = exc
            took = clock() - start
            if tracer is not None:
                tracer.active = False
            ok = False
            if error is None:
                try:
                    if (index, pos) in verified:
                        ok = value == verified[(index, pos)]
                    else:
                        ok = bool(wl.check(op, value))
                        if ok:
                            verified[(index, pos)] = value
                except Exception:      # an oracle that cannot agree rejects
                    ok = False
            if stats is not None:
                stats.after()
            rows.append([index, pos, took, ok])
            spans_run.append((start, start + took))
    log.tick()
    for row, level in zip(rows, log.levels(spans_run)):
        row.append(level)
    return rows


class TableStats:
    """Curve-count memo growth, integer sizes and reconstruction memo size,
    read between ops through ``spans.table_state``; a figure whose source
    is gone reads None and its metrics are dropped."""

    def __init__(self, package) -> None:
        self.package = package
        entries, _, memo = spans.table_state(package)
        self.filled = None if entries is None else 0
        self.gw_memo = None if memo is None else 0
        self.max_bits = 0
        self._before = 0

    def before(self) -> None:
        self._before = spans.table_state(self.package)[0]

    def after(self) -> None:
        entries, bits, memo = spans.table_state(self.package)
        if entries is not None:
            self.filled += max(0, entries - self._before)
        self.max_bits = max(self.max_bits, bits)
        if memo is not None:
            self.gw_memo = max(self.gw_memo, memo)

    def figures(self) -> dict:
        return {"filled": self.filled, "max_bits": self.max_bits,
                "gw_memo": self.gw_memo}


def layer_metrics(agg: dict, wall_untraced: float, wall_traced: float,
                  table: dict, cli: dict) -> dict:
    """Per-layer metric values; a metric whose wrap target is gone is
    left out."""
    self_s, calls = agg["self_s"], agg["calls"]
    total_s, counts, wrapped = agg["total_s"], agg["counts"], agg["wrapped"]
    m: dict[str, float] = {}
    for layer in ("surfaces", "exact", "gw", "series", "potentials", "rings",
                  "partitions"):
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    m["surfaces.calls"] = sum(v for k, v in calls.items()
                              if k.startswith("surfaces."))
    if table["filled"] is not None:
        m["surfaces.entries_filled"] = table["filled"]
        m["surfaces.max_int_bits"] = table["max_bits"]
    lookups = calls.get("surfaces.n_d", 0) + calls.get("surfaces.n_de", 0)
    if ("surfaces.n_d" in wrapped and "surfaces.n_de" in wrapped
            and table["filled"] is not None):
        m["surfaces.memo_hit_ratio"] = (
            (lookups - table["filled"]) / lookups if lookups else 0.0)
    if "exact.binomial" in wrapped:
        m["exact.binomial_calls"] = calls.get("exact.binomial", 0)
        m["exact.binomial_s"] = total_s.get("exact.binomial", 0.0)
    m["gw.queries"] = agg["entries"].get("gw", 0)
    if table["gw_memo"] is not None:
        m["gw.memo_entries"] = table["gw_memo"]
    if "gw.gw_invariant" in wrapped:
        queries = counts.get("gw.key_queries", 0)
        m["gw.gate_zero_ratio"] = (counts.get("gw.gate_zeros", 0) / queries
                                   if queries else 0.0)
    mul = "series.TruncatedSeries.__mul__"
    if mul in wrapped:
        m["series.mul_calls"] = calls.get(mul, 0)
        m["series.term_pairs"] = counts.get("series.term_pairs", 0)
    if "series.TruncatedSeries.__init__" in wrapped:
        m["series.terms_normalised"] = counts.get(
            "series.terms_normalised", 0)
    if "potentials.phi_ijk" in wrapped:
        phi = calls.get("potentials.phi_ijk", 0)
        m["potentials.phi_calls"] = phi
        m["potentials.phi_hit_ratio"] = (
            counts.get("potentials.phi_hits", 0) / phi if phi else 0.0)
    if "rings.big_qmul" in wrapped:
        m["rings.big_qmul_calls"] = calls.get("rings.big_qmul", 0)
    m.update(cli)
    m["trace.overhead_ratio"] = wall_traced / wall_untraced
    m["trace.wall_s"] = wall_traced
    return m


def merge(into: dict, agg: dict) -> None:
    for key in ("self_s", "entries", "calls", "total_s", "counts"):
        for name, value in agg[key].items():
            into[key][name] = into[key].get(name, 0) + value
    into["wrapped"] = sorted(set(into["wrapped"]) | set(agg["wrapped"]))


def cli_layer_metrics(wl: Cli, ops: int) -> tuple[dict, dict, dict]:
    agg = {"self_s": {}, "entries": {}, "calls": {}, "total_s": {},
           "counts": {}, "wrapped": []}
    table = {"filled": 0, "max_bits": 0, "gw_memo": 0}
    for record in wl.trace_records:
        merge(agg, record["agg"])
        if record["filled"] is None:
            table["filled"] = None
        elif table["filled"] is not None:
            table["filled"] += record["filled"]
        table["max_bits"] = max(table["max_bits"], record["max_bits"])
        table["gw_memo"] = max(table["gw_memo"], record["gw_memo"])
    records = wl.trace_records
    cached = max(1, len(wl.cache_sizes))
    total = agg["total_s"]
    ms = 1000.0
    cli = {
        "cli.startup_ms": statistics.median(r["startup_s"] for r in records) * ms,
        "cli.import_ms": statistics.median(r["import_s"] for r in records) * ms,
        "cli.compute_ms": total.get("cli.command", 0.0) / ops * ms,
        "cli.render_ms": total.get("cli._emit", 0.0) / ops * ms,
        "cli.cache_load_ms": total.get("cli._load_cache", 0.0) / cached * ms,
        "cli.cache_save_ms": total.get("cli._save_cache", 0.0) / cached * ms,
        "cli.cache_bytes": sum(wl.cache_sizes) / cached,
        "cli.stdout_bytes": sum(wl.stdout_sizes) / max(1, ops),
    }
    spans = [dict(s, op=r["op"]) for r in records for s in r["spans"]]
    return agg, table, {"cli": cli, "spans": spans}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(gen.SIZES), default="full")
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--min-sessions", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up (to time it)")
    args = parser.parse_args()
    size = gen.SIZES[args.size]

    wl = WORKLOADS[args.workload](args.seed, size)
    wl.warm_up()
    result: dict = {"ready_at": time.clock_gettime(time.CLOCK_MONOTONIC)}
    try:
        if not args.trace and not args.setup_only:
            wl.load_oracle()
            count = size["run_sessions"][args.workload]
            plays = [(i, wl.session(i)) for i in range(count)]
            cycle = itertools.islice(itertools.cycle(plays),
                                     args.start % count, None)
            deadline = time.perf_counter() + args.seconds
            rows = run_sessions(wl, cycle, deadline, args.min_sessions)
            who = (resource.RUSAGE_CHILDREN if args.workload == "cli"
                   else resource.RUSAGE_SELF)
            result.update(ops=rows,
                          sessions=sum(1 for r in rows if r[1] == 0),
                          rss_kb=resource.getrusage(who).ru_maxrss)
        elif args.trace:
            wl.load_oracle()
            result.update(traced_run(wl, args))
    finally:
        wl.finish()
    print(json.dumps(result))
    return 0


def traced_run(wl, args) -> dict:
    count = gen.SIZES[args.size]["trace_sessions"][args.workload]
    sessions = [(i, wl.session(i)) for i in range(count)]
    rows_a = run_sessions(wl, sessions)
    if isinstance(wl, Cli):
        wl.traced = True
        rows_b = run_sessions(wl, sessions)
        agg, table, extra = cli_layer_metrics(wl, len(rows_b))
        cli, span_rows = extra["cli"], extra["spans"]
    else:
        tracer = spans.Tracer()
        spans.install(tracer, wl.gwcalc)
        stats = TableStats(wl.gwcalc)
        rows_b = run_sessions(wl, sessions, tracer=tracer, stats=stats)
        agg, table = tracer.aggregates(), stats.figures()
        cli = {name: 0.0 for name in CLI_METRICS}
        span_rows = [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                     for n, s, e, p, o in tracer.spans]
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{args.workload}-{args.seed}.jsonl", "w",
              encoding="utf-8") as handle:
        for row in span_rows:
            handle.write(json.dumps(row) + "\n")
    rows = rows_a + rows_b
    wall_a, wall_b = (sum(r[2] for r in part) for part in (rows_a, rows_b))
    return {"ops": rows, "sessions": 2 * count,
            "layers": layer_metrics(agg, wall_a, wall_b, table, cli)}


CLI_METRICS = ("cli.startup_ms", "cli.import_ms", "cli.compute_ms",
               "cli.render_ms", "cli.cache_load_ms", "cli.cache_save_ms",
               "cli.cache_bytes", "cli.stdout_bytes")


if __name__ == "__main__":
    sys.exit(main())
