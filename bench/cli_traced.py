"""Run one gwcalc CLI call with the span tracer installed.

Used by the traced pass of the ``cli`` workload in place of
``python -m gwcalc``: same arguments, same stdout and exit code.  The
figures go to the JSON file named by ``BENCH_TRACE_OUT``.
"""

import time

STARTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402

before = time.perf_counter()
import gwcalc.cli  # noqa: E402

import_s = time.perf_counter() - before

tracer = spans.Tracer()
spans.install(tracer, gwcalc)
cache = os.environ.get("GW_CACHE")
loaded = 0
if cache and os.path.exists(cache):
    with open(cache, encoding="utf-8") as handle:
        loaded = sum(1 for line in handle if line.strip())
tracer.active = True
try:
    code = gwcalc.cli.main(sys.argv[1:])
finally:
    tracer.active = False
    entries, bits, memo = spans.table_state(gwcalc)
    record = {
        "started": STARTED, "import_s": import_s,
        "agg": tracer.aggregates(),
        "filled": None if entries is None else max(0, entries - loaded),
        "max_bits": bits,
        "gw_memo": memo or 0,
        "spans": [{"name": n, "start": s, "end": e, "parent": p}
                  for n, s, e, p, _ in tracer.spans],
    }
    with open(os.environ["BENCH_TRACE_OUT"], "w", encoding="utf-8") as out:
        json.dump(record, out)
sys.exit(code)
