"""Batch command-line interface.

Every computation in the library is reachable through a subcommand, with
plain, CSV (header row included) and JSON output.  JSON records validate
against the schema shipped at ``gwcalc/data/output_schema.json``.  Exit
codes are a stable contract:

* 0: success;
* 1: a verification command found a violated identity;
* 2: a usage error (bad arguments or violated preconditions);
* 3: an internal error, reported as one stderr line
  ``internal error: <Type>: <message>`` without a traceback.  Such a run
  does not write ``GW_CACHE``;
* 141: stdout was closed before the output was written (as by
  ``gwcalc nd --d 300 --upto | head -n 1``).  Nothing goes to stderr, and
  the run does not write ``GW_CACHE``.

Outputs are deterministic byte-for-byte; a timing field is only attached
when explicitly requested with ``--timing``.

Each subcommand is one row of ``_SUBCOMMANDS`` (help line, arguments,
command); the dispatch table ``_COMMANDS`` is derived from it.

If the environment variable ``GW_CACHE`` names a file, the memoized curve
counts are loaded from it on startup and written back (merged) on exit,
one ``key<TAB>value`` pair per line with keys ``nd:<d>`` and
``nde:<d>,<e>``.  The file is replaced whole: the counts go to a sibling
``<file>.<pid>.tmp`` that is then renamed over it.  Without the variable
all memoization is in-memory only.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

# Only what parsing, GW_CACHE and nd/nde need loads with the module; each
# other subcommand imports its own layers, so a light call stays light.
from . import surfaces
from .targets import (ExponentVector, InvariantKey, P1XP1, ProjectiveSpace,
                      TargetSpace, parse_basis_class)


class UsageError(Exception):
    """Bad arguments or violated preconditions; maps to exit code 2."""


class VerificationError(Exception):
    """A checked identity failed to hold; maps to exit code 1."""


# The basis, the exponent vectors and the product tables of P^r grow
# linearly in r before any gate runs: at r = 4,000,000 a one-line answer
# takes seconds and hundreds of megabytes, at this bound no visible time.
_MAX_R = 10000

# A partitions listing builds every record before it writes any.  On a
# 2-vCPU host under a 2 GB address-space limit, 2^20 records answered in
# 15-36 s in every format (23 marks at degree 1, 4 marks at degree
# 2^20 - 1), and 2^21 ran out of memory.
_MAX_PARTITIONS = 2 ** 20


def _parse_target(text: str) -> TargetSpace:
    name = text.strip().lower()
    if name in ("p1xp1", "p1x1"):
        return P1XP1
    digits = name[1:]
    if name.startswith("p") and digits.isascii() and digits.isdigit():
        r = int(digits)
        if r > _MAX_R:
            raise UsageError(f"target {text!r} is too large "
                             f"(P^r is supported up to r = {_MAX_R})")
        if r >= 1:
            return ProjectiveSpace(r)
    raise UsageError(f"unknown target {text!r} (use p1, p2, ..., or p1xp1)")


def _parse_degree(target: TargetSpace, text: str):
    """One integer per generator: d on P^r, d,e on P1xP1."""
    parts = text.split(",")
    n = len(target.params)
    try:
        if len(parts) != n:
            raise ValueError
        degree = tuple(map(int, parts))
    except ValueError:
        raise UsageError(f"degree {text!r} does not match the target "
                         f"(expected {','.join('de'[:n])})")
    return degree if n > 1 else degree[0]


def _order(given: int | None, default: int | None = None) -> int | None:
    """``--order``, or ``default`` when it is not given; never negative."""
    order = default if given is None else given
    if order is not None and order < 0:
        raise UsageError(f"--order must be >= 0, got {order}")
    return order


def _parse_classes(target: TargetSpace, text: str) -> ExponentVector:
    """Class counts such as ``h2:4,h1`` as an exponent vector, built from
    the counts without listing each occurrence."""
    exponents = [0] * target.basis_size
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, colon, count = chunk.partition(":")
        try:
            idx = parse_basis_class(target, name)
        except ValueError as exc:
            raise UsageError(str(exc))
        try:
            repeat = int(count) if colon else 1
        except ValueError:
            raise UsageError(f"bad class count in {chunk!r}")
        if repeat < 0:
            raise UsageError(f"class count must be >= 0 in {chunk!r}")
        exponents[idx] += repeat
    return tuple(exponents)


def _integer_value(text: str) -> dict:
    """The JSON value of an integer whose decimal text is ``text``."""
    return {"rational": f"{text}/1", "decimal": text}


def _scalar_record(inputs: dict, header: str, prefix: str, value) -> dict:
    """One exact value, an int or a ``Fraction``: its text in plain output,
    and ``prefix`` followed by it as the row under ``header`` in CSV.  Both
    print as the integer when the denominator is one, and as
    ``numerator/denominator`` otherwise."""
    text = str(value)
    scalar = (_integer_value(text) if value.denominator == 1
              else {"rational": text})
    return {"inputs": inputs, "values": [scalar], "plain": text,
            "csv": [header, prefix + text]}


def _text_record(inputs: dict, kind: str, text: str) -> dict:
    """Rendered text: one JSON value of ``kind`` and one CSV row per line."""
    lines = text.split("\n")
    return {"inputs": inputs, "values": [{kind: line} for line in lines],
            "plain": text, "csv": ["value"] + lines}


# -- cache persistence ----------------------------------------------------

def _load_cache(path: str) -> None:
    if not os.path.exists(path):
        return
    nd: dict[int, int] = {}
    nde: dict[tuple[int, int], int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("\t")
            # Malformed lines are ignored rather than fail a run, and so are
            # the keys the tables never read: N_d below d = 2 and N_(d,e)
            # with a side below 1, which the recursions give themselves.
            try:
                if key.startswith("nd:"):
                    d = int(key[3:])
                    if d >= 2:
                        nd[d] = int(value)
                elif key.startswith("nde:"):
                    d, e = map(int, key[4:].split(","))
                    if min(d, e) >= 1:
                        nde[(d, e)] = int(value)
            except ValueError:
                continue
    surfaces.seed_caches(nd, nde)


def _save_cache(path: str) -> None:
    nd, nde = surfaces.cache_snapshot()
    lines = [f"nd:{d}\t{value}" for d, value in sorted(nd.items())]
    lines += [f"nde:{d},{e}\t{value}" for (d, e), value in sorted(nde.items())]
    # Write a sibling file and rename it over the cache, so a run killed
    # mid-write leaves the old file whole instead of a truncated last line.
    # A symlinked cache keeps its link: the rename replaces the link target.
    path = os.path.realpath(path)
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + ("\n" if lines else ""))
        if os.path.exists(path):  # keep the cache's permission bits
            os.chmod(temporary, os.stat(path).st_mode & 0o7777)
        os.replace(temporary, path)
    except BaseException:
        try:
            os.remove(temporary)
        except OSError:
            pass
        raise


# -- subcommands -----------------------------------------------------------

def _cmd_nd(args) -> dict:
    if args.d < 1:
        raise UsageError(f"--d must be >= 1, got {args.d}")
    if args.upto:
        # Each count is converted to decimal once, for all three formats.
        texts = [str(surfaces.n_d(d)) for d in range(1, args.d + 1)]
        return {
            "inputs": {"d": args.d, "upto": True},
            "values": [_integer_value(t) for t in texts],
            "plain": "\n".join(f"{d}\t{t}" for d, t in enumerate(texts, 1)),
            "csv": ["d,N_d"] + [f"{d},{t}" for d, t in enumerate(texts, 1)],
        }
    return _scalar_record({"d": args.d, "upto": False}, "d,N_d",
                          f"{args.d},", surfaces.n_d(args.d))


def _cmd_nde(args) -> dict:
    if args.upto is not None:
        bound = args.upto
        if bound < 0:
            raise UsageError(f"--upto must be >= 0, got {bound}")
        matrix = [["x" if d == e == 0 else str(surfaces.n_de(d, e))
                   for e in range(bound + 1)] for d in range(bound + 1)]
        header = "d\\e," + ",".join(str(e) for e in range(bound + 1))
        return {
            "inputs": {"upto": bound},
            "values": [{"matrix": matrix}],
            "plain": "\n".join(" ".join(row) for row in matrix),
            "csv": [header] + [f"{d}," + ",".join(matrix[d])
                               for d in range(bound + 1)],
        }
    if args.d is None or args.e is None:
        raise UsageError("provide --d and --e, or --upto")
    if args.d < 0 or args.e < 0 or args.d + args.e < 1:
        raise UsageError(
            f"bidegree ({args.d}, {args.e}) is not defined (need d+e >= 1)")
    return _scalar_record({"d": args.d, "e": args.e}, "d,e,N_de",
                          f"{args.d},{args.e},", surfaces.n_de(args.d, args.e))


def _cmd_gw(args) -> dict:
    from .gw import collected_invariant, gw_invariant
    target = _parse_target(args.target)
    exponents = _parse_classes(target, args.classes)
    if args.collected:
        if args.degree is not None:
            raise UsageError("--collected solves for the degree; "
                             "drop --degree")
        value = collected_invariant(target, exponents)
        inputs = {"target": args.target, "collected": True,
                  "classes": args.classes}
    else:
        if args.degree is None:
            raise UsageError("provide --degree, or use --collected")
        degree = _parse_degree(target, args.degree)
        try:
            value = gw_invariant(InvariantKey(target, degree, exponents))
        except ValueError as exc:
            raise UsageError(str(exc))
        inputs = {"target": args.target, "degree": args.degree,
                  "classes": args.classes}
    return _scalar_record(inputs, "value", "", value)


def _sized(option: str, build, *args):
    """``build(*args)``; a table past the library's size bound is a usage
    error that names ``option``."""
    from .potentials import _ListingTooLarge
    try:
        return build(*args)
    except _ListingTooLarge as exc:
        raise UsageError(f"{option} at {exc}")


def _cmd_qmul(args) -> dict:
    from .rings import BigQuantumElement, RingElement, big_qmul, small_qmul
    target = _parse_target(args.target)
    try:
        i = parse_basis_class(target, args.operands[0])
        j = parse_basis_class(target, args.operands[1])
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.big:
        order = _order(args.order, 4)
        a = BigQuantumElement.basis(target, i, order)
        b = BigQuantumElement.basis(target, j, order)
        product = _sized("--big", big_qmul, a, b)
        inputs = {"target": args.target, "big": True, "order": order,
                  "operands": list(args.operands)}
    else:
        product = small_qmul(RingElement.basis(target, i),
                             RingElement.basis(target, j))
        inputs = {"target": args.target, "small": True,
                  "operands": list(args.operands)}
    return _text_record(inputs, "element", product.render())


def _cmd_wdvv(args) -> dict:
    from .potentials import wdvv_residual_p1x1, wdvv_residual_p2
    from .series import TruncatedSeries
    target = _parse_target(args.target)
    _order(args.order)
    if isinstance(target, ProjectiveSpace):
        if target.r != 2:
            raise UsageError("wdvv verification covers p2 and p1xp1")
        residual = _sized("wdvv", wdvv_residual_p2, args.order)
        names = ["x"]
    else:
        residual = _sized("wdvv", wdvv_residual_p1x1, args.order)
        names = ["x1", "x2", "x3"]
    if residual.is_zero():
        return _text_record({"target": args.target, "order": args.order},
                            "text", f"ZERO up to order {args.order}")
    exps, coeff = residual.leading_term()
    term = TruncatedSeries(residual.nvars, residual.order,
                           {exps: coeff}).render(names)
    raise VerificationError(f"NONZERO first term {term}")


def _cmd_potential(args) -> dict:
    from .potentials import (classical_potential, gw_potential_p1,
                             quantum_potential_p1x1,
                             quantum_potential_p2_reduced)
    target = _parse_target(args.target)
    order = _order(args.order, 6 if args.quantum else None)
    if args.quantum:
        if isinstance(target, ProjectiveSpace) and target.r == 1:
            series = _sized("--quantum", gw_potential_p1, order)
            text = series.render()
        elif isinstance(target, ProjectiveSpace) and target.r == 2:
            family = _sized("--quantum", quantum_potential_p2_reduced, order)
            text = "\n".join(
                f"G{''.join(map(str, ijk))}: {s.render(['x'])}"
                for ijk, s in sorted(family.items()))
        elif isinstance(target, ProjectiveSpace):
            raise UsageError(
                "closed-form quantum potentials cover p1, p2 and p1xp1")
        else:
            series = _sized("--quantum", quantum_potential_p1x1, order)
            text = series.render(["x1", "x2", "x3"])
    else:
        try:
            series = classical_potential(target)
        except ValueError as exc:
            raise UsageError(str(exc))
        if order is not None:
            series = series.truncate(min(order, series.order))
        text = series.render()
    return _text_record({"target": args.target, "order": args.order,
                         "quantum": bool(args.quantum)}, "series", text)


def _cmd_partitions(args) -> dict:
    from .partitions import (MarkSet, count_pinned_partitions,
                             enumerate_partitions)
    if args.marks < 4:
        raise UsageError(f"--marks must be >= 4 to pin two pairs, "
                         f"got {args.marks}")
    marks = MarkSet.standard(args.marks)
    try:
        degree = tuple(map(int, args.degree.split(",")))
        if len(degree) > 2:
            raise ValueError
    except ValueError:
        raise UsageError(f"bad degree {args.degree!r}")
    if len(degree) == 1:
        degree = degree[0]
    try:
        left, right = args.pins.split(":")
        pin_a = tuple(s.strip() for s in left.split(","))
        pin_b = tuple(s.strip() for s in right.split(","))
        if len(pin_a) != 2 or len(pin_b) != 2:
            raise ValueError
    except ValueError:
        raise UsageError(f"--pins must look like m1,m2:p1,p2, "
                         f"got {args.pins!r}")
    inputs = {"marks": args.marks, "degree": args.degree, "pins": args.pins,
              "count": bool(args.count)}
    try:
        # the closed form, not a list of 2^(marks-4) entries
        value = count_pinned_partitions(marks, degree, (pin_a, pin_b))
        if args.count:
            return _scalar_record(inputs, "count", "", value)
        if value > _MAX_PARTITIONS:
            raise UsageError(
                f"{value} partitions are over the listing bound of "
                f"{_MAX_PARTITIONS}; --count gives their number")
        partitions = enumerate_partitions(marks, degree, (pin_a, pin_b))
    except ValueError as exc:
        raise UsageError(str(exc))
    import json  # the plain listing is one JSON object per line
    records = [p.to_json() for p in partitions]
    bidegree = records and "eA" in records[0]
    header = "A,B,dA,dB" + (",eA,eB" if bidegree else "")
    csv_rows = [header]
    for rec in records:
        row = ["|".join(rec["A"]), "|".join(rec["B"]),
               str(rec["dA"]), str(rec["dB"])]
        if bidegree:
            row += [str(rec["eA"]), str(rec["eB"])]
        csv_rows.append(",".join(row))
    return {
        "inputs": inputs,
        "values": [{"partition": rec} for rec in records],
        "plain": "\n".join(json.dumps(rec, sort_keys=True)
                           for rec in records),
        "csv": csv_rows,
    }


def _nd_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--upto", action="store_true",
                   help="print the whole table 1..d")


def _nde_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int)
    p.add_argument("--e", type=int)
    p.add_argument("--upto", type=int,
                   help="print the full matrix up to this bound")


def _gw_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--target", required=True,
                   help="p1, p2, p3, ..., or p1xp1")
    p.add_argument("--degree", help="integer, or d,e for p1xp1")
    p.add_argument("--classes", required=True,
                   help="e.g. h2:4 or T3:3,T1:1")
    p.add_argument("--collected", action="store_true",
                   help="sum over the degree the dimension gate selects")


def _qmul_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--target", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--small", action="store_true", default=True)
    group.add_argument("--big", action="store_true")
    p.add_argument("--order", type=int, help="truncation order for --big")
    p.add_argument("operands", nargs=2, help="two basis classes, e.g. h1 h2")


def _wdvv_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--target", required=True, help="p2 or p1xp1")
    p.add_argument("--order", type=int, required=True)


def _potential_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--target", required=True)
    p.add_argument("--order", type=int)
    p.add_argument("--quantum", action="store_true")


def _partitions_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--marks", type=int, required=True)
    p.add_argument("--degree", required=True, help="d or d,e")
    p.add_argument("--pins", required=True, help="i,j:k,l")
    p.add_argument("--count", action="store_true")


# name -> (help line, arguments, command), in ``gwcalc --help`` order
_SUBCOMMANDS = {
    "nd": ("rational plane curve counts N_d", _nd_arguments, _cmd_nd),
    "nde": ("bidegree curve counts N_(d,e) on P1xP1", _nde_arguments,
            _cmd_nde),
    "gw": ("genus-0 Gromov-Witten invariants", _gw_arguments, _cmd_gw),
    "qmul": ("quantum products", _qmul_arguments, _cmd_qmul),
    "wdvv": ("verify a WDVV residual vanishes", _wdvv_arguments, _cmd_wdvv),
    "potential": ("classical or quantum potentials", _potential_arguments,
                  _cmd_potential),
    "partitions": ("stable weighted partitions for pinned boundary "
                   "divisors", _partitions_arguments, _cmd_partitions),
}

_COMMANDS = {name: command for name, (*_, command) in _SUBCOMMANDS.items()}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or with ``command`` one that builds only that
    subcommand's arguments.  The other subcommands are still registered
    with their help line, so the top-level help and the invalid-choice
    message are the same either way."""
    parser = argparse.ArgumentParser(
        prog="gwcalc",
        description="Exact rational curve counts, Gromov-Witten invariants "
                    "and quantum cohomology for P^r and P1xP1.")
    parser.add_argument("--format", choices=("plain", "json", "csv"),
                        default="plain", help="output format")
    parser.add_argument("--timing", action="store_true", default=False,
                        help="attach elapsed milliseconds to JSON output")
    # The shared flags are also accepted after the subcommand; SUPPRESS
    # keeps the subparser from clobbering a value parsed before it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("plain", "json", "csv"),
                        default=argparse.SUPPRESS)
    common.add_argument("--timing", action="store_true",
                        default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, _) in _SUBCOMMANDS.items():
        if command is None or name == command:
            add_arguments(sub.add_parser(name, help=help_line,
                                         parents=[common]))
        else:
            sub.add_parser(name, help=help_line, add_help=False)
    return parser


def _emit(record: dict, command: str, fmt: str, elapsed_ms: int | None) -> None:
    if fmt == "json":
        import json
        payload = {"command": command, "inputs": record["inputs"],
                   "values": record["values"]}
        if elapsed_ms is not None:
            payload["elapsed_ms"] = elapsed_ms
        print(json.dumps(payload, sort_keys=True))
    elif fmt == "csv":
        print("\n".join(record["csv"]))
    else:
        print(record["plain"])


def main(argv: list[str] | None = None) -> int:
    # Counts pass Python's default 4300-digit int<->str limit near N_572;
    # lift it for this process so they print and round-trip through GW_CACHE.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    if argv is None:
        argv = sys.argv[1:]
    # Only the subcommand the arguments name gets its own arguments built.
    command = next((arg for arg in argv if arg in _SUBCOMMANDS), None)
    args = build_parser(command).parse_args(argv)
    try:
        return _run(args, os.environ.get("GW_CACHE"))
    except BrokenPipeError:
        # The reader closed stdout before the output was written, as
        # ``| head`` does.  As the Python docs advise, stdout now points at
        # devnull, so the flush at exit cannot raise again.  141 is 128 +
        # SIGPIPE, the status a shell reports for a process SIGPIPE ended.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:
        # A defect, not a verdict: exit 1 is kept for violated identities.
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return 3


def _run(args, cache_path: str | None) -> int:
    if cache_path:
        _load_cache(cache_path)
    started = time.monotonic()
    try:
        record = _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        if cache_path:
            _save_cache(cache_path)
        return 1
    elapsed_ms = int((time.monotonic() - started) * 1000)
    _emit(record, args.command, args.format,
          elapsed_ms if args.timing else None)
    sys.stdout.flush()  # a closed reader stops the run before GW_CACHE
    if cache_path:
        _save_cache(cache_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
