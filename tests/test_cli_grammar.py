"""Property test over the command-line grammar: every subcommand and format
on drawn targets, degrees, class lists and orders, valid and malformed.

Each input must end with a documented exit (0 success, 1 a violated
identity, 2 a usage error; never 3, an internal error), JSON output must
validate against the shipped schema, and every input answers in bounded
time.  Huge class counts (up to 10^12) go only where the answer is cheap:
on classes the dimension gate rejects in the drawn degree, or on divisor
classes in degree at most one, where the divisor axiom multiplies by 0 or 1.
"""

import contextlib
import io
import json
import re
import signal
from importlib import resources

import jsonschema
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from gwcalc import cli, gw, potentials, surfaces

# Cold worst cases of the drawn ranges take about 0.3 s on a 2-vCPU host
# (P^5 and P^6 invariants of degree 6); the budget leaves room for a slow one.
BUDGET_S = 3.0

TARGETS = ["p1", "p2", "p3", "p4", "p5", "p6", "p1xp1"]
JUNK = ["", "p0", "p", "q2", "p-1", "px", "p1xp2", "P 2", "p10001",
        "p\u00b2"]
DIVISORS = {"h1", "T1", "T2"}
NAMES = [f"h{i}" for i in range(8)] + [f"T{i}" for i in range(5)]
JUNK_NAMES = ["", "h", "x2", "h-1", "T", "hh2", "h2.5"]
FORMATS = ["plain", "json", "csv"]


with resources.files("gwcalc").joinpath(
        "data/output_schema.json").open() as handle:
    SCHEMA = json.load(handle)

# Mostly well-formed input, so each subcommand also gets to compute.
targets = st.sampled_from(TARGETS * 5 + JUNK)
rarely = st.sampled_from([False] * 9 + [True])
small = st.integers(-1, 6)
junk_numbers = st.sampled_from(["x", "1.5", "", "--", "1e3"])
counts_text = st.sampled_from(["x", "-1", "1.5", "", "+2", " 3"])


@st.composite
def degrees(draw, target=None):
    """(text, entries): a degree or bidegree up to 6, mostly the shape the
    target takes, or a malformed one."""
    shape = "d,e" if target == "p1xp1" else "d"
    kind = draw(st.sampled_from([shape] * 8 + ["d", "d,e", "junk"]))
    if kind == "junk":
        return draw(st.sampled_from(["x", "1,2,3", "2,", ",", "1;2"])), None
    entries = [draw(small) for _ in kind.split(",")]
    return ",".join(map(str, entries)), entries


def class_names(target):
    """Mostly the target's own basis classes, else any name or junk."""
    if target == "p1xp1":
        own = [f"T{i}" for i in range(4)]
    elif target in TARGETS:
        own = [f"h{i}" for i in range(int(target[1:]) + 1)]
    else:
        own = NAMES
    return st.sampled_from(own * 12 + NAMES + JUNK_NAMES)


@st.composite
def class_lists(draw, target, entries, big_counts=True):
    """Chunks ``name:count``; huge counts only where the answer is cheap."""
    chunks = []
    for _ in range(draw(st.integers(0, 3))):
        name = draw(class_names(target))
        cheap = name not in DIVISORS or (
            entries is not None and max(entries) <= 1)
        counts = [st.none(), st.integers(0, 3).map(str)] * 2 + [counts_text]
        if big_counts and cheap:
            counts += [st.integers(10 ** 6, 10 ** 12).map(str)] * 4
        count = draw(st.one_of(counts))
        chunks.append(name if count is None else f"{name}:{count}")
    return ",".join(chunks)


@st.composite
def gw_args(draw):
    target = draw(targets)
    args = ["gw", "--target", target]
    if draw(st.booleans()):
        # The gate solves for the degree, so every count stays small.
        args += ["--collected"]
        if draw(rarely):
            args += ["--degree", "2"]
        return args + ["--classes", draw(class_lists(target, None, False))]
    text, entries = draw(degrees(target))
    if not draw(rarely):
        args += ["--degree", text]
    return args + ["--classes", draw(class_lists(target, entries))]


def _order():
    return st.integers(-1, 6).map(str) | junk_numbers


@st.composite
def nd_args(draw):
    args = ["nd", "--d", draw(st.integers(-1, 40).map(str) | junk_numbers)]
    return args + (["--upto"] if draw(st.booleans()) else [])


@st.composite
def nde_args(draw):
    if draw(st.booleans()):
        return ["nde", "--upto", draw(st.integers(-1, 8).map(str))]
    args = ["nde"]
    for flag in ("--d", "--e"):
        if draw(st.integers(0, 7)):
            args += [flag, draw(small.map(str) | junk_numbers)]
    return args


@st.composite
def qmul_args(draw):
    target = draw(targets)
    args = ["qmul", "--target", target]
    if draw(st.booleans()):
        args += ["--big"]
        if draw(st.booleans()):
            args += ["--order", draw(_order())]
    operands = class_names(target).filter(bool)  # argparse drops ""
    count = draw(st.sampled_from([2] * 8 + [1, 3]))
    return args + draw(st.lists(operands, min_size=count, max_size=count))


@st.composite
def wdvv_args(draw):
    target = draw(st.sampled_from(["p2", "p1xp1"] * 3) | targets)
    return ["wdvv", "--target", target, "--order",
            draw(st.integers(-1, 8).map(str) | junk_numbers)]


@st.composite
def potential_args(draw):
    args = ["potential", "--target", draw(targets)]
    if draw(st.booleans()):
        args += ["--order", draw(_order())]
    return args + (["--quantum"] if draw(st.booleans()) else [])


@st.composite
def partitions_args(draw):
    text, _ = draw(degrees())
    pins = st.sampled_from(["m1,m2:p1,p2"] * 3 + ["m1,p1:m2,p2"] * 3 + [
        "m1,m2:p1", "m1,m1:p1,p2", "a,b:c,d", "m1 m2 p1 p2"])
    args = ["partitions", "--marks", draw(st.integers(3, 8).map(str)),
            "--degree", text, "--pins", draw(pins)]
    return args + (["--count"] if draw(st.booleans()) else [])


# gw, the one with the largest input space, is drawn three times as often.
commands = st.one_of(nd_args(), nde_args(), gw_args(), gw_args(), gw_args(),
                     qmul_args(), wdvv_args(), potential_args(),
                     partitions_args())


@st.composite
def argvs(draw):
    """A command with its format, given before or after the subcommand."""
    command = draw(commands)
    fmt = draw(st.sampled_from(FORMATS) | st.none())
    flags = [] if fmt is None else ["--format", fmt]
    if draw(st.booleans()):
        flags += ["--timing"]
    return (flags + command if draw(st.booleans()) else command + flags), fmt


class OverBudget(BaseException):
    """Raised by the alarm; not an ``Exception``, so ``main`` lets it out."""


def _over_budget(signum, frame):
    raise OverBudget


def run_main(argv):
    """(exit code, stdout, stderr) of ``main(argv)``, interrupted by an
    alarm once it has run ``BUDGET_S`` seconds."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _over_budget)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    except OverBudget:
        pytest.fail(f"{argv} ran past {BUDGET_S} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module", autouse=True)
def no_cache_file():
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("GW_CACHE", raising=False)
        yield
    for module in (gw, potentials, surfaces):
        module.clear_caches()


@settings(derandomize=True, max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_every_input_ends_with_a_documented_exit(drawn):
    argv, fmt = drawn
    code, out, err = run_main(argv)
    assert code in (0, 1, 2), (argv, code, err)
    event(f"{next(a for a in argv if a in cli._COMMANDS)} exit {code}")
    if code == 0 and any(len(count) > 6 for count in re.findall(r":(\d+)",
                                                                 " ".join(argv))):
        event("a huge class count answered")
    if code == 2:
        assert out == "" and err, argv
    if code == 0 and fmt == "json":
        payload = json.loads(out)
        jsonschema.validate(payload, SCHEMA)
        assert payload["command"] in argv
