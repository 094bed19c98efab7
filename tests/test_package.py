"""The package root's public surface, the frozen records, and what a light
command-line call imports."""

import os
import re
import subprocess
import sys
import time

import pytest

import gwcalc
from gwcalc.cli import main
from gwcalc.partitions import MarkSet, WeightedPartition
from gwcalc.rings import BigQuantumElement, RingElement
from gwcalc.series import TruncatedSeries
from gwcalc.targets import P1XP1, InvariantKey, P1xP1, ProjectiveSpace, _Record

# The child processes import the same gwcalc as these tests, installed or not.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(gwcalc.__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SUBMODULES = ["exact", "gw", "partitions", "potentials", "rings", "series",
              "surfaces", "targets"]
MODULE_DUNDERS = ["__all__", "__builtins__", "__cached__", "__doc__",
                  "__file__", "__loader__", "__name__", "__package__",
                  "__path__", "__spec__", "__version__"]


def run_python(*args):
    env = dict(os.environ)
    env.pop("GW_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, *args], capture_output=True,
                            text=True, env=env)
    assert result.returncode == 0, result.stderr
    return result


def test_dir_of_a_fresh_package_is_pinned():
    # Every submodule and public name is listed before any of them is used.
    listed = run_python("-c", "import gwcalc; print(*dir(gwcalc))")
    assert listed.stdout.split() == sorted(
        MODULE_DUNDERS + SUBMODULES + gwcalc.__all__)


def test_star_import_binds_exactly_the_public_names():
    script = ("from gwcalc import *\n"
              "print(*sorted(k for k in dir() if not k.startswith('__')))")
    assert run_python("-c", script).stdout.split() == sorted(gwcalc.__all__)
    namespace = {}
    exec("from gwcalc import *", namespace)
    for name in gwcalc.__all__:
        assert namespace[name] is getattr(gwcalc, name), name


def test_submodules_are_attributes_of_a_fresh_package():
    script = ("import gwcalc\n"
              "print(*(getattr(gwcalc, m).__name__ for m in "
              f"{SUBMODULES!r}))\n"
              "print(gwcalc.surfaces.n_d(4), gwcalc.targets.P1XP1)")
    lines = run_python("-c", script).stdout.splitlines()
    assert lines == [" ".join(f"gwcalc.{m}" for m in SUBMODULES),
                     "620 P1xP1"]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'cli_main'"):
        gwcalc.cli_main


P2 = ProjectiveSpace(2)
KEY = InvariantKey(P2, 3, (0, 0, 8))
MARKS = MarkSet.standard(5)
SPLIT = WeightedPartition(("m1", "m2", "p3"), ("p1", "p2"), 0, 1, 1, 0)
SERIES = TruncatedSeries(2, 3, {(1, 0): 1, (0, 2): -2})
RING = RingElement.basis(P2, 1, 3, (2,))
BIG = BigQuantumElement.basis(P2, 1, 2)
VALUES = (TruncatedSeries, RingElement, BigQuantumElement)


def test_record_repr_eq_hash_and_match_args_are_pinned():
    assert repr(P2) == "ProjectiveSpace(r=2)"
    assert hash(P2) == hash((2,))
    assert P2 == ProjectiveSpace(2) and P2 != ProjectiveSpace(3)
    assert P2 != P1XP1 and P2 != (2,)
    assert ProjectiveSpace.__match_args__ == ("r",)

    assert repr(P1XP1) == "P1xP1()"
    assert hash(P1XP1) == hash(())
    assert P1XP1 == P1xP1()
    assert P1xP1.__match_args__ == ()

    assert repr(KEY) == ("InvariantKey(target=ProjectiveSpace(r=2), "
                         "degree=3, exponents=(0, 0, 8))")
    assert hash(KEY) == hash((P2, 3, (0, 0, 8)))
    assert KEY == InvariantKey(ProjectiveSpace(2), 3, (0, 0, 8))
    assert KEY != InvariantKey(P2, 3, (0, 1, 8))
    assert InvariantKey.__match_args__ == ("target", "degree", "exponents")

    assert repr(MARKS) == "MarkSet(labels=('m1', 'm2', 'p1', 'p2', 'p3'))"
    assert hash(MARKS) == hash((("m1", "m2", "p1", "p2", "p3"),))
    assert MARKS == MarkSet(("m1", "m2", "p1", "p2", "p3"))
    assert MarkSet.__match_args__ == ("labels",)

    assert repr(SPLIT) == ("WeightedPartition(a=('m1', 'm2', 'p3'), "
                           "b=('p1', 'p2'), d_a=0, d_b=1, e_a=1, e_b=0)")
    assert hash(SPLIT) == hash((("m1", "m2", "p3"), ("p1", "p2"), 0, 1, 1, 0))
    assert SPLIT != WeightedPartition(("m1", "m2", "p3"), ("p1", "p2"), 0, 1)
    assert WeightedPartition.__match_args__ == ("a", "b", "d_a", "d_b",
                                                "e_a", "e_b")

    match KEY:
        case InvariantKey(ProjectiveSpace(r), degree, exponents):
            assert (r, degree, exponents) == (2, 3, (0, 0, 8))
        case _:
            pytest.fail("InvariantKey did not match positionally")


@pytest.mark.parametrize("record, field", [
    (P2, "r"), (P2, "index"), (P1XP1, "index"), (KEY, "degree"),
    (MARKS, "labels"), (SPLIT, "d_a"), (SERIES, "order"), (SERIES, "_nums"),
    (RING, "coeffs"), (BIG, "components")])
def test_records_refuse_assignment(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 7)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == before


def test_value_types_share_the_record_rule():
    # One immutability rule: no value type writes its own guard or
    # equality, and none has a __dict__ to take new attributes.
    assert _Record.__slots__ == ()
    for cls, value in zip(VALUES, (SERIES, RING, BIG)):
        assert issubclass(cls, _Record)
        assert {"__setattr__", "__delattr__", "__eq__"}.isdisjoint(
            vars(cls)), cls
        assert not hasattr(value, "__dict__")
        assert cls.__match_args__ == cls.__slots__
        with pytest.raises(AttributeError):
            value.extra = 1
    assert "__hash__" not in vars(BigQuantumElement)
    assert hash(BIG) == hash((P2, 2, BIG.components))
    again = TruncatedSeries(2, 3, {(0, 2): -2, (1, 0): 1, (4, 0): 5})
    assert again == SERIES and hash(again) == hash(SERIES)
    assert SERIES != TruncatedSeries(2, 2, SERIES.terms)
    assert RING == RingElement(P2, {1: {(2,): 3}}) and RING != SERIES


def _modules_loaded_by(code, *argv):
    """Modules that running ``code`` loads beyond a bare interpreter's,
    with the run's stdout; they are listed at exit, after the code ran."""
    bare = run_python("-c", "import sys; print(*sys.modules)")
    probe = ("import atexit, sys\n"
             "atexit.register(lambda: print(*sys.modules, file=sys.stderr))\n")
    run = run_python("-c", probe + code, *argv)
    return set(run.stderr.split()) - set(bare.stdout.split()), run.stdout


# What ``python -m gwcalc ...`` runs.
AS_MAIN = ("import runpy\n"
           "runpy.run_module('gwcalc', run_name='__main__', alter_sys=True)")
HEAVY = {"dataclasses", "inspect", "json", "fractions", "decimal", "gwcalc.gw",
         "gwcalc.potentials", "gwcalc.rings", "gwcalc.series",
         "gwcalc.partitions"}


@pytest.mark.parametrize("argv, stdout", [
    (("nd", "--d", "3"), "12\n"),
    (("nde", "--d", "2", "--e", "2"), "12\n"),
])
def test_light_commands_import_only_their_layers(argv, stdout):
    added, out = _modules_loaded_by(AS_MAIN, *argv, "--format", "plain")
    assert out == stdout
    assert {"gwcalc.cli", "gwcalc.surfaces"} <= added
    assert not added & HEAVY, sorted(added & HEAVY)


def test_no_layer_imports_dataclasses():
    added, _ = _modules_loaded_by("from gwcalc import *\nimport gwcalc.cli")
    assert {f"gwcalc.{m}" for m in SUBMODULES} <= added
    assert "dataclasses" not in added


@pytest.mark.parametrize("argv", [
    ["gw", "--target", "p2", "--degree", "3", "--classes", "h2:2000000"],
    ["gw", "--target", "p1", "--degree", "5", "--classes", "h1:99999999999"],
])
def test_huge_class_counts_answer_at_once(argv, capsys):
    # A count goes into the exponent vector as a number, not as a list of
    # that many class indices; the dimension gate then answers 0.
    started = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - started < 0.5
    assert capsys.readouterr() == ("0\n", "")


def test_exact_loads_fractions_on_first_use_of_rational():
    script = ("import sys, gwcalc.exact as exact\n"
              "print('fractions' in sys.modules)\n"
              "print(*dir(exact))\n"
              "print(exact.Rational is exact.Fraction, exact.Rational.__module__,"
              " 'fractions' in sys.modules)")
    loaded, listed, resolved = run_python("-c", script).stdout.splitlines()
    assert loaded == "False"
    assert listed.split() == [
        "Fraction", "Rational", "__builtins__", "__cached__", "__doc__",
        "__file__", "__loader__", "__name__", "__package__", "__spec__",
        "annotations", "as_integer", "binomial", "factorial", "is_integer",
        "math", "multinomial"]
    assert resolved == "True fractions True"
    with pytest.raises(AttributeError, match="no attribute 'Decimal'"):
        gwcalc.exact.Decimal


def test_the_test_extra_pins_what_ci_installs():
    # ``pip install -e .[test]`` gives the versions the tier-1 workflow
    # installs and tests with: the same pins, every one exact.
    def read(*path):
        with open(os.path.join(REPO_ROOT, *path), encoding="utf-8") as handle:
            return handle.read()
    extra = re.search(r"^test = \[(.*)\]$", read("pyproject.toml"), re.M)
    install = re.search(r"pip install (.*)$",
                        read(".github", "workflows", "tier1.yml"), re.M)
    pins = sorted(re.findall(r'"([^"]+)"', extra.group(1)))
    assert pins and all(re.fullmatch(r"[\w.-]+==[\w.]+", pin) for pin in pins)
    assert sorted(install.group(1).split()) == pins
