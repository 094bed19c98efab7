import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from types import SimpleNamespace

import jsonschema
import pytest

from gwcalc import cli, partitions
from gwcalc.cli import main
from gwcalc.series import parse_series
from gwcalc.surfaces import n_d


# The child process imports the same gwcalc as these tests, installed or not.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(cli.__file__))


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("GW_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "gwcalc", *args],
        capture_output=True, text=True, env=env)


def schema():
    with resources.files("gwcalc").joinpath(
            "data/output_schema.json").open() as handle:
        return json.load(handle)


def test_nd_single():
    result = run_cli("nd", "--d", "4")
    assert result.returncode == 0
    assert result.stdout.strip() == "620"


def test_nd_table_csv():
    result = run_cli("nd", "--d", "3", "--upto", "--format", "csv")
    assert result.returncode == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "d,N_d"
    assert lines[1:] == ["1,1", "2,1", "3,12"]


def test_nd_invalid_degree_exits_2():
    result = run_cli("nd", "--d", "0")
    assert result.returncode == 2
    assert "error" in result.stderr


def test_nde_single_and_matrix():
    result = run_cli("nde", "--d", "3", "--e", "2")
    assert result.returncode == 0
    assert result.stdout.strip() == "96"
    result = run_cli("nde", "--upto", "1")
    assert result.stdout.splitlines() == ["x 1", "1 1"]
    result = run_cli("nde", "--d", "0", "--e", "0")
    assert result.returncode == 2


def test_gw_examples():
    assert run_cli("gw", "--target", "p3", "--degree", "1",
                   "--classes", "h2:4").stdout.strip() == "2"
    assert run_cli("gw", "--target", "p1xp1", "--degree", "1,1",
                   "--classes", "T3:3").stdout.strip() == "1"
    assert run_cli("gw", "--target", "p2", "--collected",
                   "--classes", "h2:8").stdout.strip() == "12"


def test_gw_malformed_classes_exit_2():
    assert run_cli("gw", "--target", "p2", "--degree", "1",
                   "--classes", "z9:1").returncode == 2
    assert run_cli("gw", "--target", "p2", "--degree", "1,1",
                   "--classes", "h2:2").returncode == 2


@pytest.mark.parametrize("degree", [["--degree", "1073741824"],
                                    ["--collected"]])
def test_gw_past_2_to_the_32_marks_exits_2_at_once(degree):
    # The reconstruction packs each class count in a 32-bit digit; a key
    # of 2^32 marks is refused before any frame starts, which would first
    # list every mark.
    started = time.perf_counter()
    result = run_cli("gw", "--target", "p3", *degree,
                     "--classes", "h2:4294967296")
    assert time.perf_counter() - started < 1
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.splitlines() == [
        "error: 4294967296 marks is more than the 2^32 - 1 an invariant of "
        "P^3 can be reconstructed with"]


def test_gw_empty_class_count_exits_2():
    # ``h2:`` names no count; a bare ``h2`` is one class.
    result = run_cli("gw", "--target", "p2", "--degree", "1",
                     "--classes", "h2:")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.splitlines() == ["error: bad class count in 'h2:'"]
    assert run_cli("gw", "--target", "p2", "--degree", "1",
                   "--classes", "h2,h2").stdout == "1\n"


def test_qmul_small():
    result = run_cli("qmul", "--target", "p2", "--small", "h1", "h2")
    assert result.stdout.strip() == "q·h0"
    result = run_cli("qmul", "--target", "p1xp1", "--small", "T1", "T1")
    assert result.stdout.strip() == "q_v·T0"


def test_qmul_big_runs():
    result = run_cli("qmul", "--target", "p2", "--big", "--order", "3",
                     "h0", "h1")
    assert result.returncode == 0
    assert result.stdout.strip() == "(1)·h1"


def test_wdvv_zero():
    result = run_cli("wdvv", "--target", "p2", "--order", "8")
    assert result.returncode == 0
    assert result.stdout.strip() == "ZERO up to order 8"
    result = run_cli("wdvv", "--target", "p1xp1", "--order", "6")
    assert result.returncode == 0
    assert result.stdout.strip() == "ZERO up to order 6"


def test_wdvv_poisoned_cache_exits_1(tmp_path):
    cache = tmp_path / "cache.txt"
    cache.write_text("nd:3\t13\n")
    result = run_cli("wdvv", "--target", "p2", "--order", "6",
                     env_extra={"GW_CACHE": str(cache)})
    assert result.returncode == 1
    assert result.stderr.splitlines() == [
        "verification failed: NONZERO first term 1/120·x^5"]
    cache.write_text("nde:1,2\t2\n")
    result = run_cli("wdvv", "--target", "p1xp1", "--order", "6",
                     env_extra={"GW_CACHE": str(cache)})
    assert result.returncode == 1
    assert result.stderr.splitlines() == [
        "verification failed: NONZERO first term x3^2"]


def test_potential():
    result = run_cli("potential", "--target", "p1xp1")
    assert result.stdout.strip() == \
        "x0·x1·x2 + 1/2·x0^2·x3"
    result = run_cli("potential", "--target", "p1", "--quantum",
                     "--order", "3")
    assert result.stdout.strip() == \
        "1 + x1 + 1/2·x1^2 + 1/6·x1^3 + 1/2·x0^2·x1"
    result = run_cli("potential", "--target", "p2", "--quantum",
                     "--order", "4")
    assert result.stdout.splitlines() == [
        "G111: 1/2·x^2",
        "G112: x + 1/6·x^4",
        "G122: 1 + 1/3·x^3",
        "G222: 1/2·x^2",
    ]
    result = run_cli("potential", "--target", "p1xp1", "--quantum",
                     "--order", "3")
    assert result.stdout.strip() == (
        "2·x3 + 1/6·x3^3 + x2·x3 + 1/2·x2^2·x3 + x1·x3 + 1/2·x1^2·x3")


def test_partitions_counts():
    result = run_cli("partitions", "--marks", "6", "--degree", "2",
                     "--pins", "m1,m2:p1,p2", "--count")
    assert result.stdout.strip() == "12"
    result = run_cli("partitions", "--marks", "9", "--degree", "3",
                     "--pins", "m1,m2:p1,p2", "--count")
    assert result.stdout.strip() == "128"


def test_partitions_json_listing():
    result = run_cli("partitions", "--marks", "4", "--degree", "0",
                     "--pins", "m1,m2:p1,p2", "--format", "json")
    record = json.loads(result.stdout)
    assert record["values"] == [{"partition": {
        "A": ["m1", "m2"], "B": ["p1", "p2"], "dA": 0, "dB": 0}}]


GW_COLLECTED = ("gw", "--target", "p2", "--collected", "--classes", "h2:8")
P2_QUANTUM = ("potential", "--target", "p2", "--quantum", "--order", "4")
PARTITION_COUNT = ("partitions", "--marks", "6", "--degree", "2",
                   "--pins", "m1,m2:p1,p2", "--count")


def small(target, i, j):
    return ("qmul", "--target", target, "--small", i, j)


def gw(target, degree, classes):
    return ("gw", "--target", target, "--degree", degree, "--classes", classes)


@pytest.mark.parametrize("args, fmt, expected", [
    (GW_COLLECTED, "csv", "value\n12\n"),
    (GW_COLLECTED, "json",
     '{"command": "gw", "inputs": {"classes": "h2:8", "collected": true, '
     '"target": "p2"}, "values": [{"decimal": "12", "rational": "12/1"}]}\n'),
    (P2_QUANTUM, "csv",
     "value\nG111: 1/2·x^2\nG112: x + 1/6·x^4\nG122: 1 + 1/3·x^3\n"
     "G222: 1/2·x^2\n"),
    (P2_QUANTUM, "json",
     '{"command": "potential", "inputs": {"order": 4, "quantum": true, '
     '"target": "p2"}, "values": [{"series": "G111: 1/2\\u00b7x^2"}, '
     '{"series": "G112: x + 1/6\\u00b7x^4"}, '
     '{"series": "G122: 1 + 1/3\\u00b7x^3"}, '
     '{"series": "G222: 1/2\\u00b7x^2"}]}\n'),
    (PARTITION_COUNT, "csv", "count\n12\n"),
    (PARTITION_COUNT, "json",
     '{"command": "partitions", "inputs": {"count": true, "degree": "2", '
     '"marks": 6, "pins": "m1,m2:p1,p2"}, '
     '"values": [{"decimal": "12", "rational": "12/1"}]}\n'),
    (small("p1", "h1", "h1"), "plain", "q·h0\n"),
    (small("p4", "h3", "h4"), "json",
     '{"command": "qmul", "inputs": {"operands": ["h3", "h4"], '
     '"small": true, "target": "p4"}, '
     '"values": [{"element": "q\\u00b7h2"}]}\n'),
    (small("p1xp1", "T1", "T3"), "plain", "q_v·T2\n"),
    (small("p1xp1", "T2", "T2"), "csv", "value\nq_h·T0\n"),
    (("potential", "--target", "p3"), "plain",
     "1/6·x1^3 + x0·x1·x2 + 1/2·x0^2·x3\n"),
    (("potential", "--target", "p1xp1"), "json",
     '{"command": "potential", "inputs": {"order": null, "quantum": false, '
     '"target": "p1xp1"}, "values": [{"series": '
     '"x0\\u00b7x1\\u00b7x2 + 1/2\\u00b7x0^2\\u00b7x3"}]}\n'),
    (gw("p1xp1", "0,0", "T0,T1,T2"), "plain", "1\n"),
    (gw("p1xp1", "0,0", "T0,T1,T1"), "csv", "value\n0\n"),
    (gw("p1xp1", "1", "T3"), "plain",
     (2, "error: degree '1' does not match the target (expected d,e)\n")),
    (gw("p2", "1,1", "h2:2"), "plain",
     (2, "error: degree '1,1' does not match the target (expected d)\n")),
    # A class index is ASCII digits: int() would reject the superscript.
    (gw("p2", "1", "h²"), "plain",
     (2, "error: unknown basis class 'h²' for P^2\n")),
])
def test_record_stdout_is_pinned(args, fmt, expected):
    # A string is the stdout of a run that exits 0; a pair is the exit
    # code and stderr of a usage error, which prints nothing on stdout.
    code, out, err = ((0, expected, "") if isinstance(expected, str)
                      else (expected[0], "", expected[1]))
    result = run_cli(*args, "--format", fmt)
    assert (result.returncode, result.stdout, result.stderr) == (code, out, err)


def test_partition_count_takes_the_closed_form(monkeypatch, capsys):
    # 4 bidegree splits times 2^60 sides for the spare marks: far too many
    # partitions to list, so --count must not enumerate them.
    def enumerate_partitions(*args):
        raise AssertionError("--count listed the partitions")
    monkeypatch.setattr(partitions, "enumerate_partitions",
                        enumerate_partitions)
    assert main(["partitions", "--marks", "64", "--degree", "1,1",
                 "--pins", "m1,m2:p1,p2", "--count"]) == 0
    assert capsys.readouterr().out == "4611686018427387904\n"


def test_a_listing_past_the_partition_bound_exits_2_at_once(capsys):
    # 2 degree splits times 2^26 sides: --count answers, the listing is
    # refused before any partition is built.
    argv = ["partitions", "--marks", "30", "--degree", "1",
            "--pins", "m1,m2:p1,p2"]
    assert main([*argv, "--count"]) == 0
    assert capsys.readouterr() == ("134217728\n", "")
    started = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - started < 1
    assert capsys.readouterr() == (
        "", f"error: 134217728 partitions are over the listing bound of "
        f"{cli._MAX_PARTITIONS}; --count gives their number\n")


def test_a_listing_at_the_partition_bound_answers(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_MAX_PARTITIONS", 32)
    argv = ["partitions", "--degree", "1,1", "--pins", "m1,m2:p1,p2"]
    assert main([*argv, "--marks", "7"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 32
    assert main([*argv, "--marks", "8"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: 64 partitions are over the listing bound of 32;")


def test_partitions_bad_degree_exits_2():
    # A degree has one component, or two on P1xP1; a third is not dropped.
    for degree in ("1,2,3", "x", "1,"):
        result = run_cli("partitions", "--marks", "4", "--degree", degree,
                         "--pins", "m1,m2:p1,p2", "--count")
        assert result.returncode == 2, degree
        assert result.stdout == ""


def test_json_outputs_validate_against_schema():
    invocations = [
        ("nd", "--d", "5"),
        ("nd", "--d", "3", "--upto"),
        ("nde", "--d", "2", "--e", "2"),
        ("nde", "--upto", "2"),
        ("gw", "--target", "p2", "--degree", "3", "--classes", "h2:8"),
        ("qmul", "--target", "p1xp1", "--small", "T3", "T3"),
        ("wdvv", "--target", "p2", "--order", "4"),
        ("potential", "--target", "p2"),
        ("partitions", "--marks", "6", "--degree", "2",
         "--pins", "m1,m2:p1,p2", "--count"),
        ("partitions", "--marks", "5", "--degree", "1,1",
         "--pins", "m1,m2:p1,p2"),
    ]
    valid = schema()
    for args in invocations:
        result = run_cli(*args, "--format", "json")
        assert result.returncode == 0, args
        record = json.loads(result.stdout)
        jsonschema.validate(record, valid)


def test_json_timing_field():
    result = run_cli("nd", "--d", "6", "--format", "json", "--timing")
    record = json.loads(result.stdout)
    assert "elapsed_ms" in record and record["elapsed_ms"] >= 0
    jsonschema.validate(record, schema())
    # without --timing the field is absent so output is reproducible
    result = run_cli("nd", "--d", "6", "--format", "json")
    assert "elapsed_ms" not in json.loads(result.stdout)


def test_values_round_trip():
    record = json.loads(run_cli("nd", "--d", "10", "--format",
                                "json").stdout)
    entry = record["values"][0]
    assert Fraction(entry["rational"]) == Fraction(entry["decimal"])
    assert entry["decimal"] == "40739017561997799680"
    record = json.loads(run_cli("potential", "--target", "p2",
                                "--format", "json").stdout)
    text = record["values"][0]["series"]
    assert parse_series(text, 3, 3).render() == text


def test_byte_identical_determinism():
    for args in (("nd", "--d", "8", "--format", "json"),
                 ("wdvv", "--target", "p1xp1", "--order", "4"),
                 ("gw", "--target", "p2", "--collected",
                  "--classes", "h2:8", "--format", "csv")):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


def test_cache_round_trip(tmp_path):
    cache = tmp_path / "cache.txt"
    result = run_cli("nd", "--d", "6", env_extra={"GW_CACHE": str(cache)})
    assert result.returncode == 0
    content = cache.read_text()
    assert "nd:6\t26312976" in content
    for line in content.strip().splitlines():
        key, value = line.split("\t")
        assert key.startswith(("nd:", "nde:")) and value.isdigit()
    # a second run reads the cache and reproduces the value
    result = run_cli("nd", "--d", "6", env_extra={"GW_CACHE": str(cache)})
    assert result.stdout.strip() == "26312976"


def test_cache_drops_the_keys_no_table_reads(tmp_path):
    # N_d below d = 2 and N_(d,e) with a zero side come from the recursions
    # themselves, so such lines are dropped on load and not written back.
    cache = tmp_path / "cache.txt"
    cache.write_text("nd:-2\t5\nnd:0\t7\nnde:0,0\t3\nnd:3\t12\n")
    result = run_cli("nd", "--d", "4", env_extra={"GW_CACHE": str(cache)})
    assert (result.returncode, result.stdout) == (0, "620\n")
    assert cache.read_text() == "nd:2\t1\nnd:3\t12\nnd:4\t620\n"


@pytest.fixture
def restore_int_str_limit():
    """``main`` lifts the int<->str digit limit; undo that after the test."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    yield
    if limit is not None:
        sys.set_int_max_str_digits(limit)


def test_nd_prints_counts_past_the_digit_limit(capsys, monkeypatch,
                                               restore_int_str_limit):
    monkeypatch.delenv("GW_CACHE", raising=False)
    assert main(["nd", "--d", "600"]) == 0
    text = capsys.readouterr().out.strip()
    assert len(text) == 4552
    assert int(text) == n_d(600)


def test_gw_on_p2_prints_the_plane_count_at_high_degree(
        capsys, monkeypatch, restore_int_str_limit):
    monkeypatch.delenv("GW_CACHE", raising=False)
    assert main(["gw", "--target", "p2", "--degree", "400",
                 "--classes", "h2:1199"]) == 0
    text = capsys.readouterr().out
    assert main(["nd", "--d", "400"]) == 0
    assert text == capsys.readouterr().out


def test_cache_round_trips_counts_past_the_digit_limit(tmp_path,
                                                       restore_int_str_limit):
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    line = f"nd:600\t{n_d(600)}\n"
    cache = tmp_path / "cache.txt"
    cache.write_text(line)
    result = run_cli("nd", "--d", "600", env_extra={"GW_CACHE": str(cache)})
    assert result.returncode == 0
    assert result.stdout == line[len("nd:600\t"):]
    # the entry was loaded, not dropped: nothing below it was recomputed
    assert cache.read_text() == line


def test_cache_write_failing_midway_keeps_the_old_file(
        tmp_path, monkeypatch, capsys, restore_int_str_limit):
    cache = tmp_path / "cache.txt"
    monkeypatch.setenv("GW_CACHE", str(cache))
    assert main(["nd", "--d", "4"]) == 0
    old = cache.read_bytes()
    assert b"nd:4\t620\n" in old
    assert [p.name for p in tmp_path.iterdir()] == ["cache.txt"]

    def disk_full(file, mode="r", **kwargs):
        handle = open(file, mode, **kwargs)
        if "w" in mode:
            write = handle.write

            def half(text):
                write(text[:len(text) // 2])
                handle.flush()
                raise OSError(28, "No space left on device")

            handle.write = half
        return handle

    monkeypatch.setattr(cli, "open", disk_full, raising=False)
    assert main(["nd", "--d", "7"]) == 3
    assert "OSError" in capsys.readouterr().err
    assert cache.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["cache.txt"]


def test_cache_write_through_a_symlink_updates_its_target(tmp_path):
    target = tmp_path / "counts.txt"
    target.write_text("nd:1\t1\n")
    link = tmp_path / "cache.txt"
    link.symlink_to(target.name)
    result = run_cli("nd", "--d", "4", env_extra={"GW_CACHE": str(link)})
    assert result.returncode == 0
    assert link.is_symlink()
    assert "nd:4\t620\n" in target.read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.txt",
                                                         "counts.txt"]


def test_cache_write_keeps_the_file_mode(tmp_path):
    cache = tmp_path / "cache.txt"
    cache.write_text("nd:1\t1\n")
    cache.chmod(0o640)
    result = run_cli("nd", "--d", "4", env_extra={"GW_CACHE": str(cache)})
    assert result.returncode == 0
    assert "nd:4\t620\n" in cache.read_text()
    assert cache.stat().st_mode & 0o777 == 0o640


def test_usage_error_on_unknown_target():
    assert run_cli("gw", "--target", "p0", "--degree", "1",
                   "--classes", "h1:2").returncode == 2
    assert run_cli("wdvv", "--target", "p3", "--order", "4").returncode == 2


@pytest.mark.parametrize("argv", [
    ["gw", "--target", "p10001", "--degree", "1", "--classes", "h1"],
    ["qmul", "--target", "p10001", "h1", "h2"],
    ["potential", "--target", "P10001"],
])
def test_projective_space_past_the_bound_exits_2_at_once(
        argv, capsys, monkeypatch, restore_int_str_limit):
    # The basis of P^r grows with r before any gate runs, so a target far
    # past the bound would take seconds and gigabytes to answer.
    monkeypatch.delenv("GW_CACHE", raising=False)
    started = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - started < 0.5
    assert capsys.readouterr() == ("", f"error: target {argv[2]!r} is too "
                                   "large (P^r is supported up to r = "
                                   "10000)\n")


@pytest.mark.parametrize("argv, stdout", [
    (["gw", "--target", "p10000", "--degree", "1", "--classes", "h1"], "0\n"),
    (["qmul", "--target", "p10000", "h1", "h2"], "h3\n"),
])
def test_projective_space_at_the_bound_still_answers(
        argv, stdout, capsys, monkeypatch, restore_int_str_limit):
    monkeypatch.delenv("GW_CACHE", raising=False)
    assert main(argv) == 0
    assert capsys.readouterr() == (stdout, "")


def test_a_target_with_non_ascii_digits_is_a_usage_error(
        capsys, monkeypatch, restore_int_str_limit):
    monkeypatch.delenv("GW_CACHE", raising=False)
    assert main(["qmul", "--target", "p\u00b2", "h1", "h2"]) == 2
    assert capsys.readouterr().err == (
        "error: unknown target 'p\u00b2' (use p1, p2, ..., or p1xp1)\n")


def test_cache_path_that_is_a_directory_exits_3(tmp_path):
    result = run_cli("nd", "--d", "3", env_extra={"GW_CACHE": str(tmp_path)})
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr.startswith("internal error: IsADirectoryError: ")
    assert len(result.stderr.splitlines()) == 1
    assert "Traceback" not in result.stderr


def test_internal_error_exits_3_and_leaves_the_cache_alone(
        tmp_path, monkeypatch, capsys, restore_int_str_limit):
    def broken(args):
        n_d(3)  # fills the in-memory tables that a save would write
        raise RuntimeError("boom\nsecond line")

    cache = tmp_path / "cache.txt"
    monkeypatch.setenv("GW_CACHE", str(cache))
    monkeypatch.setitem(cli._COMMANDS, "nd", broken)
    assert main(["nd", "--d", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: boom second line\n"
    assert not cache.exists()


def test_public_exports_are_pinned():
    # The names exported by the package root are a contract: refactors
    # behind them keep this list byte-identical, order included.
    import gwcalc
    assert gwcalc.__all__ == [
        "BigQuantumElement", "InvariantKey", "MarkSet", "P1XP1",
        "P1xP1", "ProjectiveSpace", "Rational", "RingElement",
        "TargetSpace", "TruncatedSeries", "WeightedPartition",
        "as_integer", "bidegree_intersection", "big_qmul", "binomial",
        "boundary_divisor_count_m0n", "classical_potential",
        "collected_invariant", "count_labeled_configurations",
        "cup_p1x1", "cup_pr", "dim_moduli", "dimension_admissible",
        "enumerate_partitions", "exponents_from_classes", "factorial",
        "gamma_p1x1", "gamma_p2_reduced", "gw_invariant", "gw_p1",
        "gw_p1x1", "gw_potential_p1", "gw_pr", "genus_nodal_p2",
        "genus_smooth_p1x1", "is_integer", "n_d", "n_d_raw", "n_de",
        "n_de_raw", "parse_basis_class", "parse_series", "phi_ijk",
        "quantum_potential_p1x1", "quantum_potential_p2_reduced",
        "reduce_invariant", "required_points", "small_qmul",
        "small_qmul_p1x1", "small_qmul_pr", "star_power",
        "stratum_dimension", "wdvv_general_pr", "wdvv_residual_p1x1",
        "wdvv_residual_p2",
    ]
    assert all(hasattr(gwcalc, name) for name in gwcalc.__all__)


# Per subcommand: argument lists that parse, and ones that argparse rejects.
PARSE_GRID = {
    "nd": [["--d", "3"], ["--d", "3", "--upto"], ["--up", "--d", "2"],
           ["--d", "x"], [], ["--d", "3", "extra"]],
    "nde": [["--d", "1", "--e", "2"], ["--upto", "3"], ["--upto", "x"], []],
    "gw": [["--target", "p3", "--degree", "2", "--classes", "h2:8"],
           ["--target", "p2", "--collected", "--classes", "h2:8"],
           ["--classes", "h2"], ["--target", "p2", "--bogus"]],
    "qmul": [["--target", "p2", "h1", "h2"],
             ["--target", "p2", "--big", "--order", "3", "h1", "h2"],
             ["--target", "p2", "--small", "--big", "h1", "h2"],
             ["--target", "p2", "h1"]],
    "wdvv": [["--target", "p2", "--order", "5"], ["--target", "p2"],
             ["--order", "x", "--target", "p2"]],
    "potential": [["--target", "p3"], ["--target", "p2", "--quantum",
                                       "--order", "4"], ["--quantum"]],
    "partitions": [["--marks", "5", "--degree", "1", "--pins", "m1,m2:p1,p2"],
                   ["--marks", "5", "--degree", "1,1", "--pins",
                    "m1,m2:p1,p2", "--count"], ["--marks", "5"]],
}


def _parse(parser, argv, capsys):
    """The namespace, or argparse's exit code, with what it printed."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    return result, capsys.readouterr()


@pytest.mark.parametrize("command", sorted(PARSE_GRID))
def test_a_parser_for_one_subcommand_parses_like_the_full_one(command,
                                                              capsys):
    # ``main`` builds only the named subcommand's arguments; the help texts,
    # the namespaces and the usage errors must be those of the full parser.
    full, lazy = cli.build_parser(), cli.build_parser(command)
    assert lazy.format_help() == full.format_help()
    grid = [[command, "--help"], ["bogus"], []]
    for rest in PARSE_GRID[command]:
        grid += [[command, *rest], ["--format", "json", command, *rest],
                 [command, *rest, "--timing", "--format", "csv"]]
    for argv in grid:
        assert _parse(lazy, argv, capsys) == _parse(full, argv, capsys), argv


def test_the_parse_grid_covers_every_subcommand():
    assert sorted(PARSE_GRID) == sorted(cli._COMMANDS)


# sha256 of stdout for series-valued commands, recorded before the series
# storage moved to packed monomial keys; the text form must not move.
SERIES_OUTPUT_DIGESTS = {
    ("potential --target p1xp1 --order 10 --quantum", "plain"):
        "e98fa86d7aa99e25e52fb1253959458d82993d4e59159ea7fa02ac0eea75809b",
    ("potential --target p1xp1 --order 10 --quantum", "json"):
        "5ff0ba79fb821433435ad92c527bbc71c503cd255dbd545c7b35e151c7503632",
    ("potential --target p1xp1 --order 10 --quantum", "csv"):
        "c9832530f38362af8d8057af0963f69dec8dbc89f30ae1fa60a3afe84567ebc4",
    ("potential --target p2 --order 12 --quantum", "plain"):
        "401f7484d448faf01530f442b3343097790f9fbcc6880d08f2e8bdc1fd9628b7",
    ("potential --target p2 --order 12 --quantum", "json"):
        "06c8225298c2abee130aaf45fd8d344d53f41babe3676f4da5d4d1ea4c1483dc",
    ("potential --target p2 --order 12 --quantum", "csv"):
        "ad5317f717ae7d0082a16489392da9795bbeefc0019fc61eb8a1daa9ca0c284d",
    ("qmul --target p3 --big --order 6 h1 h2", "plain"):
        "9d871a4a5075cd7afe27e91d58ec2d70e8bb20d7dbc9768ce3df30ae85106a64",
    ("qmul --target p3 --big --order 6 h1 h2", "json"):
        "e9c52e4bbd8b2383fac886a814f4ee3658962384247e92e27bb6411cec446728",
    ("qmul --target p3 --big --order 6 h1 h2", "csv"):
        "888536823338ccc1baaab34bb29c00d0c4e2e85dcc5665698cfd83af9310f34d",
    ("qmul --target p1xp1 --big --order 8 T3 T3", "plain"):
        "24d97db174fdef1a180cb731d927b7227cc06415a16f0e2bb4a481b1a64b228f",
    ("qmul --target p1xp1 --big --order 8 T3 T3", "json"):
        "b902ad02ef76e4e96627fe291dcf232a0afb0e33339e0895c04441244f6ea1a0",
    ("qmul --target p1xp1 --big --order 8 T3 T3", "csv"):
        "efc6d854e4e3506a2dc2be73f455abb62f44520af71f8a607dd5ed86a8c3c866",
    ("wdvv --target p1xp1 --order 8", "plain"):
        "f2766edfad01aa8f090966c6b003ba414520d59f12d756d97416ebec14391276",
    ("wdvv --target p1xp1 --order 8", "json"):
        "0c9060c27ad65641986b128902ae2a272e23c1eee6e928dcfeae10b73d6945db",
    ("wdvv --target p1xp1 --order 8", "csv"):
        "361c1f94904547c58b058ba9404f15c94b81c1eb590b757fc47160c8d7682b9d",
}


@pytest.mark.parametrize("command,fmt", sorted(SERIES_OUTPUT_DIGESTS))
def test_series_output_is_pinned(command, fmt, capsys, monkeypatch,
                                 restore_int_str_limit):
    monkeypatch.delenv("GW_CACHE", raising=False)
    assert main(command.split() + ["--format", fmt]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == \
        SERIES_OUTPUT_DIGESTS[command, fmt]


def test_a_reader_that_closes_early_gets_exit_141(tmp_path):
    # The table runs to hundreds of kilobytes, far past a pipe buffer, so
    # the write after the reader has gone must fail.
    cache = tmp_path / "cache.txt"
    env = dict(os.environ, GW_CACHE=str(cache))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-m", "gwcalc", "nd", "--d", "300", "--upto"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert child.stdout.readline() == b"1\t1\n"
    child.stdout.close()
    assert child.wait(timeout=60) == 141
    assert child.stderr.read() == b""
    child.stderr.close()
    assert not cache.exists()


def test_big_product_on_a_wide_projective_space_answers_quickly():
    started = time.monotonic()
    result = run_cli("qmul", "--target", "p300", "--big", "--order", "1",
                     "h1", "h2")
    assert time.monotonic() - started < 2
    assert result.returncode == 0
    assert result.stdout == "(x299)·h0 + (x300)·h1 + (1)·h3\n"


def _readme_examples():
    """(argv, expected stdout or None) for each ``gwcalc`` line of the
    README's command-line block.  A comment that is a bare value (one word,
    or a quoted text) is that command's whole stdout."""
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as handle:
        section = handle.read().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        words = command.split()
        if not words or words[0] != "gwcalc":
            continue
        argv = words[1:]
        comment = comment.strip()
        if comment.startswith('"'):
            expected = comment[1:].split('"', 1)[0]
        else:
            expected = comment if comment and " " not in comment else None
        examples.append((argv, expected))
    return examples


README_EXAMPLES = _readme_examples()


def test_the_readme_lists_its_examples():
    assert README_EXAMPLES
    assert any(expected is not None for _, expected in README_EXAMPLES)


@pytest.mark.parametrize("argv, expected", README_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in README_EXAMPLES])
def test_readme_examples_hold(argv, expected, capsys, monkeypatch,
                              restore_int_str_limit):
    monkeypatch.delenv("GW_CACHE", raising=False)
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if expected is not None:
        assert out == expected + "\n"


@pytest.mark.parametrize("target, order, free", [
    ("p300", 2, 298), ("p10000", 1, 9998), ("p100", 3, 98),
    ("p1000", 2, 998), ("p4", 3161, 2), ("p10000", 10 ** 1000, 9998),
])
def test_a_big_product_past_the_size_bound_exits_2_at_once(
        target, order, free, capsys, monkeypatch, restore_int_str_limit):
    # f * C(f + order, order) counts the free exponent vectors as the f ints
    # of a dense listing.  With only the bound raised, the sparse listing
    # answers the first three (CPU time and peak RSS, a fresh process each
    # under a 2 GB limit): p300 at order 2 in 1.8 s and 57 MB, p10000 at
    # order 1 in 0.5 s and 56 MB, p100 at order 3 in 5.4-6.7 s and 148 MB;
    # p1000 at order 2 gave no answer in 90 s.  With the dense listing and
    # no bits bound, p4 ran past 60 s with 1.9 GB at order 1000, a tenth of
    # its listing.
    monkeypatch.delenv("GW_CACHE", raising=False)
    started = time.perf_counter()
    assert main(["qmul", "--target", target, "--big", "--order", str(order),
                 "h1", "h2"]) == 2
    assert time.perf_counter() - started < 0.5
    assert capsys.readouterr() == (
        "", f"error: --big at order {order} on P^{target[1:]} is too large: "
        f"with f = {free} free classes, f * C(f + order, order) is over "
        "10000000\n")


@pytest.mark.parametrize("target, order", [
    ("p1", 5279), ("p2", 599), ("p1xp1", 106), ("p3", 179), ("p4", 84),
])
def test_the_size_bound_leaves_narrow_targets_to_the_product(
        target, order, capsys, monkeypatch):
    # P^1, P^2 and P1xP1 have no free class, P^3 one: only the bits of the
    # factorial-sized ints bound them, and each order here is the last one
    # allowed.  The stub runs the library's own bound, over every class as
    # phi_ijk keeps them, and stops before the product itself.
    from gwcalc import potentials, rings

    def bounded(a, b):
        potentials._check_listing(a.target, a.order,
                                  tuple(range(a.target.basis_size)))
        return SimpleNamespace(render=lambda: f"order {a.order}")

    monkeypatch.delenv("GW_CACHE", raising=False)
    monkeypatch.setattr(rings, "big_qmul", bounded)
    operands = ["T1", "T2"] if target == "p1xp1" else ["h1", "h1"]
    assert main(["qmul", "--target", target, "--big", "--order", str(order),
                 *operands]) == 0
    assert capsys.readouterr() == (f"order {order}\n", "")


def test_a_big_product_below_the_size_bound_answers(
        capsys, monkeypatch, restore_int_str_limit):
    monkeypatch.delenv("GW_CACHE", raising=False)
    assert main(["qmul", "--target", "p1000", "--big", "--order", "1",
                 "h1", "h2"]) == 0
    assert capsys.readouterr() == ("(x999)·h0 + (x1000)·h1 + (1)·h3\n", "")


def test_a_narrow_big_product_far_past_the_old_size_bound_answers(
        capsys, monkeypatch):
    monkeypatch.delenv("GW_CACHE", raising=False)
    assert main(["qmul", "--target", "p2", "--big", "--order", "300",
                 "h2", "h2"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0d4264d21b7717eb9002c5de9de986befbea6dcb000f353a1b9ee4b9d9deea28")


@pytest.mark.parametrize("argv, order, target, prefix", [
    (["wdvv", "--target", "p2"], 10 ** 6, "P^2", "wdvv"),
    (["wdvv", "--target", "p2"], 10176, "P^2", "wdvv"),
    (["wdvv", "--target", "p1xp1"], 661, "P1xP1", "wdvv"),
    (["potential", "--quantum", "--target", "p2"], 10 ** 6, "P^2",
     "--quantum"),
    (["potential", "--quantum", "--target", "p1xp1"], 661, "P1xP1",
     "--quantum"),
    (["qmul", "--target", "p2", "--big", "h1", "h2"], 10 ** 6, "P^2",
     "--big"),
    (["qmul", "--target", "p1", "--big", "h1", "h1"], 7468, "P^1", "--big"),
    (["qmul", "--target", "p1xp1", "--big", "T1", "T2"], 10 ** 6, "P1xP1",
     "--big"),
    (["potential", "--quantum", "--target", "p1"], 20000, "P^1",
     "--quantum"),
    (["potential", "--quantum", "--target", "p1"], 10 ** 6, "P^1",
     "--quantum"),
    (["potential", "--quantum", "--target", "p1xp1"], 192, "P1xP1",
     "--quantum"),
    (["qmul", "--target", "p1xp1", "--big", "T1", "T2"], 192, "P1xP1",
     "--big"),
])
def test_a_huge_order_on_a_narrow_target_exits_2_at_once(
        argv, order, target, prefix, capsys, monkeypatch):
    # The factorial row alone holds about order^2 log(order) / 2 bits: at
    # order 10^6 these ran out of memory (exit 3), and just past the bound
    # they ran out of memory or past a minute.  P^1's closed form ran past
    # a minute from order 20,000, and on P1xP1 the rows of exp(<beta, x>)
    # and the output ran out of 2 GB at order 192 (exit 3).
    monkeypatch.delenv("GW_CACHE", raising=False)
    started = time.perf_counter()
    assert main([*argv, "--order", str(order)]) == 2
    assert time.perf_counter() - started < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(
        rf"error: {prefix} at order {order} on {re.escape(target)} is too "
        r"large: \d+ factorial-sized ints of up to order \* "
        r"bitlen\(order\) bits are over 1450000000 bits\n", err)
