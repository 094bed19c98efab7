import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources

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
