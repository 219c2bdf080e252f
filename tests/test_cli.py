from __future__ import annotations

import json
from pathlib import Path
from unittest import mock

import pytest

from conftest import ZERO_PLUS_UNITS, ZERO_UNITS_ONES
from sepcode import cli
from sepcode.cli import (
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_OVERFLOW,
    EXIT_PARSE,
    EXIT_USAGE,
    main,
)
from sepcode.codes import Code, format_code_text, read_code_file


@pytest.fixture
def units_file(tmp_path: Path) -> str:
    path = tmp_path / "units.code"
    path.write_text(format_code_text(ZERO_PLUS_UNITS))
    return str(path)


@pytest.fixture
def ones_file(tmp_path: Path) -> str:
    path = tmp_path / "ones.code"
    path.write_text(format_code_text(ZERO_UNITS_ONES))
    return str(path)


@pytest.fixture
def square_file(tmp_path: Path) -> str:
    """All four binary words of length 2: {1, 4} and {2, 3} share a descendant."""
    path = tmp_path / "square.code"
    path.write_text("2 4 2\n0 0\n0 1\n1 0\n1 1\n")
    return str(path)


# ----------------------------------------------------------------- construct


def test_construct_default_s_writes_file_and_reports(tmp_path, capsys) -> None:
    out = tmp_path / "q12.code"
    rc = main(["construct", "--q", "12", "--out", str(out), "--json"])
    assert rc == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "construct"
    assert report["result"]["s"] == 3
    assert report["result"]["M"] == 162
    code = read_code_file(out)
    assert (code.n, code.M, code.q) == (3, 162, 12)


def test_construct_explicit_s(tmp_path, capsys) -> None:
    out = tmp_path / "q4.code"
    rc = main(["construct", "--q", "4", "--s", "1", "--out", str(out)])
    assert rc == EXIT_OK
    assert "18" in capsys.readouterr().out
    assert read_code_file(out).M == 18


def test_construct_rejects_even_q_minus_s(tmp_path, capsys) -> None:
    rc = main(["construct", "--q", "4", "--s", "2", "--out", str(tmp_path / "x")])
    assert rc == EXIT_USAGE
    assert "odd" in capsys.readouterr().err


# -------------------------------------------------------------------- verify


def test_verify_ssc_holds(units_file, capsys) -> None:
    assert main(["verify", units_file, "--property", "ssc", "--t", "2"]) == EXIT_OK
    assert "holds" in capsys.readouterr().out


def test_verify_ssc_fails_with_witness(ones_file, capsys) -> None:
    rc = main(["verify", ones_file, "--property", "ssc", "--t", "2", "--json"])
    assert rc == EXIT_FAIL
    report = json.loads(capsys.readouterr().out)
    witness = report["result"]["witness"]
    assert witness["coalition"] == [1, 5]
    assert witness["alternative"] == [2, 3, 4]


def test_verify_fpc_fails_on_units(units_file, capsys) -> None:
    rc = main(["verify", units_file, "--property", "fpc", "--t", "2", "--json"])
    assert rc == EXIT_FAIL
    witness = json.loads(capsys.readouterr().out)["result"]["witness"]
    assert witness["coalition"] == [2, 3]
    assert witness["captured"] == [1, 2, 3]


def test_verify_json_carries_engine_stats(units_file, capsys) -> None:
    rc = main(["verify", units_file, "--property", "ssc", "--t", "2", "--json"])
    assert rc == EXIT_OK
    stats = json.loads(capsys.readouterr().out)["result"]["stats"]
    # the three unit pairs each capture the zero word
    assert stats == {
        "pairs": 6,
        "capture_histogram": {"2": 3, "3": 3},
        "max_capture": 3,
    }
    rc = main(["verify", units_file, "--property", "ssc", "--t", "3", "--json"])
    assert rc == EXIT_FAIL
    assert json.loads(capsys.readouterr().out)["result"]["stats"] is None


def test_verify_sc_holds(ones_file) -> None:
    assert main(["verify", ones_file, "--property", "sc", "--t", "2"]) == EXIT_OK


def test_verify_sc_fails_with_a_descendant_collision(square_file, capsys) -> None:
    assert main(["verify", square_file, "--property", "sc", "--json"]) == EXIT_FAIL
    witness = json.loads(capsys.readouterr().out)["result"]["witness"]
    assert witness == {"kind": "descendant-collision", "first": [1, 4], "second": [2, 3]}


def test_verify_with_oracle_flag(ones_file) -> None:
    rc = main(["verify", ones_file, "--property", "ssc", "--t", "2", "--oracle"])
    assert rc == EXIT_FAIL


def test_verify_oracle_restricted_to_ssc(ones_file, capsys) -> None:
    rc = main(["verify", ones_file, "--property", "sc", "--oracle"])
    assert rc == EXIT_USAGE
    assert "oracle" in capsys.readouterr().err


def test_verify_refuses_per_coalition_scans_over_the_work_limit(tmp_path, capsys) -> None:
    units = tmp_path / "unit-vectors.code"
    units.write_text(format_code_text(Code.from_words([(1, 0, 0), (0, 1, 0), (0, 0, 1)])))
    assert main(["verify", str(units), "--property", "fpc", "--t", "5"]) == EXIT_OK
    q12 = tmp_path / "q12.code"
    assert main(["construct", "--q", "12", "--out", str(q12)]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", str(q12), "--property", "ssc", "--t", "5"]) == EXIT_USAGE
    assert "comparisons" in capsys.readouterr().err


def test_verify_a_huge_alphabet(tmp_path, capsys) -> None:
    wide = tmp_path / "wide.code"
    wide.write_text("2 3 1099511627776\n0 1\n5 1099511627775\n7 3\n")
    assert main(["verify", str(wide), "--property", "sc", "--t", "2"]) == EXIT_OK
    assert "holds" in capsys.readouterr().out


def test_verify_reports_parse_errors_with_line(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.code"
    bad.write_text("3 2 2\n0 0 0\n0 0 7\n")
    rc = main(["verify", str(bad), "--property", "ssc"])
    assert rc == EXIT_PARSE
    assert "line 3" in capsys.readouterr().err
    bad.write_text("3 -1 2\n")
    assert main(["verify", str(bad), "--property", "ssc"]) == EXIT_PARSE
    assert "line 1" in capsys.readouterr().err
    bad.write_text("999999999999 1 2\n0 1\n")
    assert main(["verify", str(bad), "--property", "ssc"]) == EXIT_PARSE
    assert "line 2" in capsys.readouterr().err


def test_verify_undecodable_code_file_is_a_parse_error(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.code"
    bad.write_bytes(b"3 1 2\n\xff 0 0\n")
    assert main(["verify", str(bad), "--property", "ssc"]) == EXIT_PARSE
    assert "line 2" in capsys.readouterr().err


INTERNAL_ERRORS = {
    # numpy's MemoryError for an array it cannot allocate, as for construct --q 1000000
    "memory": ("_cmd_construct", ["construct", "--q", "7", "--out", "unused"],
               MemoryError("Unable to allocate 24.6 TiB")),
    # what verify raises for a witness that fails its re-check
    "runtime": ("_cmd_verify", ["verify", "unused", "--property", "fpc"],
                RuntimeError("witness does not re-check on the code")),
}


@pytest.mark.parametrize("kind", sorted(INTERNAL_ERRORS))
def test_internal_errors_exit_70_with_one_line(kind, capsys) -> None:
    handler, args, error = INTERNAL_ERRORS[kind]
    with mock.patch.object(cli, handler, side_effect=error):
        assert main(args) == EXIT_INTERNAL
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"sepcode: internal error: {type(error).__name__}: {error}\n"


# --------------------------------------------------------------------- trace


def test_trace_identifies_pair(units_file, capsys) -> None:
    rc = main(["trace", units_file, "--r", "**0", "--t", "2", "--algorithm", "ssc", "--json"])
    assert rc == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["outcome"] == "identified"
    assert report["result"]["colluders"] == [2, 3]


def test_trace_fully_pinned_line(units_file, capsys) -> None:
    rc = main(["trace", units_file, "--r", "000", "--t", "2", "--json"])
    assert rc == EXIT_OK
    assert json.loads(capsys.readouterr().out)["result"]["colluders"] == [1]


def test_trace_overflow_exit_code(units_file, capsys) -> None:
    rc = main(["trace", units_file, "--r", "***", "--t", "2", "--json"])
    assert rc == EXIT_OVERFLOW
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["outcome"] == "overflow"
    assert report["result"]["colluders"] == [2, 3, 4]


def test_trace_fpc_algorithm(units_file, capsys) -> None:
    rc = main(["trace", units_file, "--r", "**0", "--algorithm", "fpc", "--json"])
    assert rc == EXIT_OVERFLOW
    assert json.loads(capsys.readouterr().out)["result"]["colluders"] == [1, 2, 3]


def test_trace_rejects_an_r_no_codeword_matches(units_file, capsys) -> None:
    for algorithm in ("fpc", "ssc"):
        assert main(["trace", units_file, "--r", "11*", "--algorithm", algorithm]) == EXIT_USAGE
        assert "infeasible R" in capsys.readouterr().err


def test_trace_rejects_bad_r_line(units_file, capsys) -> None:
    assert main(["trace", units_file, "--r", "0x0"]) == EXIT_USAGE
    assert main(["trace", units_file, "--r", "**"]) == EXIT_USAGE


# ------------------------------------------------------------------ simulate


def test_simulate_prints_statistics_and_feasible_line(units_file, capsys) -> None:
    rc = main(["simulate", units_file, "--colluders", "2,3", "--dim", "8"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[1] == "R = **0"


def test_simulate_then_trace_recovers_colluders(units_file, capsys) -> None:
    rc = main(
        ["simulate", units_file, "--colluders", "2,3", "--dim", "8", "--then-trace", "--json"]
    )
    assert rc == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["match"] is True
    assert report["result"]["trace"]["colluders"] == [2, 3]


def test_simulate_then_trace_rejects_eps_from_half_over_t(units_file, capsys) -> None:
    args = ["simulate", units_file, "--colluders", "2,3", "--dim", "8", "--then-trace"]
    assert main(args + ["--t", "3", "--eps", "0.2"]) == EXIT_USAGE
    assert "1/(2t)" in capsys.readouterr().err
    assert main(args + ["--t", "2", "--eps", "0.25"]) == EXIT_USAGE
    assert main(args + ["--t", "3", "--eps", "0.16"]) == EXIT_OK
    # without --then-trace no coalition bound applies
    assert main(args[:-1] + ["--t", "3", "--eps", "0.2"]) == EXIT_OK


def test_simulate_single_colluder_reproduces_its_bits(units_file, capsys) -> None:
    rc = main(["simulate", units_file, "--colluders", "2", "--dim", "8", "--json"])
    assert rc == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["R"] == "100"
    assert [round(v, 9) for v in report["result"]["T"]] == [1.0, 0.0, 0.0]


def test_simulate_zero_word_colluder(units_file, capsys) -> None:
    rc = main(["simulate", units_file, "--colluders", "1", "--dim", "8", "--json"])
    assert rc == EXIT_OK
    assert json.loads(capsys.readouterr().out)["result"]["R"] == "000"


def test_simulate_rejects_a_non_finite_alpha(units_file, capsys) -> None:
    for alpha in ("nan", "inf"):
        args = ["simulate", units_file, "--colluders", "2,3", "--alpha", alpha, "--then-trace"]
        assert main(args) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "alpha" in captured.err


def test_simulate_then_trace_prints_none_when_nobody_is_accused(square_file, capsys) -> None:
    rc = main(["simulate", square_file, "--colluders", "1,4", "--then-trace"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1:] == [
        "R = **",
        "recovered colluders: (none) (match=false)",
    ]


def test_simulate_rejects_bad_colluders(units_file, capsys) -> None:
    assert main(["simulate", units_file, "--colluders", "9"]) == EXIT_USAGE
    assert main(["simulate", units_file, "--colluders", "a,b"]) == EXIT_USAGE
    assert main(["simulate", units_file, "--colluders", "2,2"]) == EXIT_USAGE
    assert "colluder 2 is listed twice" in capsys.readouterr().err
    assert main(["simulate", units_file, "--colluders", ","]) == EXIT_USAGE
    assert "at least one colluder is required" in capsys.readouterr().err


def test_simulate_requires_a_code_file(capsys) -> None:
    assert main(["simulate", "--colluders", "1"]) == EXIT_USAGE


def test_unwritable_output_is_a_usage_error(tmp_path, capsys) -> None:
    rc = main(["construct", "--q", "4", "--out", str(tmp_path / "no" / "dir" / "x.code")])
    assert rc == EXIT_USAGE


# ------------------------------------------------------------------- compose


def test_compose_q_ary_round_trip(tmp_path, capsys) -> None:
    src = tmp_path / "q4.code"
    out = tmp_path / "binary.code"
    assert main(["construct", "--q", "4", "--out", str(src)]) == EXIT_OK
    capsys.readouterr()
    rc = main(["compose", str(src), "--out", str(out), "--json"])
    assert rc == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["result"] == {
        "n": 12,
        "M": 18,
        "q": 2,
        "source_q": 4,
        "out": str(out),
    }
    composed = read_code_file(out)
    assert (composed.n, composed.M, composed.q) == (12, 18, 2)
    assert main(["verify", str(out), "--property", "ssc", "--t", "2"]) == EXIT_OK


# ------------------------------------------------------------- report shape


def test_reports_are_byte_identical_across_runs(units_file, capsys) -> None:
    args = ["simulate", units_file, "--colluders", "2,3", "--dim", "16",
            "--seed", "5", "--then-trace", "--json"]
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == first


def test_json_report_to_file_keeps_human_output(units_file, tmp_path, capsys) -> None:
    target = tmp_path / "report.json"
    rc = main(["verify", units_file, "--property", "ssc", "--json", str(target)])
    assert rc == EXIT_OK
    assert "holds" in capsys.readouterr().out
    report = json.loads(target.read_text())
    assert report["version"]
    assert report["inputs"]["property"] == "ssc"


def test_missing_file_is_a_usage_error(capsys) -> None:
    assert main(["verify", "/nonexistent.code", "--property", "ssc"]) == EXIT_USAGE


def test_unknown_flag_is_a_usage_error(units_file, capsys) -> None:
    assert main(["verify", units_file, "--property", "ssc", "--bogus"]) == EXIT_USAGE


# One run of each subcommand: its arguments after the subcommand name, with
# {units} and {tmp} filled in, and its exit code.
SUBCOMMAND_RUNS = {
    "construct": (["--q", "4", "--out", "{tmp}/q4.code"], EXIT_OK),
    "verify": (["{units}", "--property", "fpc"], EXIT_FAIL),
    "trace": (["{units}", "--r", "***"], EXIT_OVERFLOW),
    "simulate": (["{units}", "--colluders", "2,3", "--dim", "8", "--then-trace"], EXIT_OK),
    "compose": (["{units}", "--out", "{tmp}/composed.code"], EXIT_OK),
}


@pytest.mark.parametrize("command", list(SUBCOMMAND_RUNS))
def test_every_subcommand_emits_one_report_envelope(
    command, units_file, tmp_path, capsys
) -> None:
    rest, exit_code = SUBCOMMAND_RUNS[command]
    argv = [command] + [arg.format(units=units_file, tmp=tmp_path) for arg in rest]
    assert main(argv + ["--json"]) == exit_code
    stdout = capsys.readouterr().out
    report = json.loads(stdout)
    assert set(report) == {"command", "inputs", "result", "version"}
    assert report["command"] == command
    target = tmp_path / "report.json"
    assert main(argv + ["--json", str(target)]) == exit_code
    assert target.read_bytes() == stdout.encode()
