import json
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

from cuspcount import branch_counter, cli, cusp_pipeline
from cuspcount.cli import main, render_json, report_to_dict
from cuspcount.cusp_pipeline import run
from cuspcount.errors import DimensionInfinite, NegativeBranchCount, PipelineError
from cuspcount.exprparse import parse_poly
from cuspcount.standard_basis import LocalAlgebra

from support import EX1

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def ex1_report():
    return run(parse_poly(EX1[0]), parse_poly(EX1[1]))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_json_worked_family(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--f1", EX1[0], "--f2", EX1[1], "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["sigma"] == [0, 1, 0, 3]
    assert doc["cusp_deg_pos_t"] == -1
    assert doc["cusp_deg_neg_t"] == -3
    assert doc["hypotheses"]["dim_t_f1_f2"] == 5
    assert doc["b0"] == 4 and doc["b0_prime"] == 2
    assert doc["branch"]["xi"] == 2 and doc["branch"]["k"] == 4
    assert doc["parity_ok"] is True


def test_analyze_text_output(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--f1", EX1[0], "--f2", EX1[1])
    assert code == 0
    assert "cusp points bifurcating from the origin" in out
    assert "t > 0: 0 with degree +1, 1 with degree -1" in out
    assert "t < 0: 0 with degree +1, 3 with degree -1" in out


def test_hypothesis_failure_exit_code(capsys):
    code, _, err = run_cli(capsys, "analyze", "--f1", "x1", "--f2", "x2")
    assert code == 2
    assert "J(0)" in err


def test_internal_error_is_not_a_hypothesis_failure(capsys, monkeypatch):
    def broken_run(*args, **kwargs):
        raise PipelineError(
            "count_branches", NegativeBranchCount("b0 = deg(H+) - deg(H-) = -2")
        )

    monkeypatch.setattr(cli, "run", broken_run)
    code, out, err = run_cli(capsys, "analyze", "--f1", EX1[0], "--f2", EX1[1])
    assert code == 3
    assert out == ""
    assert "internal error" in err
    assert "count_branches" in err
    assert "b0 = deg(H+) - deg(H-) = -2" in err


def test_any_error_in_a_stage_is_an_internal_error(capsys, monkeypatch):
    # an error outside the package's hierarchy is a bug too: run() tags it
    # with its stage, and the CLI reports it as such without a traceback
    def broken_solve(*args):
        return 1 // 0

    monkeypatch.setattr(cusp_pipeline, "solve_sigma", broken_solve)
    with pytest.raises(PipelineError) as e:
        run(parse_poly(EX1[0]), parse_poly(EX1[1]))
    assert e.value.stage == "solve_sigma"
    assert isinstance(e.value.cause, ZeroDivisionError)
    code, out, err = run_cli(capsys, "analyze", "--f1", EX1[0], "--f2", EX1[1])
    assert code == 3
    assert out == ""
    assert "internal error in stage 'solve_sigma': ZeroDivisionError" in err
    assert "Traceback" not in err


def test_jacobian_class_off_the_socle_is_an_internal_error(capsys, monkeypatch):
    # the Jacobian class of a finite algebra spans its socle, so a class with
    # another nonzero coordinate is a bug, never a failed hypothesis
    def off_socle(self, p):
        return (Fraction(1),) * self.dim

    monkeypatch.setattr(LocalAlgebra, "coords", off_socle)
    code, out, err = run_cli(capsys, "analyze", "--f1", EX1[0], "--f2", EX1[1])
    assert code == 3
    assert out == ""
    assert "internal error" in err and "degree f0" in err and "socle" in err


def test_h_without_an_isolated_zero_is_an_internal_error(capsys, monkeypatch):
    # for k > xi every H(sign) has an algebraically isolated zero, so an
    # infinite algebra there is a bug, not a failed hypothesis
    x1, t = parse_poly("x1"), parse_poly("t")
    germ = ((x1, x1, t), parse_poly("0"))
    monkeypatch.setattr(branch_counter, "build_H", lambda *args: (germ, germ))
    with pytest.raises(PipelineError) as e:
        run(parse_poly(EX1[0]), parse_poly(EX1[1]))
    assert e.value.stage == "count_branches"
    assert isinstance(e.value.cause, DimensionInfinite)
    code, out, err = run_cli(capsys, "analyze", "--f1", EX1[0], "--f2", EX1[1])
    assert code == 3 and out == ""
    assert "internal error in stage 'count_branches': DimensionInfinite" in err


def test_negative_branch_count_exits_3(capsys, monkeypatch):
    # H+ and H- swapped give EX1's b0 = 4 as -4: the guard's error reaches
    # the CLI as an internal error of its stage
    build_H = branch_counter.build_H

    def swapped(*args):
        plus, minus = build_H(*args)
        return minus, plus

    monkeypatch.setattr(branch_counter, "build_H", swapped)
    code, out, err = run_cli(capsys, "analyze", "--f1", EX1[0], "--f2", EX1[1])
    assert code == 3 and out == ""
    assert "internal error in stage 'count_branches': NegativeBranchCount" in err


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "analyze", "--f1", "x1 +", "--f2", "x2")
    assert code == 1
    assert "position" in err


@pytest.mark.parametrize("f1", ["x1^\u00b2", "x1^\u0663"])
def test_non_ascii_digit_is_a_parse_error(capsys, f1):
    code, out, err = run_cli(capsys, "analyze", "--f1", f1, "--f2", "x2")
    assert code == 1 and out == ""
    assert "unexpected character" in err and "(at position 3)" in err


def test_nested_power_past_the_cap_is_a_parse_error(capsys):
    code, _, err = run_cli(
        capsys, "analyze", "--f1", "((x1^64)^64)^64 + x2^2 + t*x1", "--f2", "x1*x2"
    )
    assert code == 1
    assert "cap of 64" in err and "position 8" in err


def test_64th_power_expands_in_time_and_fails_a_hypothesis(capsys):
    # (1 + t + x1 + x2)^64 expands to 47905 terms by repeated multiplication
    # and then fails the first hypothesis: it does not map 0 to 0
    code, out, err = run_cli(capsys, "analyze", "--f1", "(1+t+x1+x2)^64", "--f2", "x2")
    assert code == 2 and out == ""
    assert "origin" in err


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
    reason="the inputs are sized for Python's default limit of 4300 digits",
)
@pytest.mark.parametrize("f1, at", [
    # 10^4096 is under the limit, and its 64th power is the first past it
    ("(((10^64)^64)^64)^64*x1", 13),
    # 10^4288 and then 10^4352: the '*' of the 68th factor
    ("*".join(["10^64"] * 68) + "*x1^3 + x2^2 + t*x1", 401),
])
def test_coefficient_past_the_digit_limit_is_a_parse_error(capsys, f1, at):
    code, out, err = run_cli(capsys, "analyze", "--f1", f1, "--f2", "x2")
    assert code == 1 and out == ""
    assert "more than 4300 digits" in err and f"(at position {at})" in err


def test_deep_nesting_is_a_parse_error(capsys):
    code, _, err = run_cli(
        capsys, "analyze", "--f1", "(" * 300 + "x1" + ")" * 300, "--f2", "x2"
    )
    assert code == 1
    assert "nesting cap of 64" in err and "position 64" in err


def test_power_of_a_rational_literal_is_a_parse_error(capsys):
    code, out, err = run_cli(capsys, "analyze", "--f1", "2/3^2*x1 + x2^2", "--f2", "x1*x2")
    assert code == 1 and out == ""
    assert "needs parentheses" in err and "(at position 3)" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli(capsys, "analyze")
    assert code == 1
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 1


# a negative cap is a usage error, not a failed hypothesis; int() would read
# "1_0" as 10 and "\u0663" (Arabic-Indic three) as 3
@pytest.mark.parametrize("cap", ["-1", "1_0", "\u0663"])
def test_xi_cap_takes_ascii_digits_only(capsys, cap):
    code, out, err = run_cli(
        capsys, "analyze", "--f1", EX1[0], "--f2", EX1[1], "--xi-cap", cap
    )
    assert code == 1 and out == ""
    assert "--xi-cap" in err and "analysis failed" not in err


def test_seed_is_an_unknown_option(capsys):
    code, out, err = run_cli(
        capsys, "analyze", "--f1", EX1[0], "--f2", EX1[1], "--seed", "3"
    )
    assert code == 1 and out == ""
    assert "--seed" in err


def test_empty_expression_is_a_parse_error_not_a_missing_flag(capsys):
    code, out, err = run_cli(capsys, "analyze", "--f1", "", "--f2", EX1[1])
    assert code == 1 and out == ""
    assert err == "error: empty expression (at position 0)\n"


@pytest.mark.parametrize("cap", ["2", "3"])
def test_xi_cap_bounds_the_one_xi_search(capsys, cap):
    # EX1 has xi = 2; the t -> t^2 system's xi 4 is derived, not searched
    code, out, _ = run_cli(
        capsys, "analyze", "--f1", EX1[0], "--f2", EX1[1], "--xi-cap", cap
    )
    assert code == 0
    assert out == (GOLDEN / "ex1.txt").read_bytes().decode("utf-8")


def test_xi_cap_below_xi_fails_in_count_branches(capsys):
    code, out, err = run_cli(
        capsys, "analyze", "--f1", EX1[0], "--f2", EX1[1], "--xi-cap", "1"
    )
    assert code == 2 and out == ""
    assert "[count_branches]" in err


def test_input_file(tmp_path, capsys):
    config = tmp_path / "family.txt"
    config.write_text(
        "# worked cubic family\n"
        f"f1 = {EX1[0]}\n"
        f"f2 = {EX1[1]}   # second component\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "analyze", "--input", str(config), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["input"]["seed"] == 0
    assert doc["sigma"] == [0, 1, 0, 3]


def test_input_file_bad_line(tmp_path, capsys):
    config = tmp_path / "bad.txt"
    config.write_text("f1 x1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", "--input", str(config))
    assert code == 1
    assert "line 1: expected key=value" in err
    assert "(at position" not in err


def test_input_file_unknown_key(tmp_path, capsys):
    # a misspelt seed must not silently run with the default seed
    config = tmp_path / "typo.txt"
    config.write_text(f"f1 = {EX1[0]}\nf2 = {EX1[1]}\nsed = 3\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", "--input", str(config))
    assert code == 1 and out == ""
    assert "line 3" in err and "'sed'" in err
    assert "(at position" not in err
    # keys are case-sensitive: F1 must not let the command-line --f1 through
    config = tmp_path / "upper.txt"
    config.write_text(f"F1 = {EX1[0]}\nf2 = {EX1[1]}\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "analyze", "--input", str(config), "--f1", "x1^3 + x2^2 - t*x1"
    )
    assert code == 1 and out == ""
    assert "line 1" in err and "'F1'" in err


@pytest.mark.parametrize("text, message", [
    # an expression error keeps its offset within the expression
    ("f1 = x1 +\nf2 = x2\n", "line 1: unexpected 'end of input' (at position 4)"),
    ("f1 = x1\nf2 = x2\nseed = 3\n", "line 3: unknown key 'seed', expected one of f1, f2"),
    ("f1 = x1\nf2 = x2\nf1 = x2\n", "line 3: duplicate key 'f1'"),
])
def test_input_file_errors_name_their_line(tmp_path, capsys, text, message):
    config = tmp_path / "family.txt"
    config.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", "--input", str(config))
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("data, lineno", [
    (b"f1 = x1\nf2 = x2 \xff\n", 2),
    # \r\n and \r end lines as they do in text mode
    (b"f1 = x1\r\nf2 = x2\rseed = 3\xff\n", 3),
])
def test_input_file_line_that_is_not_utf8_names_its_line(
    tmp_path, capsys, data, lineno
):
    config = tmp_path / "family.txt"
    config.write_bytes(data)
    code, out, err = run_cli(capsys, "analyze", "--input", str(config))
    assert code == 1 and out == ""
    assert err.startswith(f"error: line {lineno}: 'utf-8' codec can't decode byte 0xff")


def test_input_file_with_a_byte_order_mark(tmp_path, capsys):
    config = tmp_path / "family.txt"
    config.write_bytes(b"\xef\xbb\xbff1 = x1^3 + x2^2 + t*x1\nf2 = x1*x2\n")
    code, out, _ = run_cli(capsys, "analyze", "--input", str(config))
    assert code == 0
    assert out == (GOLDEN / "ex1.txt").read_bytes().decode("utf-8")


def test_json_roundtrip(ex1_report):
    doc = json.loads(render_json(ex1_report))
    assert doc == report_to_dict(ex1_report)


def test_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "analyze", "--f1", EX1[0], "--f2", EX1[1], "--json")
    _, out2, _ = run_cli(capsys, "analyze", "--f1", EX1[0], "--f2", EX1[1], "--json")
    assert out1 == out2


@pytest.mark.parametrize("flags, golden", [((), "ex1.txt"), (("--json",), "ex1.json")])
def test_report_matches_golden(capsys, flags, golden):
    code, out, _ = run_cli(capsys, "analyze", "--f1", EX1[0], "--f2", EX1[1], *flags)
    assert code == 0
    assert out == (GOLDEN / golden).read_bytes().decode("utf-8")


def test_verbose_echoes_the_family_to_stderr_only(capsys):
    code, out, err = run_cli(capsys, "analyze", "--f1", EX1[0], "--f2", EX1[1], "-v")
    assert code == 0
    assert out == (GOLDEN / "ex1.txt").read_bytes().decode("utf-8")
    assert err == "analyzing f = (t*x1 + x2^2 + x1^3, x1*x2)\n"


def test_analysis_runs_in_a_worker_process():
    # the Poly arguments and the report cross the process boundary by pickle
    with ProcessPoolExecutor(max_workers=1) as pool:
        report = pool.submit(run, parse_poly(EX1[0]), parse_poly(EX1[1])).result()
    assert report_to_dict(report) == json.loads((GOLDEN / "ex1.json").read_text("utf-8"))


def test_help_documents_grammar(capsys):
    code = main(["analyze", "--help"])
    assert code == 0
    out = capsys.readouterr().out
    assert "expression grammar" in out
    assert "rational literals" in out
