import json

import pytest

from cuspcount import cli
from cuspcount.cli import main, render_json, report_to_dict
from cuspcount.cusp_pipeline import run
from cuspcount.errors import NegativeBranchCount, PipelineError
from cuspcount.exprparse import parse_poly

from support import EX1


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


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "analyze", "--f1", "x1 +", "--f2", "x2")
    assert code == 1
    assert "position" in err


def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli(capsys, "analyze")
    assert code == 1
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 1


def test_input_file(tmp_path, capsys):
    config = tmp_path / "family.txt"
    config.write_text(
        "# worked cubic family\n"
        f"f1 = {EX1[0]}\n"
        f"f2 = {EX1[1]}   # second component\n"
        "seed = 3\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "analyze", "--input", str(config), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["input"]["seed"] == 3
    assert doc["sigma"] == [0, 1, 0, 3]


def test_input_file_bad_line(tmp_path, capsys):
    config = tmp_path / "bad.txt"
    config.write_text("f1 x1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "analyze", "--input", str(config))
    assert code == 1
    assert "key=value" in err


def test_json_roundtrip(ex1_report):
    doc = json.loads(render_json(ex1_report))
    assert doc == report_to_dict(ex1_report)


def test_output_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "analyze", "--f1", EX1[0], "--f2", EX1[1], "--json")
    _, out2, _ = run_cli(capsys, "analyze", "--f1", EX1[0], "--f2", EX1[1], "--json")
    assert out1 == out2


def test_help_documents_grammar(capsys):
    code = main(["analyze", "--help"])
    assert code == 0
    out = capsys.readouterr().out
    assert "expression grammar" in out
    assert "rational literals" in out
