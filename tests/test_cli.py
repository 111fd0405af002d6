import json

import pytest

from geomcompare.bench import BenchCase, run_case, run_suite, to_csv, to_html
from geomcompare.cli import main


def test_compare_exit_zero(capsys):
    code = main(["compare", "benchmarks/pythagoras_right.gct", "--timeout", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "(a^2+b^2) = 1 * (c^2)" in out
    assert "ms" in out


def test_compare_parse_error_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.gct"
    bad.write_text("pointt A")
    code = main(["compare", str(bad)])
    assert code == 1
    assert "parse error" in capsys.readouterr().err


def test_compare_missing_file_exit_one(capsys):
    assert main(["compare", "/nonexistent.gct"]) == 1


def test_compare_inconclusive_exit_two(tmp_path, capsys):
    f = tmp_path / "mix.gct"
    f.write_text("point A\npoint B\nsegment s A B\ncompare s+s*s vs s")
    assert main(["compare", str(f)]) == 2


def test_compare_json_output(capsys):
    code = main(["compare", "benchmarks/square_diagonal.gct", "--timeout", "5",
                 "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["variant"] == "exact"
    assert doc["candidates"][0]["value"] == "sqrt(2)"


def test_compare_transcript_flag(capsys):
    code = main(["compare", "benchmarks/medians.gct", "--timeout", "10",
                 "--transcript"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Input: 10 eqs in 12 vars" in out
    assert "Keeping 1-v11" in out


def test_compare_eq_mode(capsys):
    code = main(["compare", "benchmarks/pentagon_diagonal.gct", "--mode", "eq",
                 "--timeout", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "(sqrt(5)-1)/2" in out and "(1+sqrt(5))/2" in out
    assert "witnessed" in out


def test_usage_error():
    assert main([]) == 1
    assert main(["frobnicate"]) == 1


# -- bench harness -------------------------------------------------------------

def test_bench_case_timeout_marked():
    # a limit of 0 s has passed before the search's first pop on any machine
    case = BenchCase("slow", open("benchmarks/medians.gct").read(),
                     expected=None, time_limit=0.0)
    row = run_case(case)
    assert row.status == "timeout"


def test_bench_empty_suite_and_reports(tmp_path):
    rows = run_suite([])
    csv = to_csv(rows)
    assert csv.splitlines()[0].startswith("name,variant,result")
    html = to_html(rows)
    assert "<table>" in html


def test_bench_small_suite(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"cases": [
        {"name": "sq", "file": "sq.gct", "expected": "sqrt(2)", "timeout": 5},
        {"name": "bad", "file": "bad.gct", "timeout": 5},
    ]}))
    (tmp_path / "sq.gct").write_text(open("benchmarks/square_diagonal.gct").read())
    (tmp_path / "bad.gct").write_text("pointt A")
    out_csv = tmp_path / "r.csv"
    out_html = tmp_path / "r.html"
    code = main(["bench", str(suite), "--csv", str(out_csv),
                 "--html", str(out_html)])
    assert code == 0   # individual case failures never abort the suite
    text = capsys.readouterr().out
    assert "1/2 passed" in text
    assert out_csv.read_text().count("\n") == 3
    assert "<html>" in out_html.read_text()
