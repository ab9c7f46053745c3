import json

import pytest

from headparse import cli, parse_hg
from headparse.cli import (EXIT_ACCEPT, EXIT_ERROR, EXIT_INTERNAL, EXIT_LIMIT,
                           EXIT_REJECT, EXIT_USAGE, RunReport, main)
from headparse.oracle import enumerate_language
from conftest import DEEP_GHG, DEMO_GHG

TINY_HG = "start S\nS -> c *A b\nA -> *a\n"


@pytest.fixture
def demo_ghg_path(tmp_path):
    path = tmp_path / "demo.ghg"
    path.write_text(DEMO_GHG, encoding="utf-8")
    return str(path)


@pytest.fixture
def tiny_hg_path(tmp_path):
    path = tmp_path / "tiny.hg"
    path.write_text(TINY_HG, encoding="utf-8")
    return str(path)


def test_recognize_accept_exit_code(tiny_hg_path, capsys):
    code = main(["recognize", "--grammar", tiny_hg_path, "--algorithm", "td",
                 "--input", "c a b"])
    assert code == EXIT_ACCEPT
    assert "accept" in capsys.readouterr().out


def test_recognize_reject_exit_code(tiny_hg_path, capsys):
    code = main(["recognize", "--grammar", tiny_hg_path, "--algorithm", "td",
                 "--input", "b"])
    assert code == EXIT_REJECT
    assert "reject" in capsys.readouterr().out


def test_recognize_trace_on_reject_still_reports(tiny_hg_path, capsys):
    code = main(["recognize", "--grammar", tiny_hg_path, "--algorithm", "td",
                 "--input", "b", "--trace"])
    assert code == EXIT_REJECT
    assert "reject" in capsys.readouterr().out


def test_recognize_resource_limit_exit_code(tiny_hg_path):
    code = main(["recognize", "--grammar", tiny_hg_path, "--algorithm", "td",
                 "--input", "c a b", "--max-steps", "1"])
    assert code == EXIT_LIMIT


def test_recognize_chars_splitting(tiny_hg_path):
    code = main(["recognize", "--grammar", tiny_hg_path, "--algorithm", "hc",
                 "--input", "cab", "--chars"])
    assert code == EXIT_ACCEPT


def test_ghi_demo_trace_matches_golden_rows(demo_ghg_path, capsys):
    code = main(["recognize", "--grammar", demo_ghg_path, "--algorithm", "ghi",
                 "--input", "c a b s", "--trace"])
    assert code == EXIT_ACCEPT
    out = capsys.readouterr().out
    lines = [line for line in out.strip().splitlines()[1:] if "|" in line]
    labels = [line.rsplit("|", 1)[1].strip() for line in lines]
    assert labels[1:] == ["3a", "1a", "3b", "1a", "1d", "7b", "2a", "1a, 1d",
                          "4a", "3b", "1a, 1d", "5b", "5b", "7a", "1a, 1d", "5a"]


def test_ghi_requires_tree_grammar_or_embed(tiny_hg_path):
    code = main(["recognize", "--grammar", tiny_hg_path, "--algorithm", "ghi",
                 "--input", "c a b"])
    assert code == EXIT_USAGE
    code = main(["recognize", "--grammar", tiny_hg_path, "--algorithm", "ghi",
                 "--input", "c a b", "--embed"])
    assert code == EXIT_ACCEPT


def test_flat_algorithm_rejects_tree_grammar(demo_ghg_path):
    code = main(["recognize", "--grammar", demo_ghg_path, "--algorithm", "td",
                 "--input", "c a b s"])
    assert code == EXIT_USAGE


def test_deep_tree_grammar_gets_a_verdict(tmp_path, capsys):
    path = tmp_path / "deep.ghg"
    path.write_text(DEEP_GHG, encoding="utf-8")
    code = main(["recognize", "--grammar", str(path), "--algorithm", "ghi",
                 "--input", "a"])
    assert code == EXIT_REJECT
    assert "ghi: reject" in capsys.readouterr().out


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.hg"
    bad.write_text("start S\nS -> *a *b\n", encoding="utf-8")
    code = main(["recognize", "--grammar", str(bad), "--algorithm", "td",
                 "--input", "a"])
    assert code == EXIT_ERROR


def test_missing_file_exit_code(tmp_path):
    code = main(["recognize", "--grammar", str(tmp_path / "nope.hg"),
                 "--algorithm", "td", "--input", "a"])
    assert code == EXIT_ERROR


def test_unknown_extension_is_usage_error(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(TINY_HG, encoding="utf-8")
    code = main(["recognize", "--grammar", str(path), "--algorithm", "td",
                 "--input", "a"])
    assert code == EXIT_USAGE


def test_json_report_round_trips(tiny_hg_path, capsys):
    code = main(["recognize", "--grammar", tiny_hg_path, "--algorithm", "hi",
                 "--input", "c a b", "--json", "--trace"])
    assert code == EXIT_ACCEPT
    data = json.loads(capsys.readouterr().out)
    report = RunReport.from_dict(data)
    assert report.to_dict() == data
    assert report.verdict == "accept"
    assert report.input == ["c", "a", "b"]
    assert report.trace is not None
    assert data["stats"]["consulted_positions"] == [1, 2, 3]


def test_transform_tau_head_output_reparses(demo_ghg_path, tmp_path, capsys):
    out_path = tmp_path / "flat.hg"
    code = main(["transform", "--tau-head", demo_ghg_path, "-o", str(out_path)])
    assert code == EXIT_ACCEPT
    text = out_path.read_text(encoding="utf-8")
    flat = parse_hg(text, source=str(out_path))
    # renamed bracket symbols documented in the header comments
    assert "# B1 =" in text
    assert enumerate_language(flat, 4) == {("c", "a", "b", "s"),
                                           ("a", "d", "s"), ("a", "b", "s")}


def test_transform_tau_two_stdout(tiny_hg_path, capsys):
    code = main(["transform", "--tau-two", tiny_hg_path])
    assert code == EXIT_ACCEPT
    text = capsys.readouterr().out
    flat = parse_hg(text)
    assert all(1 <= len(r.rhs) <= 2 for r in flat.rules)
    assert enumerate_language(flat, 4) == {("c", "a", "b")}


def test_transform_wrong_format_is_usage_error(tiny_hg_path, demo_ghg_path):
    assert main(["transform", "--tau-head", tiny_hg_path]) == EXIT_USAGE
    assert main(["transform", "--tau-two", demo_ghg_path]) == EXIT_USAGE


def test_compare_table_uniform_verdicts(tiny_hg_path, capsys):
    code = main(["compare", "--grammar", tiny_hg_path, "--input", "c a b"])
    assert code == EXIT_ACCEPT
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].split()[:2] == ["algorithm", "verdict"]
    body = [line.split() for line in lines[1:]]
    assert [row[0] for row in body] == ["td", "hc", "phi", "ehi", "hi"]
    assert {row[1] for row in body} == {"accept"}


def test_compare_random_batch_agrees(capsys):
    code = main(["compare", "--random", "8", "--max-len", "3", "--seed", "5"])
    assert code == EXIT_ACCEPT
    out = capsys.readouterr().out
    assert "seed 5" in out
    assert "0 disagreements" in out
    # the gate's policy: td skipped on head-recursive grammars, the others
    # also run on loop-prone ones
    assert ("495 runs (300 on loop-prone grammars), 0 disagreements, "
            "0 resource limits, td skipped on 7 head-recursive grammars") in out


def test_compare_requires_grammar_or_random():
    assert main(["compare", "--input", "a"]) == EXIT_USAGE


def test_enumerate_deterministic_output(demo_ghg_path, capsys):
    code = main(["enumerate", "--grammar", demo_ghg_path, "--max-len", "4"])
    assert code == EXIT_ACCEPT
    first = capsys.readouterr().out
    main(["enumerate", "--grammar", demo_ghg_path, "--max-len", "4"])
    second = capsys.readouterr().out
    assert first == second
    assert first.splitlines() == ["a b s", "a d s", "c a b s"]


def test_usage_error_on_bad_algorithm(tiny_hg_path):
    code = main(["recognize", "--grammar", tiny_hg_path, "--algorithm", "xyz",
                 "--input", "a"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("command", [
    "enumerate --grammar {g} --max-len 0",
    "compare --random 1 --max-len -2",
    "compare --random 1 --max-len 0",
    "compare --random -3",
    "compare --random 0",
    "recognize --grammar {g} --algorithm td --input a --max-steps -5",
    "recognize --grammar {g} --algorithm td --input a --max-depth 0",
    "compare --grammar {g} --input a --max-steps x",
])
def test_nonpositive_numeric_flags_are_usage_errors(command, tiny_hg_path, capsys):
    assert main(command.format(g=tiny_hg_path).split()) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: argument --" in captured.err


def _explode(*args, **kwargs):
    raise RecursionError("maximum recursion depth exceeded")


@pytest.mark.parametrize("command", [
    "recognize --grammar {g} --algorithm hc --chars --input cab",
    "compare --grammar {g} --chars --input cab",
    "compare --random 2 --seed 5",
])
def test_unexpected_exception_is_internal_error(command, tiny_hg_path,
                                                monkeypatch, capsys):
    monkeypatch.setattr(cli.engine, "run", _explode)
    assert main(command.format(g=tiny_hg_path).split()) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: RecursionError: ")


def test_enumeration_cap_is_a_resource_limit(tmp_path, capsys):
    path = tmp_path / "binary.hg"
    path.write_text("start S\nS -> *S S\nS -> *a\nS -> *b\n", encoding="utf-8")
    code = main(["enumerate", "--grammar", str(path), "--max-len", "16"])
    assert code == EXIT_LIMIT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unreplayable_trace_is_internal_error(tiny_hg_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.engine, "replay", lambda *args, **kwargs: False)
    code = main(["recognize", "--grammar", tiny_hg_path, "--algorithm", "td",
                 "--input", "c a b"])
    assert code == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "accepting trace failed to replay" in captured.err
