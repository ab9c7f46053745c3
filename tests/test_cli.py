import json
import os
import runpy
import subprocess
import sys

import pytest

import headparse
from headparse import augment, build_hc, cli, differential, parse_hg
from headparse.cli import (EXIT_ACCEPT, EXIT_DISAGREE, EXIT_ERROR, EXIT_INTERNAL,
                           EXIT_LIMIT, EXIT_REJECT, EXIT_USAGE, main)
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


def test_non_utf8_grammar_file_exit_code(tmp_path, capsys):
    path = tmp_path / "latin1.hg"
    path.write_bytes(b"start S\nS -> *\xff\n")
    code = main(["recognize", "--grammar", str(path), "--algorithm", "td",
                 "--input", "a"])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: cannot read %s: " % path)


@pytest.mark.parametrize("name, text, algorithm, tokens", [
    ("bom.hg", TINY_HG, "td", "c a b"), ("bom.ghg", DEMO_GHG, "ghi", "a b s")],
    ids=["hg", "ghg"])
def test_grammar_file_with_byte_order_mark(name, text, algorithm, tokens, tmp_path,
                                           capsys):
    # some editors save UTF-8 with a leading byte order mark
    path = tmp_path / name
    path.write_text("\ufeff" + text, encoding="utf-8")
    code = main(["recognize", "--grammar", str(path), "--algorithm", algorithm,
                 "--input", tokens])
    assert code == EXIT_ACCEPT
    assert capsys.readouterr().out == "%s: accept\n" % algorithm


def test_unknown_extension_is_usage_error(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(TINY_HG, encoding="utf-8")
    code = main(["recognize", "--grammar", str(path), "--algorithm", "td",
                 "--input", "a"])
    assert code == EXIT_USAGE


def test_json_report_document(tiny_hg_path, capsys):
    argv = ["recognize", "--grammar", tiny_hg_path, "--algorithm", "hi",
            "--input", "c a b", "--json"]
    assert main(argv + ["--trace"]) == EXIT_ACCEPT
    data = json.loads(capsys.readouterr().out)
    assert list(data) == ["grammar", "algorithm", "input", "verdict", "stats", "trace"]
    assert (data["grammar"], data["algorithm"]) == (tiny_hg_path, "hi")
    assert data["input"] == ["c", "a", "b"]
    assert data["verdict"] == "accept"
    # the stats are `RunStats` field for field, consulted positions sorted
    assert list(data["stats"]) == [
        "configurations_explored", "clause_applications", "max_stack_depth",
        "consulted_positions", "duplicates_pruned", "limit_hit", "limit_kind"]
    assert data["stats"]["consulted_positions"] == [1, 2, 3]
    assert [row["clause"] for row in data["trace"]] == [
        None, "1a", "3a", "2a", "2b", "4a"]
    assert data["trace"][-1]["stack"] == ["[-1, -1, {S' -> • ⊥ • S}, 0, 3]",
                                          "[-1, -1, {S' -> • ⊥ S •}, 3, 3]"]
    # without --trace the key stays, empty
    assert main(argv) == EXIT_ACCEPT
    assert json.loads(capsys.readouterr().out)["trace"] is None


@pytest.mark.parametrize("bound, kind", [(None, None), ("--max-steps", "steps")])
def test_json_stats_name_the_bound(bound, kind, tiny_hg_path, capsys):
    argv = ["recognize", "--grammar", tiny_hg_path, "--algorithm", "td",
            "--input", "c a b", "--json"]
    code = main(argv + ([bound, "1"] if bound else []))
    assert code == (EXIT_LIMIT if bound else EXIT_ACCEPT)
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert (stats["limit_hit"], stats["limit_kind"]) == (bound is not None, kind)
    # the bound allowed one step; the one pulled after it is not counted
    assert bound is None or stats["clause_applications"] == 1


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


@pytest.mark.parametrize("target", ["missing/flat.hg", "."])  # no dir; a dir
def test_transform_unwritable_output_exit_code(target, demo_ghg_path, tmp_path, capsys):
    out = tmp_path / target
    assert main(["transform", "--tau-head", demo_ghg_path, "-o", str(out)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write %s: " % out) and err.count("\n") == 1


@pytest.mark.parametrize("form", [["--trace"], ["--trace", "--json"]])
def test_closed_stdout_is_a_write_error(form, tmp_path):
    # a reader that stops early closes the pipe: the write fails, and that is
    # exit 3 with one error line, not an internal error or a silent cut
    grammar = tmp_path / "center.hg"
    grammar.write_text("start S\nS -> *a S b\nS -> *c\n", encoding="utf-8")
    tokens = " ".join(["a"] * 150 + ["c"] + ["b"] * 150)
    src = os.path.dirname(os.path.dirname(headparse.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "headparse", "recognize", "--grammar", str(grammar),
         "--algorithm", "hc", "--input", tokens] + form,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_ERROR
    assert err.startswith("error: cannot write stdout: ") and err.count("\n") == 1


@pytest.mark.parametrize("form", [["--input", "c a b", "--trace"],
                                  ["--input", "c \u00e9", "--json"]],
                         ids=["trace", "json"])
def test_unencodable_stdout_is_a_write_error(form, tiny_hg_path):
    # a trace's dots, or a token, that stdout's encoding cannot spell make
    # a failed write (exit 3), not an internal error
    src = os.path.dirname(os.path.dirname(headparse.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "headparse", "recognize", "--grammar", tiny_hg_path,
         "--algorithm", "td"] + form,
        capture_output=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="ascii"))
    assert proc.returncode == EXIT_ERROR
    err = proc.stderr.decode("ascii")
    assert err.startswith("error: cannot write stdout: ") and err.count("\n") == 1


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


def test_compare_skips_td_on_head_recursive_grammar(tmp_path, capsys):
    path = tmp_path / "center.hg"
    path.write_text("start S\nS -> a *S b\nS -> *c\n", encoding="utf-8")
    argv = ["compare", "--grammar", str(path), "--input", "a a a c b b b"]
    assert main(argv) == EXIT_ACCEPT
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split()[0] for line in lines[1:-1]] == ["hc", "phi", "ehi", "hi"]
    assert lines[-1] == "td skipped: grammar is head-recursive"
    # an explicit choice still runs td
    assert main(argv + ["--algorithms", "td,hc"]) == EXIT_ACCEPT
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line.split()[0] for line in lines[1:]] == ["td", "hc"]


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


@pytest.mark.parametrize("algorithms", [",", ""])
def test_compare_empty_algorithm_list_is_usage_error(algorithms, tiny_hg_path, capsys):
    argv = ["compare", "--grammar", tiny_hg_path, "--algorithms", algorithms]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_compare_requires_grammar_or_random(tiny_hg_path, capsys):
    assert main(["compare", "--input", "a"]) == EXIT_USAGE
    # the two exclude each other: --random would silently ignore the grammar
    assert main(["compare", "--grammar", tiny_hg_path, "--random", "2"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


@pytest.mark.parametrize("command", [
    "compare --random 2 --exhaustive",
    "compare --random 2 --input zz",
    "compare --random 2 --algorithms td",
    "compare --random 2 --chars",
    "compare --random 2 --embed",
    "compare --grammar {g} --max-len 3",
    "compare --grammar {g} --seed 0",
], ids=lambda command: command.split()[3])
def test_compare_flag_of_the_other_source_is_usage_error(command, tiny_hg_path, capsys):
    # each source of compare reads its own flags; the other's are not ignored
    argv = command.format(g=tiny_hg_path).split()
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: %s does not apply to compare %s\n" % (
        argv[3], argv[1])


def test_compare_unknown_algorithm_is_usage_error(tiny_hg_path, capsys):
    argv = ["compare", "--grammar", tiny_hg_path, "--algorithms", "td,xyz"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: unknown algorithm 'xyz'" in captured.err


def test_compare_disagreement_exit_code(tiny_hg_path, monkeypatch, capsys):
    # an hc built for another grammar rejects what the others accept
    other = augment(parse_hg("start S\nS -> *x\n"))
    monkeypatch.setitem(differential.FLAT_BUILDERS, "hc", lambda aug: build_hc(other))
    code = main(["compare", "--grammar", tiny_hg_path, "--input", "c a b"])
    assert code == EXIT_DISAGREE
    captured = capsys.readouterr()
    rows = [line.split()[:2] for line in captured.out.splitlines()[1:]]
    assert rows == [["td", "accept"], ["hc", "reject"], ["phi", "accept"],
                    ["ehi", "accept"], ["hi", "accept"]]
    assert captured.err == "error: verdicts disagree\n"


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


def test_python_dash_m_runs_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["headparse", "--help"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("headparse", run_name="__main__")
    assert exit_info.value.code == 0
    assert "recognize" in capsys.readouterr().out
