"""End-to-end tests of the command-line interface.

These drive ``repairdx.cli.main`` in-process with real files on disk,
asserting on exit codes, stdout/stderr text, and the files each
subcommand writes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from repairdx import cli, tracking
from repairdx import report as report_module
from repairdx.cli import build_arg_parser, main, parse_args
from repairdx.errors import UsageError

from conftest import SMALL_PREDICTIONS, load_jsonl, write_jsonl


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def test_parse_args_track_defaults():
    cfg = parse_args(["track", "--corpus", "c.jsonl", "--preds", "p.jsonl",
                      "--out", "results"])
    assert cfg.command == "track"
    assert cfg.seed == 42
    assert cfg.sample_size == 100
    assert cfg.interval_steps == 500
    assert cfg.fixed_sample is False
    assert cfg.em_normalize == "none"
    assert cfg.ned_tokens is False
    assert "parser" not in vars(cfg)
    assert cfg.workers >= 1
    assert cfg.split is None
    assert cfg.loss_log is None


def test_parse_args_eval_flags():
    cfg = parse_args([
        "eval", "--corpus", "c.jsonl", "--preds", "p.jsonl", "--out", "r",
        "--split", "test", "--cases", "5", "--em-normalize", "whitespace",
        "--ned-tokens", "--seed", "7", "--workers", "2",
    ])
    assert cfg.split == "test"
    assert cfg.cases == 5
    assert cfg.em_normalize == "whitespace"
    assert cfg.ned_tokens is True
    assert cfg.seed == 7
    assert cfg.workers == 2


def test_parse_args_rejects_missing_required():
    with pytest.raises(UsageError):
        parse_args(["eval", "--preds", "p.jsonl", "--out", "r"])


def test_parse_args_rejects_unknown_flag():
    with pytest.raises(UsageError):
        parse_args(["stats", "--corpus", "c.jsonl", "--bogus"])


def test_parse_args_rejects_bad_worker_count():
    with pytest.raises(UsageError):
        parse_args(["check", "--in", "s.jsonl", "--workers", "0"])


def test_parse_args_rejects_negative_seed():
    with pytest.raises(UsageError):
        parse_args(["eval", "--corpus", "c.jsonl", "--preds", "p.jsonl",
                    "--out", "r", "--seed", "-1"])


@pytest.mark.parametrize("argv", [
    ["check", "--in", "s.jsonl"],
    ["abstract", "--corpus", "c.jsonl", "--out", "r"],
])
def test_seed_is_a_usage_error_where_nothing_is_sampled(argv, capsys):
    # Neither command samples anything; both still accept --workers.
    assert parse_args([*argv, "--workers", "2"]).workers == 2
    assert main([*argv, "--seed", "1"]) == 1
    assert "usage error: unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "track", "inspect"])
def test_parse_args_rejects_negative_case_count(command):
    with pytest.raises(UsageError, match="--cases must be non-negative, got -3"):
        parse_args([command, "--corpus", "c.jsonl", "--preds", "p.jsonl",
                    "--out", "r", "--cases", "-3"])


_HELP = ("-h", "--help"), "help", None, argparse.SUPPRESS, False, None, \
    "show this help message and exit"
_WORKERS = ("--workers",), "workers", "int", 1, False, None, \
    "accepted and ignored (must be at least 1): every command runs in this one process"
_CORPUS = ("--corpus",), "corpus", "Path", None, True, None, "examples JSONL file"
_INPUTS = {
    (("--preds",), "preds", "Path", None, True, None, "predictions JSONL file"),
    (("--split",), "split", None, None, False, None, "restrict corpus to one split"),
    (("--seed",), "seed", "int", 42, False, None,
     "seed for all deterministic sampling (default: 42)"),
}
_REPORT_OUT = ("--out",), "out_dir", "Path", None, True, None, "output directory for report files"
_METRICS = {
    (("--em-normalize",), "em_normalize", None, "none", False, ("none", "whitespace"),
     "exact-match comparison mode for the records' 'exact' field and table1's Exact "
     "Match row (default: none); the exact_match behavior class, as in checkpoints.csv, "
     "behavior.csv and on stderr, always compares bytes"),
    (("--ned-tokens",), "ned_tokens", None, False, False, None,
     "compute NED over whitespace tokens instead of characters"),
}

# Each subcommand's options as (flags, dest, type, default, required,
# choices, help), frozen from the parser before its shared options moved
# to parent parsers.
OPTION_TABLE = {
    "stats": {_HELP, _CORPUS, _WORKERS,
              (("--split",), "split", None, None, False, None, "restrict to one split label")},
    "check": {_HELP, _WORKERS,
              (("--in",), "snippets", "Path", None, True, None, "snippets JSONL file"),
              (("--field",), "field_name", None, "code", False, None,
               "name of the text field to check (default: code)")},
    "abstract": {_HELP, _CORPUS, _WORKERS,
                 (("--out",), "out_dir", "Path", None, True, None, "output directory"),
                 (("--verify-only",), "verify_only", None, False, False, None,
                  "check conformance instead of abstracting"),
                 (("--strict-gaps",), "strict_gaps", None, False, False, None,
                  "flag placeholder index gaps (verify mode)")},
    "eval": {_HELP, _CORPUS, _WORKERS, _REPORT_OUT, *_INPUTS, *_METRICS,
             (("--cases",), "cases", "int", 0, False, None,
              "also emit a case bundle of this size")},
    "track": {_HELP, _CORPUS, _WORKERS, _REPORT_OUT, *_INPUTS, *_METRICS,
              (("--sample",), "sample_size", "int", 100, False, None,
               "validation examples per checkpoint (default: 100)"),
              (("--interval",), "interval_steps", "int", 500, False, None,
               "checkpoint step cadence: every step in the dump must be a multiple of "
               "it, else the run fails with an input error; also recorded in "
               "provenance (default: 500)"),
              (("--fixed-sample",), "fixed_sample", None, False, False, None,
               "reuse one sample across checkpoints instead of re-drawing per step"),
              (("--loss-log",), "loss_log", "Path", None, False, None,
               "optional loss log to attach eval_loss by step"),
              (("--cases",), "cases", "int", 0, False, None,
               "also emit a case bundle from the final checkpoint")},
    "inspect": {_HELP, _CORPUS, _WORKERS, *_INPUTS,
                (("--out",), "out_dir", "Path", None, True, None,
                 "output directory for cases.json"),
                (("--cases",), "cases", "int", 10, False, None,
                 "number of cases to sample (default: 10)"),
                (("--step",), "step", "int", None, False, None,
                 "checkpoint step to inspect (default: last step present)")},
}


def test_each_subcommand_keeps_its_option_table():
    [subparsers] = [a for a in build_arg_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    table = {
        name: {(tuple(a.option_strings), a.dest, getattr(a.type, "__name__", None),
                a.default, a.required, a.choices and tuple(a.choices), a.help)
               for a in parser._actions}
        for name, parser in subparsers.choices.items()
    }
    assert table == OPTION_TABLE


@pytest.mark.parametrize("argv,missing", [
    (["stats"], "--corpus"),
    (["check"], "--in"),
    (["abstract"], "--corpus, --out"),
    (["eval"], "--corpus, --preds, --out"),
    (["track", "--cases", "1"], "--corpus, --preds, --out"),
    (["inspect", "--seed", "3"], "--corpus, --preds, --out"),
])
def test_missing_required_options_are_named_in_declaration_order(argv, missing, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"usage error: the following arguments are required: {missing}\n")


def test_strict_gaps_without_verify_only_is_a_usage_error(tmp_path, capsys):
    # The corpus does not exist: the flag is refused before it is read.
    assert main(["abstract", "--corpus", str(tmp_path / "missing.jsonl"),
                 "--out", str(tmp_path / "out"), "--strict-gaps"]) == 1
    assert capsys.readouterr().err == "usage error: --strict-gaps needs --verify-only\n"
    assert not (tmp_path / "out").exists()


def test_main_without_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_main_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def test_stats_emits_corpus_summary_json(corpus_file, capsys):
    assert main(["stats", "--corpus", str(corpus_file)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["n_examples"] == 4
    assert obj["n_per_split"] == {"test": 4}
    assert obj["identity_pairs"] == 0
    assert obj["identity_pair_fraction"] == 0.0
    assert obj["duplicate_buggy"] == 0
    assert obj["mean_token_length"] > 0
    assert obj["median_token_length"] > 0


def test_stats_split_filter(tmp_path, capsys):
    corpus = write_jsonl(tmp_path / "c.jsonl", [
        {"id": "a", "buggy": "int x ;", "fixed": "int y ;", "split": "train"},
        {"id": "b", "buggy": "int p ;", "fixed": "int q ;", "split": "test"},
        {"id": "c", "buggy": "int m ;", "fixed": "int n ;", "split": "test"},
    ])
    assert main(["stats", "--corpus", str(corpus), "--split", "test"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["n_examples"] == 2
    assert obj["n_per_split"] == {"test": 2}


def test_stats_unknown_split_is_input_error(corpus_file, capsys):
    assert main(["stats", "--corpus", str(corpus_file), "--split", "dev"]) == 1
    assert "dev" in capsys.readouterr().err


def test_stats_missing_file_is_input_error(tmp_path, capsys):
    assert main(["stats", "--corpus", str(tmp_path / "absent.jsonl")]) == 1
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_emits_one_verdict_per_snippet(tmp_path, capsys):
    snippets = write_jsonl(tmp_path / "snippets.jsonl", [
        {"id": "s1", "code": "int f ( ) { return 1 ; }"},
        {"id": "s2", "code": "int f ( { return 1 ; }"},
    ])
    assert main(["check", "--in", str(snippets)]) == 0
    captured = capsys.readouterr()
    lines = [json.loads(l) for l in captured.out.splitlines() if l.strip()]
    assert [l["id"] for l in lines] == ["s1", "s2"]
    assert lines[0]["valid"] is True
    assert lines[0]["error_count"] == 0
    assert lines[0]["error_spans"] == []
    assert lines[1]["valid"] is False
    assert lines[1]["error_count"] >= 1
    assert lines[1]["error_spans"]
    assert "checked 2 snippet(s): 1 valid (50.0%)" in captured.err


def test_check_judges_each_distinct_text_once(tmp_path, capsys, monkeypatch):
    good, bad = "int f ( ) { return 1 ; }", "int f ( { return 1 ; }"
    rows = [{"id": f"s{i}", "code": code}
            for i, code in enumerate([good, bad, good, good, bad, good])]
    snippets = write_jsonl(tmp_path / "snippets.jsonl", rows)
    judged = []
    real = cli.check_syntax

    def counting(code):
        judged.append(code)
        return real(code)

    monkeypatch.setattr(cli, "check_syntax", counting)
    assert main(["check", "--in", str(snippets)]) == 0
    captured = capsys.readouterr()
    assert judged == [good, bad]
    lines = [json.loads(l) for l in captured.out.splitlines()]
    assert [l["id"] for l in lines] == [r["id"] for r in rows]
    for line, row in zip(lines, rows):
        verdict = real(row["code"])
        assert line["valid"] is verdict.valid
        assert line["error_spans"] == [list(s) for s in verdict.error_spans]
    assert "checked 6 snippet(s): 4 valid (66.7%)" in captured.err


DEEP_NEST = "Object f ( ) { return " + "( " * 90 + "a" + " )" * 90 + " ; }"


def test_check_flags_a_cut_verdict_and_counts_it_on_stderr(tmp_path, capsys):
    snippets = write_jsonl(tmp_path / "snippets.jsonl", [
        {"id": "deep", "code": DEEP_NEST},
        {"id": "bad", "code": "int f ( { return 1 ; }"},
        {"id": "ok", "code": "int f ( ) { return 1 ; }"},
    ])
    assert main(["check", "--in", str(snippets)]) == 0
    captured = capsys.readouterr()
    lines = [json.loads(l) for l in captured.out.splitlines()]
    assert [(l["valid"], l["limit_exceeded"]) for l in lines] == [
        (False, True), (False, False), (True, False),
    ]
    assert lines[0]["error_count"] == 1
    assert captured.err == "checked 3 snippet(s): 1 valid (33.3%), 1 past the nesting limit\n"


@pytest.mark.parametrize("command", ["eval", "track"])
def test_eval_and_track_count_cut_predictions_on_stderr(command, tmp_path, capsys):
    corpus = [{"id": "a", "buggy": "int f ( ) { return 1 ; }",
               "fixed": "int f ( ) { return 2 ; }"},
              {"id": "b", "buggy": "int g ( ) { return 1 ; }",
               "fixed": "int g ( ) { return 2 ; }"}]
    preds = [{"id": "a", "step": 500, "prediction": DEEP_NEST},
             {"id": "b", "step": 500, "prediction": "int g ( ) { return 2 ; }"}]
    out = tmp_path / "out"
    assert main([command, "--corpus", str(write_jsonl(tmp_path / "c.jsonl", corpus)),
                 "--preds", str(write_jsonl(tmp_path / "p.jsonl", preds)),
                 "--out", str(out), "--cases", "2"]) == 0
    err = capsys.readouterr().err
    assert err.endswith(", 1 past the nesting limit\n")
    assert "syntax validity 50.0%" in err
    cases = json.loads((out / "cases.json").read_text())["cases"]
    assert [(c["id"], c["syntax_valid"], c["limit_exceeded"]) for c in cases] == [
        ("a", False, True), ("b", True, False),
    ]
    row = json.loads((out / "report.json").read_text())["final"]
    assert row["limit_exceeded_count"] == 1
    header = (out / "checkpoints.csv").read_text().splitlines()[0]
    assert header == report_module.CHECKPOINTS_HEADER  # no new column


def test_abstract_of_a_cut_fragment_names_the_limit(tmp_path, capsys):
    corpus = write_jsonl(tmp_path / "c.jsonl", [
        {"id": "deep", "buggy": DEEP_NEST, "fixed": DEEP_NEST},
    ])
    assert main(["abstract", "--corpus", str(corpus), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: example 'deep': cannot abstract code nested past "
                          "the parser's nesting limit (parse stopped at offset ")


def test_check_honors_field_flag(tmp_path, capsys):
    snippets = write_jsonl(tmp_path / "snippets.jsonl", [
        {"id": "s1", "snippet": "void g ( ) { }"},
    ])
    assert main(["check", "--in", str(snippets), "--field", "snippet"]) == 0
    verdict = json.loads(capsys.readouterr().out.splitlines()[0])
    assert verdict == {"id": "s1", "valid": True, "limit_exceeded": False,
                       "error_count": 0, "error_spans": []}


def test_check_missing_field_names_available_ones(tmp_path, capsys):
    snippets = write_jsonl(tmp_path / "s.jsonl", [{"id": "s1", "text": "int x ;"}])
    assert main(["check", "--in", str(snippets)]) == 1
    err = capsys.readouterr().err
    assert "'code'" in err
    assert "text" in err


def test_check_non_json_input_is_input_error(tmp_path, capsys):
    bad = tmp_path / "raw.txt"
    bad.write_text("int f ( ) { return 1 ; }\n", encoding="utf-8")
    assert main(["check", "--in", str(bad)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_check_missing_file_is_input_error(tmp_path, capsys):
    assert main(["check", "--in", str(tmp_path / "absent.jsonl")]) == 1
    assert "no such file" in capsys.readouterr().err


def test_check_empty_file_is_input_error(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    assert main(["check", "--in", str(empty)]) == 1
    assert "no snippets" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["builtin", "treesitter"])
@pytest.mark.parametrize("command", ["check", "abstract", "eval", "track", "inspect"])
def test_parser_option_is_a_usage_error(command, name, corpus_file,
                                        final_predictions_file, tmp_path, capsys):
    snippets = write_jsonl(tmp_path / "s.jsonl", [{"id": "s1", "code": "int x ;"}])
    inputs = {
        "check": ["--in", str(snippets)],
        "abstract": ["--corpus", str(corpus_file)],
    }.get(command, ["--corpus", str(corpus_file),
                    "--preds", str(final_predictions_file)])
    out = [] if command == "check" else ["--out", str(tmp_path / "out")]
    assert main([command, *inputs, *out, "--parser", name]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ")
    assert "--parser" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# abstract
# ---------------------------------------------------------------------------


def test_abstract_writes_corpus_and_mappings(corpus_file, tmp_path, capsys):
    out = tmp_path / "abstracted"
    assert main(["abstract", "--corpus", str(corpus_file), "--out", str(out)]) == 0
    rows = load_jsonl(out / "abstracted.jsonl")
    assert [r["id"] for r in rows] == ["bug-001", "bug-002", "bug-003", "bug-004"]
    assert rows[0]["buggy"] == ("public int METHOD_1 ( int VAR_1 , int VAR_2 ) "
                                "{ return VAR_1 - VAR_2 ; }")
    assert all(r["split"] == "test" for r in rows)
    mappings = load_jsonl(out / "mappings.jsonl")
    assert mappings[0]["id"] == "bug-001"
    assert mappings[0]["buggy"]["methods"] == [["add", "METHOD_1"]]
    assert mappings[0]["buggy"]["variables"] == [["a", "VAR_1"], ["b", "VAR_2"]]
    assert str(out / "abstracted.jsonl") in capsys.readouterr().out


def test_abstract_verify_only_reports_conformance(tmp_path, capsys):
    corpus = write_jsonl(tmp_path / "c.jsonl", [
        {"id": "ok", "buggy": "int METHOD_1 ( ) { return VAR_1 ; }",
         "fixed": "int METHOD_1 ( ) { return VAR_1 ; }"},
        {"id": "mixed", "buggy": "int METHOD_1 ( ) { return count ; }",
         "fixed": "int METHOD_1 ( ) { return VAR_1 ; }"},
    ])
    out = tmp_path / "verify"
    assert main(["abstract", "--corpus", str(corpus), "--out", str(out),
                 "--verify-only"]) == 0
    rows = load_jsonl(out / "conformance.jsonl")
    assert rows[0]["conformant"] is True
    assert rows[0]["buggy"] == []
    assert rows[1]["conformant"] is False
    assert any("count" in v["message"] for v in rows[1]["buggy"])
    err = capsys.readouterr().err
    assert "1 conformant, 1 with violations" in err


def test_abstract_unparseable_example_is_named(tmp_path, capsys):
    corpus = write_jsonl(tmp_path / "c.jsonl", [
        {"id": "bad-123", "buggy": "int f ( { return 1 ; }",
         "fixed": "int f ( ) { return 1 ; }"},
    ])
    out = tmp_path / "out"
    assert main(["abstract", "--corpus", str(corpus), "--out", str(out)]) == 1
    assert "bad-123" in capsys.readouterr().err


def _counting_abstraction(monkeypatch):
    """Wrap ``cli.abstract_identifiers``; returns the real function and the
    list of texts each call abstracted."""
    real = cli.abstract_identifiers
    calls = []
    monkeypatch.setattr(cli, "abstract_identifiers",
                        lambda code: calls.append(code) or real(code))
    return real, calls


def test_abstract_abstracts_each_distinct_side_once(tmp_path, capsys, monkeypatch):
    one = "int f ( int a ) { return a ; }"
    two = "int g ( int b ) { return b + 1 ; }"
    three = "void h ( ) { x = 0 ; }"
    rows = [{"id": "a", "buggy": one, "fixed": two},
            {"id": "b", "buggy": one, "fixed": three},
            {"id": "c", "buggy": two, "fixed": two}]
    corpus = write_jsonl(tmp_path / "c.jsonl", rows)
    real, calls = _counting_abstraction(monkeypatch)
    out = tmp_path / "out"
    assert main(["abstract", "--corpus", str(corpus), "--out", str(out)]) == 0
    assert calls == [one, two, three]
    abstracted = {text: real(text) for text in (one, two, three)}
    assert load_jsonl(out / "abstracted.jsonl") == [
        {"id": r["id"], "buggy": abstracted[r["buggy"]][0],
         "fixed": abstracted[r["fixed"]][0], "split": "test"} for r in rows]
    assert load_jsonl(out / "mappings.jsonl") == [
        {"id": r["id"], "buggy": abstracted[r["buggy"]][1].to_obj(),
         "fixed": abstracted[r["fixed"]][1].to_obj()} for r in rows]


def test_verify_checks_each_distinct_side_once(tmp_path, capsys, monkeypatch):
    one = "int METHOD_1 ( int VAR_1 ) { return VAR_1 ; }"
    two = "int METHOD_1 ( ) { return count ; }"
    rows = [{"id": "a", "buggy": one, "fixed": two},
            {"id": "b", "buggy": two, "fixed": one},
            {"id": "c", "buggy": one, "fixed": one}]
    corpus = write_jsonl(tmp_path / "c.jsonl", rows)
    real = cli.check_conformance
    calls = []
    monkeypatch.setattr(cli, "check_conformance",
                        lambda code, **kw: calls.append(code) or real(code, **kw))
    out = tmp_path / "verify"
    assert main(["abstract", "--verify-only", "--corpus", str(corpus),
                 "--out", str(out)]) == 0
    assert calls == [one, two]
    violations = {text: [{"span": list(v.span), "message": v.message}
                         for v in real(text).violations] for text in (one, two)}
    assert violations[one] == [] and violations[two] != []
    assert load_jsonl(out / "conformance.jsonl") == [
        {"id": r["id"], "buggy": violations[r["buggy"]], "fixed": violations[r["fixed"]],
         "conformant": not violations[r["buggy"]] and not violations[r["fixed"]]}
        for r in rows]
    assert "1 conformant, 2 with violations" in capsys.readouterr().err


def test_abstract_names_the_first_example_of_a_repeated_bad_side(tmp_path, capsys,
                                                                 monkeypatch):
    good, bad = "int f ( ) { return 1 ; }", "int f ( { return 1 ; }"
    corpus = write_jsonl(tmp_path / "c.jsonl", [
        {"id": "first", "buggy": good, "fixed": bad},
        {"id": "second", "buggy": bad, "fixed": good},
    ])
    _real, calls = _counting_abstraction(monkeypatch)
    assert main(["abstract", "--corpus", str(corpus), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: example 'first': ")
    assert calls == [good, bad]


@pytest.mark.parametrize("blocked,flags", [
    ("abstracted.jsonl", []),
    ("mappings.jsonl", []),
    ("conformance.jsonl", ["--verify-only"]),
])
def test_abstract_unwritable_output_is_environment_failure(blocked, flags, corpus_file,
                                                           tmp_path, capsys):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)  # a directory where the file goes
    others = [] if flags else [
        name for name in ("abstracted.jsonl", "mappings.jsonl") if name != blocked
    ]
    for name in others:
        (out / name).write_text("old\n", encoding="utf-8")
    assert main(["abstract", "--corpus", str(corpus_file), "--out", str(out),
                 *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"environment error: cannot write {out / blocked}")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not list(out.glob(".*.tmp"))
    for name in others:  # the output set is written whole or not at all
        assert (out / name).read_text(encoding="utf-8") == "old\n"


def test_check_non_string_id_is_input_error(tmp_path, capsys):
    snippets = write_jsonl(tmp_path / "s.jsonl", [{"id": 5, "code": "int x ;"}])
    assert main(["check", "--in", str(snippets)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "s.jsonl:1: field 'id' must be str, got int" in captured.err


@pytest.mark.parametrize("line,message", [
    ('{"id": 5, "code": "int x ;"}', "s.jsonl:2: field 'id' must be str, got int"),
    ('{"id": "s2", "text": "int x ;"}', "s.jsonl:2: no field 'code' (have: id, text)"),
    ('{"id": "s2", "code": 7}', "s.jsonl:2: field 'code' must be str"),
    ('{"id": "s2", "code": ', "s.jsonl:2: invalid JSON: "),
])
def test_check_with_a_bad_second_line_prints_no_verdict(line, message, tmp_path, capsys):
    # The whole file is validated before the first verdict is printed,
    # as every other command validates its inputs before writing.
    snippets = tmp_path / "s.jsonl"
    snippets.write_text('{"id": "s1", "code": "int x ;"}\n' + line + "\n", encoding="utf-8")
    assert main(["check", "--in", str(snippets)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {tmp_path / message}")


# ---------------------------------------------------------------------------
# unreadable input files
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("flag,bad", [
    ("--in", "latin1"),
    ("--loss-log", "latin1"),
    ("--corpus", "dir"),
    ("--preds", "dir"),
    ("--in", "dir"),
    ("--loss-log", "dir"),
])
def test_unreadable_input_is_an_error_naming_the_path(flag, bad, corpus_file,
                                                      predictions_file,
                                                      tmp_path, capsys):
    if bad == "dir":
        path = tmp_path / "a_directory"
        path.mkdir()
    else:
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b'{"id": "s1", "code": "int caf\xe9 ;"}\n')
    if flag == "--in":
        argv = ["check", "--in", str(path)]
    else:
        files = {"--corpus": corpus_file, "--preds": predictions_file,
                 "--loss-log": None, flag: path}
        argv = ["track", "--out", str(tmp_path / "r")]
        for name, value in files.items():
            if value is not None:
                argv += [name, str(value)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert "Traceback" not in err


# An integer literal past int()'s digit limit, and nesting past the
# recursion limit: json.loads raises ValueError and RecursionError here,
# not JSONDecodeError.
_HOSTILE_JSON = {
    "long-integer": ('{"step": 1' + "0" * 5000 + "}",
                     f"an integer has more than {sys.get_int_max_str_digits()} digits"),
    "deep-nesting": ("[" * 100_000, "nested too deeply"),
}


# A valid first row for each reader, so the error must name line 2.
_FIRST_ROW = {
    "--corpus": {"id": "a", "buggy": "int x ;", "fixed": "int y ;"},
    "--preds": {"id": "bug-001", "step": 500, "prediction": "int x ;"},
    "--loss-log": {"step": 500, "eval_loss": 0.5},
    "--in": {"id": "s1", "code": "int x ;"},
}


@pytest.mark.parametrize("kind", sorted(_HOSTILE_JSON))
@pytest.mark.parametrize("argv", [
    ["stats", "--corpus", "{bad}"],
    ["eval", "--corpus", "{corpus}", "--preds", "{bad}", "--out", "{out}"],
    ["track", "--corpus", "{corpus}", "--preds", "{preds}", "--out", "{out}",
     "--loss-log", "{bad}"],
    ["check", "--in", "{bad}"],
], ids=["stats --corpus", "eval --preds", "track --loss-log", "check --in"])
def test_hostile_json_line_is_an_input_error(argv, kind, corpus_file, predictions_file,
                                             tmp_path, capsys):
    line, why = _HOSTILE_JSON[kind]
    bad = tmp_path / "hostile.jsonl"
    flag = argv[argv.index("{bad}") - 1]
    bad.write_text(json.dumps(_FIRST_ROW[flag]) + "\n" + line + "\n", encoding="utf-8")
    files = {"bad": bad, "corpus": corpus_file, "preds": predictions_file,
             "out": tmp_path / "r"}
    assert main([arg.format(**files) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {bad}:2: invalid JSON: {why}\n"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85"])
def test_raw_line_separator_inside_a_string_is_one_row(sep, tmp_path, capsys):
    # JSON strings may hold these raw and str.splitlines() would break the
    # row there; JSON Lines splits on "\n" only.
    code = f'String s ( ) {{ return "a{sep}b" ; }}'
    rows = [{"id": "sep", "buggy": code, "fixed": code},
            {"id": "plain", "buggy": "int x ;", "fixed": "int y ;"}]
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("".join(json.dumps(r, ensure_ascii=False) + "\r\n" for r in rows),
                      encoding="utf-8")
    assert sep in corpus.read_text(encoding="utf-8")
    assert main(["stats", "--corpus", str(corpus)]) == 0
    assert json.loads(capsys.readouterr().out)["n_examples"] == 2
    out = tmp_path / "out"
    assert main(["abstract", "--corpus", str(corpus), "--out", str(out)]) == 0
    abstracted = load_jsonl(out / "abstracted.jsonl")
    assert abstracted[0]["buggy"] == f'String METHOD_1 ( ) {{ return "a{sep}b" ; }}'
    with corpus.open("a", encoding="utf-8") as fh:
        fh.write('{"id": "bad"}\n')
    assert main(["stats", "--corpus", str(corpus)]) == 1
    assert f"{corpus}:3: " in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


@pytest.fixture
def final_predictions_file(tmp_path):
    rows = [p for p in SMALL_PREDICTIONS if p["step"] == 1000]
    return write_jsonl(tmp_path / "final.jsonl", rows)


def test_eval_writes_report_files(corpus_file, final_predictions_file,
                                  tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["eval", "--corpus", str(corpus_file),
                 "--preds", str(final_predictions_file),
                 "--out", str(out)]) == 0
    for name in ("report.json", "checkpoints.csv", "behavior.csv",
                 "table1.csv", "records.jsonl"):
        assert (out / name).is_file(), name
    captured = capsys.readouterr()
    assert "evaluated 4 example(s) at step 1000" in captured.err
    assert "exact match 100.0%" in captured.err
    printed = captured.out.splitlines()
    assert str(out / "report.json") in printed
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["final"]["exact_match_pct"] == 100.0
    assert report["provenance"]["config"]["command"] == "eval"


def test_eval_cases_flag_adds_case_bundle(corpus_file, final_predictions_file,
                                          tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["eval", "--corpus", str(corpus_file),
                 "--preds", str(final_predictions_file),
                 "--out", str(out), "--cases", "2"]) == 0
    bundle = json.loads((out / "cases.json").read_text(encoding="utf-8"))
    assert bundle["k"] == 2
    assert len(bundle["cases"]) == 2
    assert str(out / "cases.json") in capsys.readouterr().out


def test_eval_rejects_multistep_dump(corpus_file, predictions_file,
                                     tmp_path, capsys):
    assert main(["eval", "--corpus", str(corpus_file),
                 "--preds", str(predictions_file),
                 "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert "500" in err and "1000" in err
    assert "track" in err


@pytest.mark.parametrize("command", ["eval", "inspect"])
def test_eval_and_inspect_need_a_rank_0_prediction(command, corpus_file, tmp_path, capsys):
    preds = write_jsonl(tmp_path / "p.jsonl",
                        [dict(row, rank=1) for row in SMALL_PREDICTIONS if row["step"] == 500])
    out = tmp_path / "r"
    assert main([command, "--corpus", str(corpus_file), "--preds", str(preds),
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: prediction set contains no rank-0 predictions\n"
    assert captured.out == "" and not out.exists()


def test_em_normalize_moves_only_the_exact_field_and_table1(tmp_path, capsys):
    # One prediction equals its fix byte for byte, the other only up to
    # whitespace. The behavior class compares bytes; --em-normalize moves
    # the records' "exact" field and table1's Exact Match row only.
    fixed = ["int f ( ) { return 1 ; }", "int g ( ) { return 2 ; }"]
    corpus = write_jsonl(tmp_path / "c.jsonl", [
        {"id": "a", "buggy": "int f ( ) { return 0 ; }", "fixed": fixed[0]},
        {"id": "b", "buggy": "int g ( ) { return 0 ; }", "fixed": fixed[1]},
    ])
    preds = write_jsonl(tmp_path / "p.jsonl", [
        {"id": "a", "step": 0, "prediction": fixed[0]},
        {"id": "b", "step": 0, "prediction": fixed[1].replace(" ", "  ")},
    ])
    out = tmp_path / "out"
    assert main(["eval", "--corpus", str(corpus), "--preds", str(preds),
                 "--out", str(out), "--em-normalize", "whitespace",
                 "--workers", "1"]) == 0
    assert "exact match 50.0%" in capsys.readouterr().err
    records = load_jsonl(out / "records.jsonl")
    assert [(r["exact"], r["behavior"]) for r in records] == [
        (True, "exact_match"), (True, "modification")]
    checkpoint = (out / "checkpoints.csv").read_text().splitlines()[1].split(",")
    assert checkpoint[3] == "50.000000"  # exact_match column
    behavior = (out / "behavior.csv").read_text().splitlines()
    assert behavior[1] == "exact_match,1,50.000000"
    table1 = (out / "table1.csv").read_text().splitlines()
    assert table1[1] == "Exact Match,1.000000,1.000000,0.000000"
    report = json.loads((out / "report.json").read_text())
    assert report["behavior_counts"]["exact_match"] == 1
    assert report["final"]["exact_match_pct"] == 50.0
    with pytest.raises(SystemExit):
        main(["eval", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "'exact' field and table1's Exact Match row" in help_text
    assert "always compares bytes" in help_text


def test_eval_unknown_prediction_id_is_named(corpus_file, tmp_path, capsys):
    preds = write_jsonl(tmp_path / "p.jsonl", [
        {"id": "ghost-999", "step": 500, "prediction": "int x ;"},
    ])
    assert main(["eval", "--corpus", str(corpus_file), "--preds", str(preds),
                 "--out", str(tmp_path / "r")]) == 1
    assert "ghost-999" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# track
# ---------------------------------------------------------------------------


def test_track_full_run(corpus_file, predictions_file, loss_file, tmp_path,
                        capsys):
    out = tmp_path / "results"
    assert main(["track", "--corpus", str(corpus_file),
                 "--preds", str(predictions_file),
                 "--out", str(out),
                 "--interval", "500", "--sample", "100",
                 "--loss-log", str(loss_file)]) == 0
    captured = capsys.readouterr()
    assert "tracked 2 checkpoint(s) (steps 500..1000)" in captured.err
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert [c["step"] for c in report["series"]] == [500, 1000]
    assert report["series"][0]["eval_loss"] == 0.91
    assert report["series"][1]["eval_loss"] == 0.42
    assert report["final"]["exact_match_pct"] == 100.0
    csv_lines = (out / "checkpoints.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0] == ("step,n,syntax_validity,exact_match,copy_rate,"
                            "modification_rate,ned_mean,ned_median,ned_std,"
                            "eval_loss")
    assert len(csv_lines) == 3


def test_track_warns_about_loss_steps_without_predictions(corpus_file,
                                                         predictions_file,
                                                         tmp_path, capsys):
    loss = write_jsonl(tmp_path / "loss.jsonl", [
        {"step": 0, "eval_loss": 2.0},
        {"step": 500, "eval_loss": 0.91},
        {"step": 1500, "eval_loss": 0.3},
        {"step": 2000, "train_loss": 0.2},  # no eval_loss: not an orphan
    ])
    plain = tmp_path / "plain"
    assert main(["track", "--corpus", str(corpus_file),
                 "--preds", str(predictions_file), "--out", str(plain)]) == 0
    assert "warning" not in capsys.readouterr().err
    out = tmp_path / "results"
    assert main(["track", "--corpus", str(corpus_file),
                 "--preds", str(predictions_file), "--out", str(out),
                 "--loss-log", str(loss)]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning")]
    assert warnings == ["warning: --loss-log has eval_loss at step(s) with no "
                        "predictions, ignored: 0, 1500"]
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert [c["eval_loss"] for c in report["series"]] == [0.91, None]


@pytest.mark.parametrize("row", [
    {"step": 500, "eval_loss": float("inf")},
    {"step": 500, "eval_loss": float("nan")},
])
def test_track_rejects_a_non_finite_loss_before_writing(row, corpus_file,
                                                        predictions_file,
                                                        tmp_path, capsys):
    loss = write_jsonl(tmp_path / "loss.jsonl", [row])  # json writes Infinity, NaN
    out = tmp_path / "results"
    assert main(["track", "--corpus", str(corpus_file),
                 "--preds", str(predictions_file), "--out", str(out),
                 "--loss-log", str(loss)]) == 1
    assert "loss.jsonl:1: 'eval_loss' must be finite" in capsys.readouterr().err
    assert not out.exists()


def _oracle_inputs(tmp_path):
    """Six examples and three checkpoints. Per (step, example) the
    prediction is, in turn: the fix; the input; the fix with doubled
    spaces (exact only under --em-normalize whitespace); the input with
    doubled spaces (a near-copy); the fix cut short (invalid Java)."""
    corpus = [
        {"id": f"e{i}", "buggy": f"int f{i} ( ) {{ return {i} ; }}",
         "fixed": f"int f{i} ( ) {{ return {i} + {i + 1} ; }}"}
        for i in range(6)
    ]
    preds = []
    for step in (0, 500, 1000):
        for i, ex in enumerate(corpus):
            buggy, fixed = ex["buggy"], ex["fixed"]
            text = [fixed, buggy, fixed.replace(" ", "  "),
                    buggy.replace(" ", "  "), fixed[:-2]][(i + step // 500) % 5]
            preds.append({"id": ex["id"], "step": step, "prediction": text})
    return (write_jsonl(tmp_path / "c.jsonl", corpus),
            write_jsonl(tmp_path / "p.jsonl", preds),
            {ex["id"]: ex["fixed"] for ex in corpus})


def test_report_is_a_recount_of_its_records(tmp_path):
    # Oracle: every row of checkpoints.csv and behavior.csv, and both rows
    # of table1.csv, recomputed from records.jsonl (plus the corpus, for
    # the length NED divides by) with the standard library.
    corpus, preds, fixed = _oracle_inputs(tmp_path)
    losses = {0: 2.5, 1000: 0.125}
    loss = write_jsonl(tmp_path / "loss.jsonl",
                       [{"step": k, "eval_loss": v} for k, v in losses.items()])
    out = tmp_path / "out"
    assert main(["track", "--corpus", str(corpus), "--preds", str(preds),
                 "--out", str(out), "--sample", "4", "--seed", "3",
                 "--loss-log", str(loss), "--em-normalize", "whitespace",
                 "--workers", "1"]) == 0
    by_step = {}
    for r in load_jsonl(out / "records.jsonl"):
        by_step.setdefault(r["step"], []).append(r)
    assert sorted(by_step) == [0, 500, 1000]
    assert any(r["exact"] and r["behavior"] != "exact_match"
               for rows in by_step.values() for r in rows)

    def f(x):
        return f"{x:.6f}"

    def stats(values):
        return [f(statistics.fmean(values)), f(statistics.median(values)),
                f(statistics.pstdev(values))]

    def neds(rows):
        values = []
        for r in rows:
            value = r["edit_distance"] / max(r["pred_len"], len(fixed[r["id"]]))
            assert round(value, 6) == r["ned"]
            values.append(value)
        return values

    def pct(rows, hit):
        return f(100.0 * sum(1 for r in rows if hit(r)) / len(rows))

    lines = (out / "checkpoints.csv").read_text().splitlines()[1:]
    assert len(lines) == len(by_step)
    for line, (step, rows) in zip(lines, sorted(by_step.items())):
        assert line.split(",") == [
            str(step), str(len(rows)),
            pct(rows, lambda r: r["syntax_valid"]),
            pct(rows, lambda r: r["behavior"] == "exact_match"),
            pct(rows, lambda r: r["behavior"] == "copy"),
            pct(rows, lambda r: r["behavior"] == "modification"),
            *stats(neds(rows)), f(losses[step]) if step in losses else "",
        ]
    final = by_step[1000]
    behavior = (out / "behavior.csv").read_text().splitlines()[1:]
    assert behavior == [
        f"{cls},{sum(r['behavior'] == cls for r in final)},"
        f"{pct(final, lambda r: r['behavior'] == cls)}"
        for cls in ("exact_match", "copy", "modification")
    ]
    table1 = (out / "table1.csv").read_text().splitlines()[1:]
    assert table1 == [
        ",".join(["Exact Match", *stats([1.0 if r["exact"] else 0.0 for r in final])]),
        ",".join(["Normalized Edit Distance", *stats(neds(final))]),
    ]


def test_track_interval_help_names_the_cadence_check(capsys):
    with pytest.raises(SystemExit):
        main(["track", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "must be a multiple of it" in help_text


def test_track_off_cadence_step_is_input_error(corpus_file, predictions_file,
                                               tmp_path, capsys):
    assert main(["track", "--corpus", str(corpus_file),
                 "--preds", str(predictions_file),
                 "--out", str(tmp_path / "r"),
                 "--interval", "400"]) == 1
    assert "interval" in capsys.readouterr().err


def test_track_emits_case_bundle_from_final_step(corpus_file, predictions_file,
                                                 tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["track", "--corpus", str(corpus_file),
                 "--preds", str(predictions_file),
                 "--out", str(out), "--cases", "2"]) == 0
    bundle = json.loads((out / "cases.json").read_text(encoding="utf-8"))
    assert len(bundle["cases"]) == 2
    # Final checkpoint is step 1000 where every prediction is an exact fix.
    assert all(c["behavior"] == "exact_match" for c in bundle["cases"])
    final = {p["id"]: p["prediction"] for p in SMALL_PREDICTIONS if p["step"] == 1000}
    assert all(c["prediction"] == final[c["id"]] for c in bundle["cases"])


def _four_step_dump(tmp_path):
    """12 examples over 4 steps, each prediction a copy, a fix, a cut fix
    or an edited fix; returns the file paths."""
    corpus = [
        {"id": f"ex-{i:02d}", "buggy": f"int f ( int a ) {{ return a - {i} ; }}",
         "fixed": f"int f ( int a ) {{ return a + {i} ; }}"}
        for i in range(12)
    ]
    preds = []
    for step in (0, 500, 1000, 1500):
        for i, row in enumerate(corpus):
            choice = (i + step // 500) % 4
            text = [row["buggy"], row["fixed"], row["fixed"][:-2],
                    row["fixed"].replace("a +", "b +")][choice]
            preds.append({"id": row["id"], "step": step, "prediction": text})
    return (write_jsonl(tmp_path / "corpus.jsonl", corpus),
            write_jsonl(tmp_path / "preds.jsonl", preds))


def _copying_dump(tmp_path):
    """12 examples over 4 steps: the even ones copy their input at every
    step, the odd ones alternate between a cut fix and an edited fix, and
    ex-11 predicts ex-00's input; returns the file paths and the distinct
    (prediction, fix) pairs."""
    corpus = [
        {"id": f"ex-{i:02d}", "buggy": f"int f ( int a ) {{ return a - {i} ; }}",
         "fixed": f"int f ( int a ) {{ return a + {i} ; }}"}
        for i in range(12)
    ]
    preds = []
    for step in (0, 500, 1000, 1500):
        for i, row in enumerate(corpus):
            if i == 11:
                text = corpus[0]["buggy"]
            elif i % 2 == 0:
                text = row["buggy"]
            elif step % 1000 == 0:
                text = row["fixed"][:-2]
            else:
                text = row["fixed"].replace("a +", "b +")
            preds.append({"id": row["id"], "step": step, "prediction": text})
    fixed = {row["id"]: row["fixed"] for row in corpus}
    pairs = {(p["prediction"], fixed[p["id"]]) for p in preds}
    return (write_jsonl(tmp_path / "corpus.jsonl", corpus),
            write_jsonl(tmp_path / "preds.jsonl", preds), pairs)


@pytest.mark.parametrize("extra", [[], ["--ned-tokens"]])
def test_track_measures_each_distinct_pair_once(tmp_path, capsys, monkeypatch, extra):
    corpus_path, preds_path, pairs = _copying_dump(tmp_path)
    calls = []
    real = tracking.levenshtein

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(tracking, "levenshtein", counting)
    out = tmp_path / "out"
    assert main(["track", "--corpus", str(corpus_path), "--preds", str(preds_path),
                 "--out", str(out), "--sample", "12", "--cases", "3", *extra]) == 0
    assert len(pairs) == 6 + 5 * 2 + 1  # copies, odd examples' two texts, ex-11
    assert sorted(calls) == sorted(pairs)
    assert len(list(out.iterdir())) == 6


def test_track_output_is_byte_identical_at_one_and_two_workers(tmp_path, capsys):
    corpus_path, preds_path = _four_step_dump(tmp_path)
    names = ("records.jsonl", "report.json", "checkpoints.csv", "cases.json")
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert main(["track", "--corpus", str(corpus_path),
                     "--preds", str(preds_path), "--out", str(out),
                     "--sample", "8", "--cases", "3",
                     "--workers", workers]) == 0
        outputs.append({name: (out / name).read_bytes() for name in names})
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0]["report.json"])
    assert [c["step"] for c in report["series"]] == [0, 500, 1000, 1500]
    assert len(outputs[0]["records.jsonl"].splitlines()) == 4 * 8


def test_shared_text_is_measured_per_example_at_any_worker_count(tmp_path):
    corpus = [
        {"id": "a", "buggy": "int f ( ) { return 1 ; }", "fixed": "int f ( ) { return 2 ; }"},
        {"id": "b", "buggy": "int f ( ) { return 3 ; }", "fixed": "int f ( ) { return 4 ; }"},
        {"id": "c", "buggy": "int g ( ) { return 5 ; }", "fixed": "int g ( ) { return 6 ; }"},
    ]
    shared = corpus[0]["buggy"]  # a copy for "a", a modification for "b"
    preds = [
        {"id": row["id"], "step": step,
         "prediction": row["fixed"] if row["id"] == "c" else shared}
        for step in (500, 1000) for row in corpus
    ]
    corpus_path = write_jsonl(tmp_path / "corpus.jsonl", corpus)
    preds_path = write_jsonl(tmp_path / "preds.jsonl", preds)
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert main(["track", "--corpus", str(corpus_path),
                     "--preds", str(preds_path), "--out", str(out),
                     "--workers", workers]) == 0
        outputs.append({name: (out / name).read_bytes()
                        for name in ("records.jsonl", "report.json")})
    assert outputs[0] == outputs[1]
    records = [json.loads(l) for l in outputs[0]["records.jsonl"].splitlines()]
    assert [(r["id"], r["behavior"], r["edit_distance"]) for r in records] == [
        ("a", "copy", 1), ("b", "modification", 1), ("c", "exact_match", 0),
    ] * 2


@pytest.mark.parametrize("flag,value", [("--sample", "0"), ("--sample", "-2"),
                                        ("--interval", "0")])
def test_track_rejects_a_non_positive_sample_or_interval_before_reading(flag, value,
                                                                        tmp_path, capsys):
    # Neither input file exists: the flag is refused before any is read.
    assert main(["track", "--corpus", str(tmp_path / "missing.jsonl"),
                 "--preds", str(tmp_path / "missing-preds.jsonl"),
                 "--out", str(tmp_path / "out"), flag, value]) == 1
    assert capsys.readouterr().err == f"usage error: {flag} must be positive, got {value}\n"
    assert not (tmp_path / "out").exists()


_BAD_CASE_COUNTS = {
    "too-many": ("1000", "error: asked for 1000 cases but only 4 records exist"),
    "negative": ("-3", "usage error: --cases must be non-negative, got -3"),
}


@pytest.mark.parametrize("command,cases,err", [
    pytest.param(command, cases, err, id=f"{name}-{command}")
    for name, (cases, err) in _BAD_CASE_COUNTS.items()
    for command in ("eval", "track", "inspect")
] + [
    pytest.param("inspect", "0", "usage error: --cases must be positive for inspect, got 0",
                 id="zero-inspect"),
])
def test_bad_case_count_leaves_the_output_untouched(command, cases, err, corpus_file,
                                                    final_predictions_file, tmp_path,
                                                    capsys, monkeypatch):
    judged = []
    for module in (tracking, report_module):
        real = module.check_syntax
        monkeypatch.setattr(module, "check_syntax",
                            lambda code, real=real: judged.append(code) or real(code))
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.json").write_text("old\n", encoding="utf-8")
    assert main([command, "--corpus", str(corpus_file),
                 "--preds", str(final_predictions_file), "--out", str(out),
                 "--cases", cases, "--workers", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(err)
    assert captured.out == ""
    assert [p.name for p in out.iterdir()] == ["report.json"]
    assert (out / "report.json").read_text(encoding="utf-8") == "old\n"
    assert judged == []


def test_report_and_cases_are_written_as_one_set(corpus_file, predictions_file,
                                                 tmp_path, capsys):
    out = tmp_path / "out"
    (out / "cases.json").mkdir(parents=True)  # a directory where the file goes
    names = ("report.json", "checkpoints.csv", "behavior.csv", "table1.csv",
             "records.jsonl")
    for name in names:
        (out / name).write_text(f"old {name}\n", encoding="utf-8")
    assert main(["track", "--corpus", str(corpus_file),
                 "--preds", str(predictions_file), "--out", str(out),
                 "--cases", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"environment error: cannot write {out / 'cases.json'}")
    assert captured.out == ""
    assert not list(out.glob(".*.tmp"))
    for name in names:
        assert (out / name).read_text(encoding="utf-8") == f"old {name}\n"


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------


def test_inspect_defaults_to_last_step(corpus_file, predictions_file,
                                       tmp_path, capsys):
    out = tmp_path / "cases"
    assert main(["inspect", "--corpus", str(corpus_file),
                 "--preds", str(predictions_file),
                 "--out", str(out), "--cases", "2"]) == 0
    captured = capsys.readouterr()
    assert "at step 1000" in captured.err
    bundle = json.loads((out / "cases.json").read_text(encoding="utf-8"))
    assert len(bundle["cases"]) == 2


def test_inspect_step_flag_selects_checkpoint(corpus_file, predictions_file,
                                              tmp_path, capsys):
    out = tmp_path / "cases"
    assert main(["inspect", "--corpus", str(corpus_file),
                 "--preds", str(predictions_file),
                 "--out", str(out), "--cases", "4", "--step", "500"]) == 0
    bundle = json.loads((out / "cases.json").read_text(encoding="utf-8"))
    behaviors = sorted(c["behavior"] for c in bundle["cases"])
    assert behaviors == ["copy", "copy", "modification", "modification"]


def test_inspect_unknown_step_lists_available(corpus_file, predictions_file,
                                              tmp_path, capsys):
    assert main(["inspect", "--corpus", str(corpus_file),
                 "--preds", str(predictions_file),
                 "--out", str(tmp_path / "c"), "--step", "750"]) == 1
    err = capsys.readouterr().err
    assert "750" in err
    assert "500" in err and "1000" in err


def test_inspect_seed_changes_the_draw(corpus_file, predictions_file, tmp_path):
    # Draws precomputed from the documented ranking (sha256 of
    # "<seed>:case:<id>"): seed 1 selects bug-002/bug-004, seed 2 selects
    # bug-001/bug-003.
    ids_by_seed = {}
    for seed in (1, 2):
        out = tmp_path / f"cases-{seed}"
        assert main(["inspect", "--corpus", str(corpus_file),
                     "--preds", str(predictions_file),
                     "--out", str(out), "--cases", "2",
                     "--seed", str(seed)]) == 0
        bundle = json.loads((out / "cases.json").read_text(encoding="utf-8"))
        assert bundle["seed"] == seed
        ids_by_seed[seed] = sorted(c["id"] for c in bundle["cases"])
    assert ids_by_seed[1] == ["bug-002", "bug-004"]
    assert ids_by_seed[2] == ["bug-001", "bug-003"]


# ---------------------------------------------------------------------------
# cross-cutting
# ---------------------------------------------------------------------------


def test_split_filter_applies_before_prediction_validation(tmp_path, capsys):
    corpus = write_jsonl(tmp_path / "c.jsonl", [
        {"id": "a", "buggy": "int x ;", "fixed": "int y ;", "split": "train"},
        {"id": "b", "buggy": "int p ;", "fixed": "int q ;", "split": "test"},
    ])
    # Prediction for the train-split example: once --split test drops it,
    # the prediction refers to an id outside the corpus.
    preds = write_jsonl(tmp_path / "p.jsonl", [
        {"id": "a", "step": 500, "prediction": "int y ;"},
    ])
    assert main(["eval", "--corpus", str(corpus), "--preds", str(preds),
                 "--out", str(tmp_path / "r"), "--split", "test"]) == 1
    assert "'a'" in capsys.readouterr().err


def test_output_directory_is_created_recursively(corpus_file,
                                                 final_predictions_file,
                                                 tmp_path):
    out = tmp_path / "deep" / "nested" / "results"
    assert main(["eval", "--corpus", str(corpus_file),
                 "--preds", str(final_predictions_file),
                 "--out", str(out)]) == 0
    assert (out / "report.json").is_file()


def test_blocked_output_directory_is_environment_failure(corpus_file,
                                                         final_predictions_file,
                                                         tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    code = main(["eval", "--corpus", str(corpus_file),
                 "--preds", str(final_predictions_file),
                 "--out", str(blocker / "results")])
    assert code == 2
    assert "environment error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# a closed stdout
# ---------------------------------------------------------------------------

_CLOSED = "environment error: stdout closed before all output was written\n"


def _snippets(tmp_path, count):
    return write_jsonl(tmp_path / "snippets.jsonl",
                       [{"id": f"s{i}", "code": "int f ( ) { return 1 ; }"}
                        for i in range(count)])


def test_a_reader_that_stops_early_gets_exit_2_and_one_line(tmp_path):
    # 3000 verdict lines, about 270 KB, fill a 64 KiB pipe buffer many times.
    root = Path(__file__).resolve().parent.parent
    with subprocess.Popen(
        [sys.executable, "-m", "repairdx.cli", "check", "--in", str(_snippets(tmp_path, 3000))],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()  # until the child exits
    assert first.startswith(b'{"id": "s0", "valid": true')
    assert proc.returncode == 2
    assert err.decode() == _CLOSED


class _ClosedStdout:
    """A stdout whose reader has gone: every write and flush fails."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, *_text):
        raise BrokenPipeError(32, "Broken pipe")

    flush = write

    def fileno(self):
        return self.fd


def test_main_reports_a_closed_stdout_as_an_environment_error(tmp_path, capsys,
                                                             monkeypatch):
    snippets = _snippets(tmp_path, 2)
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdout", _ClosedStdout(-1))
    assert main(["check", "--in", str(snippets)]) == 2
    assert capsys.readouterr().err == _CLOSED


def test_main_entry_points_a_closed_stdout_at_devnull(tmp_path, capsys, monkeypatch):
    snippets = _snippets(tmp_path, 2)
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedStdout(fd))
        monkeypatch.setattr(sys, "argv", ["repairdx", "check", "--in", str(snippets)])
        with pytest.raises(SystemExit) as exit_:
            cli.main_entry()
        assert exit_.value.code == 2
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert capsys.readouterr().err == _CLOSED
