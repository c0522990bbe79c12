"""The parser stays inside the interpreter's default recursion limit.

Nesting is bounded by the parser's depth guard (``_MAX_DEPTH``), and each
level of every recursive cycle costs so few frames that the guard is
reached long before the default limit of 1,000 frames. These tests count
the frames below ``JavaParser.parse`` with ``sys.setprofile`` on one
nesting family per recursive cycle, parse each family at its guard
boundary in a fresh thread, and check that parsing leaves the recursion
limit alone. Where the guard fires the parse stops: a verdict past it
says ``limit_exceeded`` when the brackets balance, and is plainly
invalid when they do not.
"""

import json
import sys
import threading
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repairdx.cli import main
from repairdx.javaparse import LIMIT, JavaParser, parse_java
from repairdx.syntax import check_syntax

from conftest import write_jsonl

FRAME_BUDGET = 750
DEFAULT_RECURSION_LIMIT = 1000
JOIN_TIMEOUT_S = 60.0


def _ret(expr):
    return "Object f ( ) { return " + expr + " ; }"


def _body(stmts):
    return "void f ( ) { " + stmts + " }"


# name -> (fragment nested n levels deep, the first n judged invalid).
# The boundaries are where the depth guard starts to cut.
FAMILIES = {
    "parentheses": (lambda n: _ret("( " * n + "a" + " )" * n), 72),
    "blocks": (lambda n: _body("{ " * n + "} " * n), 220),
    "if_chains": (lambda n: _body("if ( x ) " * n + "g ( ) ;"), 216),
    "else_if_chains": (lambda n: _body("if ( x ) g ( ) ; " + "else if ( x ) g ( ) ; " * n), 215),
    "unary_minus": (lambda n: _ret("- " * n + "a"), 216),
    "casts": (lambda n: _ret("( int ) " * n + "a"), 216),
    "ternaries": (lambda n: _ret("c ? a : " * n + "b"), 216),
    "assignments": (lambda n: _body("x = " * n + "y ;"), 216),
    "lambda_chains": (lambda n: _ret("x -> " * n + "x"), 216),
    "lambda_blocks": (lambda n: _ret("( ) -> { return " * n + "x" + " ; }" * n), 108),
    "nested_calls": (lambda n: _ret("g ( " * n + "x" + " )" * n), 108),
    "indexing": (lambda n: _ret("a [ " * n + "0" + " ]" * n), 108),
    "anonymous_classes": (
        lambda n: _ret("new A ( ) { Object m ( ) { return " * n + "x" + " ; } }" * n), 44),
    "anonymous_class_fields": (
        lambda n: _ret("new A ( ) { Object o = " * n + "x" + " ; }" * n), 54),
    "local_classes": (lambda n: _body("class A { void m ( ) { " * n + "} } " * n), 110),
    "abstract_local_classes": (
        lambda n: _body("abstract class A { void m ( ) { " * n + "} } " * n), 110),
    "array_initializers": (lambda n: "int [ ] x = " + "{ " * n + "} " * n + ";", 220),
    "generics": (lambda n: "A < " * n + "B" + " >" * n + " x ;", 219),
    "annotations": (lambda n: "@ A ( " * n + "@ A" + " )" * n + " void f ( ) { }", 219),
    # Element-value arrays: through the annotation and array guards in
    # turn, and through the array guard alone.
    "annotation_arrays": (lambda n: "@ A ( { " * n + "@ A" + " } )" * n + " void f ( ) { }", 110),
    "annotation_array_nests": (
        lambda n: "@ A ( " + "{ " * n + "@ A" + " }" * n + " ) void f ( ) { }", 218),
    "switch_expressions": (
        lambda n: _ret("switch ( k ) { default -> " * n + "0" + " ; }" * n), 72),
    "labels": (lambda n: _body("l : " * n + ";"), 219),
    "do_while": (lambda n: _body("do " * n + ";" + " while ( x ) ;" * n), 217),
    "try_catch": (lambda n: _body("try { } catch ( E e ) { " * n + "} " * n), 219),
    "try_bodies": (lambda n: _body("try { " * n + "} catch ( E e ) { } " * n), 219),
    "switch_rule_blocks": (
        lambda n: _body("switch ( k ) { default -> { " * n + "} } " * n), 217),
    "member_classes": (lambda n: "class A { " * n + "} " * n, 221),
    "enum_constant_bodies": (lambda n: "enum E { A { " * n + "} } " * n, 221),
    "binary_chains": (
        lambda n: _ret("a || b && c | d ^ e & f == g < h << i + j * ( " * n + "a" + " )" * n), 72),
    "receiver_calls": (lambda n: _ret("a . g ( " * n + "x" + " )" * n), 108),
    "qualified_creation": (
        lambda n: _ret("a . new A ( ) { Object o = " * n + "x" + " ; }" * n), 72),
    "local_lambda_declarations": (lambda n: _body("R r = ( ) -> { " * n + "} ; " * n), 110),
    # A primitive type starts a declaration in `parse_statement` itself,
    # with no frame between the statement and the declaration.
    "primitive_local_lambda_declarations": (
        lambda n: _body("int r = ( ) -> { " * n + "} ; " * n), 110),
    "for_init_lambdas": (lambda n: _body("for ( R r = ( ) -> { " * n + "} ; ; ) ; " * n), 110),
    # An element value is a conditional expression (JLS 9.7.1), so a
    # lambda reaches it only through a cast, one more guard level a cycle.
    "local_classes_with_annotated_type_parameters": (
        lambda n: _body("class A < @ B ( ( R ) ( ) -> { " * n + "} ) T > { } " * n), 55),
}


def peak_frames(src):
    """Most frames on the stack below ``JavaParser.parse`` while it runs."""
    parser = JavaParser(src)
    depth = peak = 0

    def profile(frame, event, arg):
        nonlocal depth, peak
        if event == "call":
            depth += 1
            peak = max(peak, depth)
        elif event == "return":
            depth -= 1

    sys.setprofile(profile)
    try:
        parser.parse()
    finally:
        sys.setprofile(None)
    return peak - 1  # parse's own frame


def in_fresh_thread(fn, *args):
    """``fn(*args)`` in a new thread: its result, or its exception raised here."""
    out = {}

    def run():
        try:
            out["value"] = fn(*args)
        except BaseException as exc:  # handed to the caller
            out["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(JOIN_TIMEOUT_S)
    assert not thread.is_alive()
    if "error" in out:
        raise out["error"]
    return out["value"]


@contextmanager
def default_recursion_limit():
    # Hypothesis raises the limit while a test runs; put the default back.
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(DEFAULT_RECURSION_LIMIT)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_frames_stay_within_budget_at_any_depth(family):
    build, boundary = FAMILIES[family]
    for depth in (1, 10, boundary - 1, boundary, boundary + 1, 2 * boundary, 5000):
        frames = peak_frames(build(depth))
        assert frames <= FRAME_BUDGET, (family, depth, frames)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_parses_at_its_boundary_in_a_fresh_thread(family):
    assert sys.getrecursionlimit() == DEFAULT_RECURSION_LIMIT
    build, boundary = FAMILIES[family]
    verdicts = in_fresh_thread(
        lambda: [check_syntax(build(d)) for d in (boundary - 1, boundary, boundary + 1)]
    )
    assert [v.valid for v in verdicts] == [True, False, False]
    # Every family balances its brackets, so past the guard it is cut.
    assert [v.limit_exceeded for v in verdicts] == [False, True, True]
    assert [v.error_count for v in verdicts] == [0, 1, 1]


def test_parsing_never_sets_the_recursion_limit(monkeypatch):
    calls = []
    monkeypatch.setattr(sys, "setrecursionlimit", calls.append)
    before = sys.getrecursionlimit()
    for build, boundary in FAMILIES.values():
        code = build(boundary + 1)
        parse_java(code)
        check_syntax(code)
        assert sys.getrecursionlimit() == before
    assert calls == []


def test_concurrent_deep_parses_leave_the_limit_alone():
    before = sys.getrecursionlimit()
    code = FAMILIES["parentheses"][0](70)
    seen = []

    def work():
        for _ in range(200):
            parse_java(code)
            seen.append(sys.getrecursionlimit())

    threads = [threading.Thread(target=work) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOIN_TIMEOUT_S)
        assert not thread.is_alive()
    assert len(seen) == 800
    assert set(seen) == {before}
    assert sys.getrecursionlimit() == before


def test_check_judges_a_10000_deep_annotation_invalid(tmp_path, capsys):
    code = "@ A ( " * 10000 + "@ A" + " )" * 10000 + " void f ( ) { }"
    snippets = write_jsonl(tmp_path / "snippets.jsonl", [{"id": "deep", "code": code}])
    assert main(["check", "--in", str(snippets)]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["id"] == "deep" and verdict["valid"] is False


def test_unbalanced_deep_nest_is_plainly_invalid():
    code = _ret("( " * 300 + "a" + " )" * 299)
    verdict = check_syntax(code)
    assert not verdict.valid and not verdict.limit_exceeded
    start = code.index("(", code.index("return"))  # the outermost, unclosed one
    assert verdict.error_count == 1
    assert verdict.error_spans == ((start, start + 1),)


def test_balanced_5000_deep_nest_stops_at_the_guard():
    code = FAMILIES["parentheses"][0](5000)
    root = parse_java(code)
    # One LIMIT node and nothing else: no recovery ran after the cut.
    assert [n.kind for n in root.error_nodes()] == [LIMIT]
    assert [n.kind for n in root.children] == [LIMIT]
    verdict = check_syntax(code)
    assert verdict.error_count == 1 and verdict.limit_exceeded


def test_track_counts_cut_predictions_per_checkpoint(tmp_path, capsys):
    deep = FAMILIES["parentheses"][0]
    corpus = [{"id": f"e{i}", "buggy": _ret("a"), "fixed": _ret("b")} for i in range(4)]
    texts = [deep(100), deep(2000), _ret("( " * 300 + "a" + " )" * 299), _ret("b")]
    preds = [{"id": row["id"], "step": step, "prediction": text}
             for step in (500, 1000) for row, text in zip(corpus, texts)]
    corpus_path = write_jsonl(tmp_path / "corpus.jsonl", corpus)
    preds_path = write_jsonl(tmp_path / "preds.jsonl", preds)
    out = tmp_path / "out"
    assert main(["track", "--corpus", str(corpus_path), "--preds", str(preds_path),
                 "--out", str(out), "--cases", "4"]) == 0
    records = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
    assert [(r["syntax_valid"], r["limit_exceeded"]) for r in records] == [
        (False, True), (False, True), (False, False), (True, False),
    ] * 2
    report = json.loads((out / "report.json").read_text())
    assert [row["limit_exceeded_count"] for row in report["series"]] == [2, 2]
    assert [row["syntax_validity_pct"] for row in report["series"]] == [25.0, 25.0]


# Random token soup around deep nests of every opener the grammar recurses on.
OPENERS = ["(", "{", "[", "<", "@ A (", "new A ( ) {", "class A {"]
SOUP = ["(", ")", "{", "}", "[", "]", "<", ">", ";", ",", ".", "=", "+", "?", ":",
        "->", "@", "x", "1", "int", "class", "new", "return", "if", "else", "switch",
        "case", "default", "try", "catch", "for", "enum", "A"]
NESTS = st.tuples(
    st.sampled_from(OPENERS),
    st.integers(min_value=0, max_value=5000),
    st.lists(st.sampled_from(SOUP), max_size=12),
)


@settings(max_examples=25, deadline=None)
@given(st.lists(NESTS, min_size=1, max_size=3))
def test_nested_token_soup_never_raises(nests):
    code = " ".join(" ".join([opener] * depth + soup) for opener, depth, soup in nests)
    with default_recursion_limit():
        start = time.monotonic()
        verdict = in_fresh_thread(check_syntax, code)
        elapsed = time.monotonic() - start
    assert verdict.valid in (True, False)
    assert elapsed < 10.0
