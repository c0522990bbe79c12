"""Tests for ``repairdx.bindings``, the two names the benchmark still uses.

``get_parser('builtin')`` is the benchmark's start-up statement, and
``parse_java`` on this module is the name its tracer wraps to time
verdict parses. These tests pin both until the benchmark stops naming
them.
"""

import random

import pytest

import repairdx.bindings
from repairdx import javaparse
from repairdx.bindings import get_parser, parse_java
from repairdx.errors import InputError, UsageError
from repairdx.syntax import check_syntax


def _error_spans(tree):
    return sorted((n.start, n.end) for n in tree.error_nodes())


# ---------------------------------------------------------------------------
# get_parser
# ---------------------------------------------------------------------------


def test_builtin_is_always_available():
    assert get_parser("builtin") is javaparse.parse_java


def test_get_parser_defaults_to_builtin():
    assert get_parser() is get_parser("builtin")


def test_unknown_binding_is_a_usage_error():
    with pytest.raises(UsageError) as excinfo:
        get_parser("antlr")
    assert "antlr" in str(excinfo.value)
    # The message should tell the user what IS available.
    assert "builtin" in str(excinfo.value)


def test_unknown_binding_error_is_an_input_error():
    # Usage problems map to exit code 1 alongside other input errors.
    with pytest.raises(InputError):
        get_parser("nope")


def test_treesitter_binding_unavailable_here():
    # The tree-sitter binding is gone: its name is now just unknown.
    with pytest.raises(UsageError) as excinfo:
        get_parser("treesitter")
    assert "builtin" in str(excinfo.value)


# ---------------------------------------------------------------------------
# parse_java, as the verdict parse
# ---------------------------------------------------------------------------


def test_check_syntax_parses_through_this_module(monkeypatch):
    parsed = []

    def counting(text):
        parsed.append(text)
        return parse_java(text)

    monkeypatch.setattr(repairdx.bindings, "parse_java", counting)
    assert check_syntax("int f ( ) { return 1 ; }").valid
    assert not check_syntax("int f ( { return 1 ; }").valid
    assert len(parsed) == 2


def test_clean_parse_has_no_error_spans():
    tree = parse_java("class A { int f ( ) { return 1 ; } }")
    assert _error_spans(tree) == []


def test_broken_parse_reports_error_spans_in_bounds():
    code = "class A { int f ( ) { return ; }"  # missing closing brace
    spans = _error_spans(parse_java(code))
    assert spans, "a broken snippet must surface at least one error span"
    for start, end in spans:
        assert 0 <= start <= end <= len(code)


def test_builtin_parse_is_total_on_garbage():
    rng = random.Random(67)
    alphabet = "{}();=+-#\"'\\\n\t abcdefXYZ0189$_@<>[]"
    for _ in range(300):
        soup = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 80)))
        tree = parse_java(soup)  # must not raise
        for start, end in _error_spans(tree):
            assert 0 <= start <= end <= len(soup)


def test_error_spans_are_sorted():
    # The verdict reports spans in source order.
    for code in ("class A { ### int f ( { return ; }",
                 "class A { int f ( ) { ### ; } int g ( ) { @@ ; } }"):
        spans = list(check_syntax(code).error_spans)
        assert spans
        assert spans == sorted(spans)


def test_builtin_parse_is_deterministic():
    code = "class A { void f ( ) { if ( x ) { y ( ) ; } ### } }"
    first = _error_spans(parse_java(code))
    for _ in range(5):
        assert _error_spans(parse_java(code)) == first


def test_two_parser_instances_agree():
    # Two lookups of the builtin parser give the same spans.
    code = "interface I { int f ( int ) ; }"
    a = _error_spans(get_parser("builtin")(code))
    b = _error_spans(get_parser("builtin")(code))
    assert a == b


def test_walk_yields_nodes_with_contract_fields():
    # The fields a verdict and the abstraction read off every node.
    nodes = list(parse_java("class A { int x ; }").walk())
    assert nodes
    for node in nodes:
        assert isinstance(node.kind, str)
        assert isinstance(node.is_error, bool)
        assert 0 <= node.start <= node.end
