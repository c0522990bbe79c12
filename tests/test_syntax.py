"""Syntax checking: wrapping, verdicts, validity arithmetic, fixtures."""

import random

import pytest

from repairdx.metrics import BehaviorClass, EvalRecord
from repairdx.syntax import (
    WRAP_PREFIX,
    WRAP_SUFFIX,
    SyntaxVerdict,
    check_syntax,
    wrap_method,
)
from repairdx.tracking import summarize_records


# ----------------------------------------------------------------------
# wrap_method


def test_wrap_embeds_the_fragment_verbatim():
    assert wrap_method("int METHOD_1 ( ) { return 0 ; }") == (
        "class __W { int METHOD_1 ( ) { return 0 ; }\n}"
    )


def test_wrap_of_empty_string():
    assert wrap_method("") == "class __W { \n}"


def test_wrap_never_alters_the_fragment():
    snippet = "}"
    wrapped = wrap_method(snippet)
    assert wrapped == WRAP_PREFIX + snippet + WRAP_SUFFIX
    assert snippet in wrapped


def test_wrapper_alone_is_neutral():
    verdict = check_syntax("int x ;")
    assert verdict.valid and verdict.error_count == 0


# ----------------------------------------------------------------------
# check_syntax


def test_valid_method_fragment():
    v = check_syntax("int METHOD_1 ( ) { return 0 ; }")
    assert v.valid and v.error_count == 0 and v.error_spans == ()


def test_fragment_ending_in_a_line_comment_is_valid():
    # The comment must not swallow the wrapper's closing brace.
    code = "void f ( ) { } // done"
    assert check_syntax(code).valid
    assert check_syntax(code) == check_syntax(code + "\n")


def test_unbalanced_brace_is_invalid():
    v = check_syntax("int METHOD_1 ( ) { return 0 ;")
    assert not v.valid and v.error_count >= 1


def test_empty_prediction_is_invalid():
    v = check_syntax("")
    assert not v.valid
    assert v.error_count == 1


def test_whitespace_only_prediction_is_invalid():
    v = check_syntax(" \n\t ")
    assert not v.valid


def test_valid_iff_zero_errors():
    for code in ("int x ;", "int ;", "", "void f ( ) { }", "}{"):
        v = check_syntax(code)
        assert v.valid == (v.error_count == 0)


def test_a_verdict_is_true_iff_valid():
    assert bool(SyntaxVerdict()) is True
    assert bool(SyntaxVerdict(error_spans=((0, 1),))) is False
    assert bool(check_syntax("int x ;")) and not check_syntax("int ;")


def test_error_spans_fall_inside_the_snippet():
    for code in ("int f ( { return ; }", "} } }", "x = = 1 ;", "### garbage"):
        v = check_syntax(code)
        assert not v.valid
        for start, end in v.error_spans:
            assert 0 <= start <= end <= len(code), (code, v.error_spans)


def test_error_spans_on_random_garbage_stay_in_bounds():
    rng = random.Random(7)
    alphabet = "{}();,#@\"'\\ intclassreturn<>[]=+-"
    for _ in range(300):
        code = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 60)))
        v = check_syntax(code)
        assert list(v.error_spans) == sorted(v.error_spans), code
        for start, end in v.error_spans:
            assert 0 <= start <= end <= len(code)


def test_check_syntax_is_deterministic():
    for code in ("int x ;", "int f ( { }", "", "garbage $%#"):
        assert check_syntax(code) == check_syntax(code)


# A fragment that closes the wrapper class early and opens a second class
# parses clean; the wrapper's own brace then closes the second class.
WRAPPER_ESCAPES = [
    ("} class X {", 0),
    ("int f ( ) { return 1 ; } } class Z { void h ( ) { }", 25),
]


@pytest.mark.parametrize("code,brace", WRAPPER_ESCAPES)
def test_fragment_that_closes_the_wrapper_is_invalid(code, brace):
    assert code[brace] == "}"
    v = check_syntax(code)
    assert not v.valid
    assert v.error_count == 1
    assert v.error_spans == ((brace, brace + 1),)


def test_appending_unmatched_brace_turns_valid_into_invalid():
    base = "void f ( ) { g ( ) ; }"
    assert check_syntax(base).valid
    assert not check_syntax(base + " }").valid


# JLS 3.10.1 allows only the ASCII digits 0-9 in a numeric literal, and
# none of these digits can start a Java identifier.
@pytest.mark.parametrize("stmt", [
    "return 1² ;", "return ٣ ;", "return .٣ ;", "return 1.٣ ;", "return 0x1p² ;",
])
def test_non_ascii_digit_is_no_part_of_a_number(stmt):
    assert not check_syntax(f"int f ( ) {{ {stmt} }}").valid


# JLS 3.4 ends a line at CR, LF or CR LF: a line comment stops at a lone
# CR, and a string or char literal may not span one.
@pytest.mark.parametrize("code,valid", [
    ("int f ( ) { // c\r return 1 ; }", True),
    ("int f ( ) { // c\r\n return 1 ; }", True),
    ('String f ( ) { return "a\rb" ; }', False),
    ("char f ( ) { return '\r' ; }", False),
    ('String f ( ) { return "a\\\rb" ; }', False),
])
def test_a_carriage_return_ends_a_line(code, valid):
    assert check_syntax(code).valid is valid


# Element-value arrays (JLS 9.7.1) hold annotations, expressions and
# nested arrays; an array initializer outside an annotation holds no
# annotation.
@pytest.mark.parametrize("code,valid", [
    ("@ A ( { @ B , @ C } ) void f ( ) { }", True),
    ("@ A ( x = { @ B } ) void f ( ) { }", True),
    ("@ A ( x = { 1 , 2 } , y = @ B ) void f ( ) { }", True),
    ("@ A ( { @ B ( { 1 } ) , } ) void f ( ) { }", True),
    ("@ A ( { { @ B } } ) void f ( ) { }", True),
    ("@ A ( { 1 , 2 } ) void f ( ) { }", True),
    ("int [ ] x = { @ B } ;", False),
    ("void f ( ) { int [ ] x = { @ B } ; }", False),
    ("@ A ( { @ B ) void f ( ) { }", False),
    ("@ A ( x = ) void f ( ) { }", False),
])
def test_annotation_element_value_arrays(code, valid):
    assert check_syntax(code).valid is valid


# A bracketed list goes on only after its separator (JLS 8.4.1, 8.1.2,
# 9.7.1, 10.6, 14.20.3, 15.12, 15.27.1): a dropped separator is an error.
# Type parameters and resources are never empty; an array initializer
# and resources may end in their separator, and `{ , }` is an array.
@pytest.mark.parametrize("code,valid", [
    ("void f ( int a int b ) { }", False),
    ("void f ( ) { g ( a b ) ; }", False),
    ("@ A ( x y ) void f ( ) { }", False),
    ("Object f ( ) { return ( int a int b ) -> a ; }", False),
    ("int [ ] x = { 1 2 } ;", False),
    ("void f ( ) { try ( A a = b C c = d ) { } }", False),
    ("< A B > void f ( ) { }", False),
    ("< A extends B C > void f ( ) { }", False),
    ("< A , > void f ( ) { }", False),
    ("< > void f ( ) { }", False),
    ("void f ( ) { try ( ) { } }", False),
    ("int [ ] x = { , } ;", True),
    ("@ A ( { , } ) void f ( ) { }", True),
    ("int [ ] x = { 1 , } ;", True),
    ("void f ( ) { try ( A a = b ; ) { } }", True),
    ("@ A ( ) void f ( ) { }", True),
    # A parameter `b` of type `a`.
    ("Object f ( ) { return ( a b ) -> a ; }", True),
])
def test_a_list_goes_on_only_after_its_separator(code, valid):
    assert check_syntax(code).valid is valid


# One conditional-expression rule (JLS 15.25) serves an annotation element
# value (9.7.1), which is no assignment and no lambda, and the third
# operand of `?:`, which is a conditional or a lambda expression.
@pytest.mark.parametrize("code,valid", [
    ("@ A ( x = y = 1 ) void f ( ) { }", False),
    ("@ A ( ( ) -> 1 ) void f ( ) { }", False),
    ("@ A ( { x = 1 } ) void f ( ) { }", False),
    ("int f ( ) { return c ? a : b = 1 ; }", False),
    ("@ A ( c ? 1 : 2 ) void f ( ) { }", True),
    ("@ A ( x = ( R ) ( ) -> 1 ) void f ( ) { }", True),
    ("int f ( ) { return c ? a : d ? b : e ; }", True),
    ("int f ( ) { return c ? x = 1 : y ; }", True),
    ("Object f ( ) { return c ? a : x -> x ; }", True),
    ("void f ( ) { x = c ? a : b ; }", True),
])
def test_a_conditional_expression_takes_no_assignment_or_bare_lambda(code, valid):
    assert check_syntax(code).valid is valid


# ----------------------------------------------------------------------
# validity arithmetic: a checkpoint's share of valid predictions, which
# summarize_records alone computes


def _validity(flags) -> float:
    """Syntax validity of a checkpoint whose records carry these verdicts."""
    records = [
        EvalRecord(example_id=f"e{i}", step=0, behavior=BehaviorClass.MODIFICATION,
                   exact=False, edit_distance=1, ned=0.5, syntax_valid=valid,
                   near_copy=False)
        for i, valid in enumerate(flags)
    ]
    return summarize_records(records).syntax_validity_pct


def test_validity_arithmetic():
    verdicts = [True] * 94 + [False] * 6
    assert _validity(verdicts) == 94.0


def test_validity_all_invalid():
    assert _validity([False] * 7) == 0.0


def test_validity_all_valid():
    assert _validity([True] * 3) == 100.0


def test_validity_combines_by_count_weighting():
    rng = random.Random(13)
    part_a = [rng.random() < 0.7 for _ in range(40)]
    part_b = [rng.random() < 0.3 for _ in range(25)]
    combined = _validity(part_a + part_b)
    weighted = (
        _validity(part_a) * len(part_a) + _validity(part_b) * len(part_b)
    ) / (len(part_a) + len(part_b))
    assert combined == pytest.approx(weighted, abs=1e-12)


# ----------------------------------------------------------------------
# frozen fixture corpora


def test_hand_written_methods_are_all_valid(valid_methods):
    bad = [row["id"] for row in valid_methods if not check_syntax(row["code"]).valid]
    assert bad == []


def test_single_token_deletions_are_all_invalid(broken_methods):
    good = [row["id"] for row in broken_methods if check_syntax(row["code"]).valid]
    assert good == []


def test_flagged_constructs_match_their_documented_verdicts(flagged_constructs):
    # these are legal Java that the checker is known to reject; the
    # fixture records that limitation so a behavior change is noticed
    for row in flagged_constructs:
        assert check_syntax(row["code"]).valid == (not row["flagged"]), row["id"]
