"""Lexer behavior: token kinds, spans, maximal munch, error tokens, and
equality with the per-character scanner kept in ``reference_lexer``."""

import gc
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repairdx.javaparse import parser as parser_module
from repairdx.javaparse.lexer import (
    BAD,
    CHAR,
    EOF,
    IDENT,
    KEYWORD,
    NUMBER,
    PUNCT,
    STRING,
    KEYWORDS,
    PRIMITIVE_TYPES,
    _OPERATORS,
    tokenize,
)

from reference_lexer import tokenize as reference_tokenize


def kinds_and_texts(src):
    return [(t.kind, t.text) for t in tokenize(src) if t.kind != EOF]


def test_simple_statement_tokens():
    assert kinds_and_texts("int x = 42 ;") == [
        (KEYWORD, "int"),
        (IDENT, "x"),
        (PUNCT, "="),
        (NUMBER, "42"),
        (PUNCT, ";"),
    ]


def test_every_token_carries_its_exact_span():
    src = 'foo ( "a b" , 0x1F ) ; // trailing'
    for tok in tokenize(src):
        if tok.kind == EOF:
            assert tok.start == tok.end == len(src)
        else:
            assert src[tok.start:tok.end] == tok.text


def test_spans_are_ordered_and_disjoint():
    src = "a+b <= c>>>d"
    toks = [t for t in tokenize(src) if t.kind != EOF]
    for left, right in zip(toks, toks[1:]):
        assert left.end <= right.start


@pytest.mark.parametrize("op", [
    ">>>=", ">>=", ">>>", ">>", ">=", "<<=", "<<", "...", "->", "::",
    "==", "!=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "%=",
    "&=", "|=", "^=",
])
def test_maximal_munch_operators(op):
    toks = kinds_and_texts(f"a {op} b")
    assert (PUNCT, op) in toks, toks


def test_longest_operator_wins_without_spaces():
    assert kinds_and_texts("x>>>=1") == [
        (IDENT, "x"), (PUNCT, ">>>="), (NUMBER, "1"),
    ]


def test_comments_are_skipped():
    assert kinds_and_texts("a /* block */ b // line") == [
        (IDENT, "a"), (IDENT, "b"),
    ]


def test_block_comment_may_span_lines():
    assert kinds_and_texts("a /* one\n two \n */ b") == [
        (IDENT, "a"), (IDENT, "b"),
    ]


def test_string_and_char_literals():
    toks = kinds_and_texts('say ( "line\\n\\t \\"q\\"" , \'x\' , \'\\n\' )')
    kinds = [k for k, _ in toks]
    assert kinds.count(STRING) == 1
    assert kinds.count(CHAR) == 2


@pytest.mark.parametrize("lit", [
    "0", "42", "0x1F", "0b1010", "017", "1_000_000", "3.14", "2.5e-3",
    "1e9", "3f", "2.0d", "4L", "0xCAFEL",
])
def test_number_literal_shapes(lit):
    assert kinds_and_texts(lit) == [(NUMBER, lit)]


def test_unterminated_string_is_a_bad_token():
    toks = tokenize('"abc')
    assert toks[0].kind == BAD


def test_a_carriage_return_ends_a_line_comment_and_a_literal():
    # JLS 3.4: CR, LF and CR LF each end a line.
    assert kinds_and_texts("a // c\rb") == [(IDENT, "a"), (IDENT, "b")]
    assert kinds_and_texts('"a\rb"') == [(BAD, '"a'), (IDENT, "b"), (BAD, '"')]
    assert kinds_and_texts("'\r'") == [(BAD, "'"), (BAD, "'")]
    assert kinds_and_texts('"a\\\r"') == [(BAD, '"a\\'), (BAD, '"')]


def test_unknown_character_is_a_bad_token():
    toks = kinds_and_texts("# weird")
    assert toks[0] == (BAD, "#")
    assert toks[1] == (IDENT, "weird")


def test_contextual_names_lex_as_identifiers():
    # these words are only reserved in specific positions, and the
    # corpus uses them freely as plain names
    for word in ("var", "yield", "record", "sealed", "permits"):
        assert kinds_and_texts(word) == [(IDENT, word)]


def test_literal_words_lex_as_keywords():
    for word in ("true", "false", "null"):
        assert kinds_and_texts(word) == [(KEYWORD, word)]
        assert word in KEYWORDS


def test_primitive_types_are_keywords():
    assert {"int", "boolean", "void", "double", "char"} <= PRIMITIVE_TYPES
    for word in sorted(PRIMITIVE_TYPES):
        assert kinds_and_texts(word) == [(KEYWORD, word)]


def test_tokenize_is_deterministic():
    src = 'while(x<10){x+=f("s",\'c\',0x2)|y>>>2;}'
    first = [(t.kind, t.text, t.start, t.end) for t in tokenize(src)]
    second = [(t.kind, t.text, t.start, t.end) for t in tokenize(src)]
    assert first == second


def test_empty_input_yields_only_eof():
    toks = tokenize("")
    assert len(toks) == 1 and toks[0].kind == EOF


def test_whitespace_only_input_yields_only_eof():
    toks = tokenize(" \t\n  ")
    assert len(toks) == 1 and toks[0].kind == EOF


# ----------------------------------------------------------------------
# the master-pattern lexer against the per-character scanner it replaced

def _stream(toks):
    return [(t.kind, t.text, t.start, t.end) for t in toks]


OPERATORS = frozenset(_OPERATORS)


def assert_text_decides_kind(toks):
    """The parser tests a token's text alone: a keyword text is on a
    KEYWORD token and nowhere else, an operator text on a PUNCT token."""
    for tok in toks:
        assert (tok.text in KEYWORDS) == (tok.kind == KEYWORD), tok
        assert (tok.text in OPERATORS) == (tok.kind == PUNCT), tok


# Where `re` classes and `str` predicates part: superscript and vulgar
# fractions are digits or numerics but not decimals, U+0663 is a decimal
# outside ASCII, and U+00A0, U+2028, U+3000 and U+001C are whitespace.
PIECES = list("abxXeEpPfFdDlL019_$.+-*/=<>!&|^%~?:;,()[]{}@\"'\\ \n\t") + [
    "²", "½", "٣", "é", "\u00a0", "\u2028", "\u3000", "\x1c", '"""', "/*", "*/",
    "//", "0x", "0b", "1e", ".5", "...", "->", "int", "return",
    "\\\n", "\\\r", "\r", '""""', '"""""', "\\'", '\\"',
]


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(PIECES), st.text(max_size=3)), max_size=30))
def test_tokens_match_the_reference_scanner(pieces):
    src = "".join(pieces)
    toks = tokenize(src)
    assert _stream(toks) == _stream(reference_tokenize(src))
    assert_text_decides_kind(toks)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(PIECES), st.text(max_size=3)), max_size=30))
def test_number_tokens_are_ascii(pieces):
    src = "".join(pieces)
    for tok in tokenize(src):
        if tok.kind == NUMBER:
            assert tok.text.isascii(), tok


# Space-separated token texts, the form the corpus and most model output
# take: long runs of pieces that are each one whole token, among pieces
# that are not (a literal or comment that holds spaces, a number with a
# prefix or suffix, a non-ASCII identifier, `$x`) and doubled, leading and
# trailing spaces, so a piece may start anywhere the lexer has got to.
# `٣` is a digit and `a·` an identifier to `str`, but neither is one
# token to Java.
SPACED_TRAPS = [
    '"a b"', "' '", "// x y\n", "/* a b */", '"\t"', '" "', "0x1F", "1L", "é",
    "", "$x", "_", "\t", "a+b", '"a b', "/* a", "'a b'", "٣", "a·",
]
SPACED_WORDS = st.one_of(
    st.sampled_from(_OPERATORS + sorted(KEYWORDS)),
    st.from_regex(r"[A-Za-z_$][A-Za-z0-9_$]{0,6}", fullmatch=True),
    st.from_regex(r"[0-9]{1,5}", fullmatch=True),
    st.sampled_from(SPACED_TRAPS),
)


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([" ", " ", " ", "  ", ""]), SPACED_WORDS),
                max_size=40),
       st.sampled_from(["", " ", "  "]))
def test_space_separated_tokens_match_the_reference_scanner(words, tail):
    src = "".join(sep + word for sep, word in words) + tail
    toks = tokenize(src)
    assert _stream(toks) == _stream(reference_tokenize(src))
    assert_text_decides_kind(toks)


@pytest.mark.parametrize("src", [
    "0xp+.", ".0xB", "1e²", ".²", "1.x",
    "..5", "1.5.3", ".5.5", "0x1p+x", "1e+x", "1.²", "é1", "a . ٣", "/*/ x", "x // c",
    '"\\"', '"a\\', "'\\\n", '""""', '"""a""""', '"\r"', "'\r'",
])
def test_trap_inputs_match_the_reference_scanner(src):
    assert _stream(tokenize(src)) == _stream(reference_tokenize(src))


# Space-separated pieces: one token each, none, and a literal and a
# comment whose spaces split them into half a million pieces that the
# lexer passes.
SPACED_MEGABYTE_INPUTS = {
    "spaced operators": "( " * 500_000,
    "spaces": " " * 1_000_000,
    "spaced identifiers": "a " * 500_000,
    "string of spaced words": '"' + "a " * 499_999 + '"',
    "unterminated comment": "/*" + " a" * 499_999,
}

# Degenerate model output can hold a literal, or a run of pieces, of any
# length. A literal lexes in about 0.1 s at most (the escape pairs of the
# fourth cost the most), and half a million one-token pieces in about
# 0.4 s, half of it the cyclic GC passing over the new tokens; the bound
# leaves room for a slow machine and fails on a scan whose cost grows
# faster than its input, such as one that backtracks.
MEGABYTE_INPUTS = {
    "unterminated string": '"' + "a" * 999_999,
    "terminated string": '"' + "a" * 999_998 + '"',
    "unterminated char": "'" + "a" * 999_999,
    "escape-dense string": '"' + "\\a" * 499_999,
    "unterminated text block": '"""' + "a" * 999_997,
    **SPACED_MEGABYTE_INPUTS,
}


@pytest.mark.parametrize("name", MEGABYTE_INPUTS)
def test_a_megabyte_literal_lexes_in_under_a_second(name):
    src = MEGABYTE_INPUTS[name]
    # The lexer's own CPU time, the GC passes over its tokens included. On
    # a contended host wall time also counts waits for a CPU, and in a full
    # test run each full collection would also walk every object that
    # earlier tests left alive, so those are frozen out of the collector.
    gc.freeze()
    try:
        began = time.process_time()
        toks = tokenize(src)
        elapsed = time.process_time() - began
    finally:
        gc.unfreeze()
    assert _stream(toks) == _stream(reference_tokenize(src))
    # A line tracer, such as tests/line_reach.py, calls back on every
    # line that the per-piece loop runs in Python, half a million times
    # here; a literal's scan runs in C, so its bound holds traced too.
    if sys.gettrace() is None or name not in SPACED_MEGABYTE_INPUTS:
        assert elapsed < 1.0, f"{name}: {elapsed:.3f} s"


def test_a_megabyte_identifier_with_a_non_ascii_start_lexes_in_under_a_second():
    src = "é" + "é1_$a" * 199_999 + "é" * 4
    began = time.perf_counter()
    toks = tokenize(src)
    elapsed = time.perf_counter() - began
    assert _stream(toks) == [(IDENT, src, 0, len(src)), (EOF, "", len(src), len(src))]
    assert elapsed < 1.0, f"{elapsed:.3f} s"


def test_trap_inputs_keep_their_scanner_tokens():
    assert kinds_and_texts("0xp+.") == [(NUMBER, "0xp+"), (PUNCT, ".")]
    assert kinds_and_texts(".0xB") == [(NUMBER, ".0xB")]
    # A numeric literal is ASCII (JLS 3.10.1): `²` ends the number, and
    # then continues the identifier `e` or stands alone as BAD.
    assert kinds_and_texts("1e²") == [(NUMBER, "1"), (IDENT, "e²")]
    assert kinds_and_texts(".²") == [(PUNCT, "."), (BAD, "²")]
    assert kinds_and_texts("1.x") == [(NUMBER, "1"), (PUNCT, "."), (IDENT, "x")]
    # A traditional comment ends only at `*/` (JLS 3.7), and `/*/` holds
    # none: with no `*/` after it, a `/*` is one BAD token to the end.
    assert kinds_and_texts("/*/ x") == [(BAD, "/*/ x")]
    assert kinds_and_texts("x ; /* a */ y /* b") == [
        (IDENT, "x"), (PUNCT, ";"), (IDENT, "y"), (BAD, "/* b"),
    ]


def test_fixture_tokens_match_the_reference_scanner(valid_methods, broken_methods,
                                                    abstraction_methods, flagged_constructs):
    rows = valid_methods + broken_methods + abstraction_methods + flagged_constructs
    for row in rows:
        toks = tokenize(row["code"])
        assert _stream(toks) == _stream(reference_tokenize(row["code"]))
        assert_text_decides_kind(toks)


@pytest.mark.parametrize("src", ["", "a", "a ( ) ;", "/* open", '"open', "x // end"])
def test_exactly_one_trailing_eof(src):
    toks = tokenize(src)
    assert [t.kind for t in toks].count(EOF) == 1
    assert toks[-1] == (EOF, "", len(src), len(src))


def test_a_parse_leaves_the_token_list_it_was_given_unpadded(monkeypatch):
    # The parser pads a copy with a second EOF; the list that tokenize
    # returned, which a wrapper on the parser's name may count, keeps one.
    seen = []

    def recording(src):
        seen.append(tokenize(src))
        return seen[-1]

    monkeypatch.setattr(parser_module, "tokenize", recording)
    src = "int f ( ) { return 1 ; }"
    parser_module.JavaParser(src).parse()
    assert len(seen) == 1
    assert _stream(seen[0]) == _stream(reference_tokenize(src))


def test_token_is_an_immutable_tuple_with_named_fields():
    tok = tokenize("x")[0]
    assert tok == (IDENT, "x", 0, 1)
    assert (tok.kind, tok.text, tok.start, tok.end) == tuple(tok)
    with pytest.raises(AttributeError):
        tok.kind = KEYWORD
