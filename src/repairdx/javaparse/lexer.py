"""Java lexer producing offset-tagged tokens.

Total over arbitrary input: characters that cannot start a token, and
unterminated string/char literals, become BAD tokens instead of raising.
Comments and whitespace are skipped. Offsets index into the source string.

One compiled master pattern (the "Writing a Tokenizer" recipe of the `re`
documentation) skips the whitespace and comments before a token and
matches the token in the same call: an ASCII identifier or keyword, an
ASCII number it can finish exactly, or an operator. Everything else (a
non-ASCII start character, a string or char literal, a number the
pattern cannot finish exactly) falls back to a per-character dispatch over
`str` predicates. The fast path is exact because `\\s` is
`str.isspace()` and `\\w` is `str.isalnum()` or `_`; `\\d` is not
`str.isdigit()` (`²`, `٣`) and no `re` class is `str.isalpha()`, so
those decisions stay in the dispatch.
"""

from __future__ import annotations

import re
from typing import NamedTuple

KEYWORDS = frozenset(
    """
    abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package
    private protected public return short static strictfp super switch
    synchronized this throw throws transient try void volatile while
    true false null
    """.split()
)

PRIMITIVE_TYPES = frozenset(
    ["boolean", "byte", "char", "double", "float", "int", "long", "short", "void"]
)

# Maximal munch: longest operators first.
_OPERATORS = [
    ">>>=", "<<=", ">>=", ">>>", "...",
    "->", "::", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "&=", "|=", "^=", "%=",
    "+", "-", "*", "/", "%", "&", "|", "^", "!", "~", "=", "<", ">",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}", "@",
]

IDENT = "ident"
KEYWORD = "keyword"
NUMBER = "number"
STRING = "string"
CHAR = "char"
PUNCT = "punct"
BAD = "bad"
EOF = "eof"

_HEX = set("0123456789abcdefABCDEF_")
_SUFFIX = set("lLfFdD")


class Token(NamedTuple):
    kind: str
    text: str
    start: int
    end: int


# The group names are the token kinds they yield. A match always
# succeeds: when no token group matches, the empty last alternative
# leaves `lastgroup` None and the dispatch takes over at `end()`.
# The number is matched greedily inside a lookahead, which `re` never
# re-enters, so it cannot backtrack to a shorter literal; it then must
# not run into a word character or '.', where the scanner could read on
# (`1e²`, `0xp+.`, `1.x`). A '.' before any digit, ASCII or not, starts
# a number, so the '.' operator is not matched before a digit or any
# non-ASCII word character; the dispatch judges those.
_MASTER = re.compile(
    r"""
    (?:\s+|//[^\n]*\n?|/\*(?:[\s\S]*?\*/|[\s\S]*))*
    (?:
        (?P<ident>[A-Za-z_$][\w$]*)
      | (?P<number>(?=(?P<literal>
            \.?
            (?:0[xX][0-9a-fA-F_]*(?:\.[0-9a-fA-F_]*)?(?:[pP][+-]?[0-9]*)?
              |0[bB][01_]*
              |[0-9][0-9_]*(?:\.(?=[0-9eEfFdD])[0-9_]*)?(?:[eE][+-]?[0-9]+)?
            )[lLfFdD]?
        ))(?P=literal)(?![\w.]))
      | (?P<punct>"""
    + "|".join(re.escape(op) + (r"(?![^\W_A-Za-z])" if op == "." else "") for op in _OPERATORS)
    + r""")
      |
    )
    """,
    re.VERBOSE,
)


def _ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_" or ch == "$"


def _ident_part(ch: str) -> bool:
    return ch.isalnum() or ch == "_" or ch == "$"


def _scan_number(src: str, i: int) -> int:
    n = len(src)
    if src[i] == "0" and i + 1 < n and src[i + 1] in "xX":
        i += 2
        while i < n and src[i] in _HEX:
            i += 1
        if i < n and src[i] == ".":  # hex float
            i += 1
            while i < n and src[i] in _HEX:
                i += 1
        if i < n and src[i] in "pP":
            i += 1
            if i < n and src[i] in "+-":
                i += 1
            while i < n and src[i].isdigit():
                i += 1
    elif src[i] == "0" and i + 1 < n and src[i + 1] in "bB":
        i += 2
        while i < n and (src[i] in "01_"):
            i += 1
    else:
        while i < n and (src[i].isdigit() or src[i] == "_"):
            i += 1
        # Consume '.' only when it clearly continues the literal; "1.x" is
        # left as NUMBER '.' IDENT for the parser to reject.
        if (
            i < n
            and src[i] == "."
            and i + 1 < n
            and (src[i + 1].isdigit() or src[i + 1] in "eEfFdD")
        ):
            i += 1
            while i < n and (src[i].isdigit() or src[i] == "_"):
                i += 1
        if i < n and src[i] in "eE":
            j = i + 1
            if j < n and src[j] in "+-":
                j += 1
            if j < n and src[j].isdigit():
                i = j
                while i < n and src[i].isdigit():
                    i += 1
    if i < n and src[i] in _SUFFIX:
        i += 1
    return i


def _scan_quoted(src: str, i: int, quote: str) -> tuple[int, bool]:
    """Scan past the closing quote. Returns (end, terminated)."""
    n = len(src)
    i += 1
    while i < n:
        ch = src[i]
        if ch == quote:
            return i + 1, True
        if ch == "\n":
            return i, False
        if ch == "\\":
            if i + 1 < n and src[i + 1] != "\n":
                i += 2
                continue
            return i + 1, False
        i += 1
    return i, False


def _dispatch(src: str, i: int) -> Token:
    """The token at ``i``, which is no whitespace and starts no comment."""
    n = len(src)
    ch = src[i]
    if _ident_start(ch):
        j = i + 1
        while j < n and _ident_part(src[j]):
            j += 1
        text = src[i:j]
        return Token(KEYWORD if text in KEYWORDS else IDENT, text, i, j)
    if ch.isdigit():
        j = _scan_number(src, i)
        return Token(NUMBER, src[i:j], i, j)
    if ch == ".":
        # The master pattern takes every other operator, and '.' wherever
        # no digit or non-ASCII word character follows.
        if i + 1 < n and src[i + 1].isdigit():
            j = _scan_number(src, i + 1)
            return Token(NUMBER, src[i:j], i, j)
        return Token(PUNCT, ".", i, i + 1)
    if ch == '"':
        if src.startswith('"""', i):  # text block
            j = src.find('"""', i + 3)
            if j < 0:
                return Token(BAD, src[i:], i, n)
            return Token(STRING, src[i:j + 3], i, j + 3)
        j, ok = _scan_quoted(src, i, '"')
        return Token(STRING if ok else BAD, src[i:j], i, j)
    if ch == "'":
        j, ok = _scan_quoted(src, i, "'")
        return Token(CHAR if ok else BAD, src[i:j], i, j)
    return Token(BAD, ch, i, i + 1)


def tokenize(src: str) -> list[Token]:
    """Every token of ``src``, then exactly one EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    match = _MASTER.match
    new = tuple.__new__
    n = len(src)
    i = 0
    while True:
        m = match(src, i)
        kind = m.lastgroup
        if kind is None:
            i = m.end()
            if i >= n:
                break
            tok = _dispatch(src, i)
            append(tok)
            i = tok.end
            continue
        start, i = m.span(kind)
        text = src[start:i]
        if kind == IDENT and text in KEYWORDS:
            kind = KEYWORD
        append(new(Token, (kind, text, start, i)))
    append(Token(EOF, "", n, n))
    return tokens
