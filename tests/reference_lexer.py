"""The lexer as it was before the master-pattern rewrite, frozen as a test oracle.

A per-character scanner over `str` predicates (`isspace`, `isalpha`,
`isalnum`) and an ASCII digit test. `tests/test_java_lexer.py` requires
the shipped lexer to yield the same `(kind, text, start, end)` stream on
any input.
Do not edit: it is the reference, not the product. Two of its tests
were changed, each to follow the JLS where the old scanner did not: its
digit test, from `str.isdigit()` to `_digit`, because JLS §3.10.1 allows
only `0`-`9` in a numeric literal, and `isdigit` let `²` and `٣` in; and
its line-terminator tests, in the `//` scan and in `_scan_quoted`, from
`\\n` alone to `\\r` or `\\n`, because JLS §3.4 ends a line at either,
and a lone `\\r` let a `//` comment or a literal run on past it.
"""

from __future__ import annotations

from dataclasses import dataclass

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
_OP_BY_FIRST: dict[str, list[str]] = {}
for _op in _OPERATORS:
    _OP_BY_FIRST.setdefault(_op[0], []).append(_op)

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


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    start: int
    end: int


def _ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_" or ch == "$"


def _ident_part(ch: str) -> bool:
    return ch.isalnum() or ch == "_" or ch == "$"


def _digit(ch: str) -> bool:
    return "0" <= ch <= "9"


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
            while i < n and _digit(src[i]):
                i += 1
    elif src[i] == "0" and i + 1 < n and src[i + 1] in "bB":
        i += 2
        while i < n and (src[i] in "01_"):
            i += 1
    else:
        while i < n and (_digit(src[i]) or src[i] == "_"):
            i += 1
        # Consume '.' only when it clearly continues the literal; "1.x" is
        # left as NUMBER '.' IDENT for the parser to reject.
        if (
            i < n
            and src[i] == "."
            and i + 1 < n
            and (_digit(src[i + 1]) or src[i + 1] in "eEfFdD")
        ):
            i += 1
            while i < n and (_digit(src[i]) or src[i] == "_"):
                i += 1
        if i < n and src[i] in "eE":
            j = i + 1
            if j < n and src[j] in "+-":
                j += 1
            if j < n and _digit(src[j]):
                i = j
                while i < n and _digit(src[i]):
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
        if ch == "\n" or ch == "\r":
            return i, False
        if ch == "\\":
            if i + 1 < n and src[i + 1] not in "\r\n":
                i += 2
                continue
            return i + 1, False
        i += 1
    return i, False


def tokenize(src: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "/" and i + 1 < n and src[i + 1] == "/":
            j = i + 2
            while j < n and src[j] not in "\r\n":
                j += 1
            i = j
            continue
        if ch == "/" and i + 1 < n and src[i + 1] == "*":
            j = src.find("*/", i + 2)
            i = n if j < 0 else j + 2
            continue
        start = i
        if _ident_start(ch):
            i += 1
            while i < n and _ident_part(src[i]):
                i += 1
            text = src[start:i]
            kind = KEYWORD if text in KEYWORDS else IDENT
            tokens.append(Token(kind, text, start, i))
            continue
        if _digit(ch):
            i = _scan_number(src, i)
            tokens.append(Token(NUMBER, src[start:i], start, i))
            continue
        if ch == "." and i + 1 < n and _digit(src[i + 1]):
            i = _scan_number(src, i + 1)
            tokens.append(Token(NUMBER, src[start:i], start, i))
            continue
        if ch == '"':
            if src.startswith('"""', i):  # text block
                j = src.find('"""', i + 3)
                if j < 0:
                    tokens.append(Token(BAD, src[i:], start, n))
                    i = n
                else:
                    i = j + 3
                    tokens.append(Token(STRING, src[start:i], start, i))
                continue
            i, ok = _scan_quoted(src, i, '"')
            tokens.append(Token(STRING if ok else BAD, src[start:i], start, i))
            continue
        if ch == "'":
            i, ok = _scan_quoted(src, i, "'")
            tokens.append(Token(CHAR if ok else BAD, src[start:i], start, i))
            continue
        op = None
        for cand in _OP_BY_FIRST.get(ch, ()):
            if src.startswith(cand, i):
                op = cand
                break
        if op is not None:
            i += len(op)
            tokens.append(Token(PUNCT, op, start, i))
            continue
        i += 1
        tokens.append(Token(BAD, ch, start, i))
    tokens.append(Token(EOF, "", n, n))
    return tokens
