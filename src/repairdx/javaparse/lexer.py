"""Java lexer producing offset-tagged tokens.

Total over arbitrary input: characters that cannot start a token, and
unterminated string/char literals, become BAD tokens instead of raising.
Comments and whitespace are skipped, but a `/*` with no `*/` after it is
no comment (JLS §3.7): it is one BAD token over the rest of the text.
Offsets index into the source string. A line ends at `\\n` or `\\r`
(JLS §3.4), which ends a `//` comment and leaves a string or char
literal on it unterminated.

One compiled master pattern (the "Writing a Tokenizer" recipe of the `re`
documentation) skips the whitespace and comments before a token and
matches the token in the same call: an ASCII identifier or keyword, a
number, an operator, or a string or char literal. It is the one number
scanner: a numeric literal is ASCII (JLS §3.10.1-3.10.2 allow only the
digits `0`-`9`), so a non-ASCII digit such as `²` or `٣` never extends
or starts one. A literal is scanned once, terminated or not: its closing
quote is an optional group, and a match without it is a BAD token. Three
things fall back to a dispatch: an identifier with a non-ASCII start (no
`re` class is `str.isalpha()`, so `str.isalpha()` takes its first
character and the compiled `[\\w$]*` the rest), a text block, and a
character that starts no token. The patterns are exact because `\\s` is
`str.isspace()` and `\\w` is `str.isalnum()` or `_`.

The master pattern is the one definition of a token. Corpus code and
most model output are token texts joined by single spaces, so `tokenize`
splits the source at each space (`str.split`, in C) and takes a piece in
one step when only spaces lie between it and where the pattern would
look next, and its text alone makes it one token: an operator or a
keyword (the `_WHOLE` table), an ASCII identifier (`str.isidentifier()`)
or an ASCII digit run (`str.isdigit()`). That is exact: the pattern
there would skip the spaces and match exactly that piece, since an
identifier, a number or an operator stops at the space or the end that
ends the piece, no longer operator holds a space, and no such piece
opens a comment. Every other piece (a literal or comment that holds a
space, `a+b`, `$x`, `1L`, non-ASCII text, a tab or a line end) goes to
the pattern, which runs until it has passed the piece's end, and the
pieces it consumed on the way are skipped.

A token's text decides whether it is punctuation or a keyword: a keyword
text is only ever on a KEYWORD token, since a word is an identifier
exactly when it is not in `KEYWORDS`, and an operator text only on a
PUNCT token. No identifier, literal, BAD or EOF text equals either, so
the parser tests the text alone.
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


class Token(NamedTuple):
    kind: str
    text: str
    start: int
    end: int


# The group names are the token kinds they yield. A match always
# succeeds: when no token group matches, the empty last alternative
# leaves `lastgroup` None and the dispatch takes over at `end()`.
# Once a number's start (`0x`, `0b` or a digit) matches, every later part
# is optional, and nothing follows a token group, so `re` never gives
# back what a greedy part matched: a number is as long as a left-to-right
# scanner reads it. A '.' before a digit starts a number, which is tried
# before the '.' operator. A string or char literal ends at its closing
# quote (group `sq` or `cq`), at a line end or the end, where it is BAD,
# or at a backslash that escapes neither, which the BAD token keeps.
# `"""` starts a text block, which the dispatch scans. A `/*` that the
# skip could not close as a comment is BAD to the end.
_MASTER = re.compile(
    r"""
    (?:\s+|//[^\r\n]*|/\*[\s\S]*?\*/)*
    (?:
        (?P<bad>/\*[\s\S]*)
      | (?P<ident>[A-Za-z_$][\w$]*)
      | (?P<number>\.?
            (?:0[xX][0-9a-fA-F_]*(?:\.[0-9a-fA-F_]*)?(?:[pP][+-]?[0-9]*)?
              |0[bB][01_]*
              |[0-9][0-9_]*(?:\.(?=[0-9eEfFdD])[0-9_]*)?(?:[eE][+-]?[0-9]+)?
            )[lLfFdD]?)
      | (?P<punct>"""
    + "|".join(re.escape(op) for op in _OPERATORS)
    + r""")
      | (?P<string>"(?!"")[^"\\\r\n]*(?:\\[^\r\n][^"\\\r\n]*)*(?:(?P<sq>")|\\)?)
      | (?P<char>'[^'\\\r\n]*(?:\\[^\r\n][^'\\\r\n]*)*(?:(?P<cq>')|\\)?)
      |
    )
    """,
    re.VERBOSE,
)

# The closing-quote group of each literal kind.
_CLOSING = {STRING: "sq", CHAR: "cq"}

# The rest of an identifier whose non-ASCII first character the dispatch
# took.
_IDENT_REST = re.compile(r"[\w$]*")


# A piece that is one of these texts is one whole token of this kind.
_WHOLE = dict.fromkeys(_OPERATORS, PUNCT) | dict.fromkeys(KEYWORDS, KEYWORD)


def _dispatch(src: str, i: int) -> Token:
    """The token at ``i``, where the master pattern matched none: an
    identifier with a non-ASCII start, a text block, or a BAD character.
    The pattern takes every ASCII identifier start, `_` and `$` included,
    and every quote but the `"` that opens a text block, so here a letter
    is all that starts an identifier and a `"` starts a text block."""
    n = len(src)
    ch = src[i]
    if ch.isalpha():
        j = _IDENT_REST.match(src, i + 1).end()
        text = src[i:j]
        return Token(KEYWORD if text in KEYWORDS else IDENT, text, i, j)
    if ch == '"':  # text block
        j = src.find('"""', i + 3)
        if j < 0:
            return Token(BAD, src[i:], i, n)
        return Token(STRING, src[i:j + 3], i, j + 3)
    return Token(BAD, ch, i, i + 1)


def tokenize(src: str) -> list[Token]:
    """Every token of ``src``, then exactly one EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    match = _MASTER.match
    whole = _WHOLE.get
    new = tuple.__new__
    n = len(src)
    i = 0  # where the master pattern looks next
    p = 0  # where the piece starts
    for piece in src.split(" "):
        e = p + len(piece)
        # Every earlier piece ends at or before i, so when the piece starts
        # at or after i, only spaces lie between.
        if i <= p:
            kind = whole(piece)
            if kind is None and piece.isascii():
                if piece.isidentifier():
                    kind = IDENT
                elif piece.isdigit():
                    kind = NUMBER
            if kind is not None:
                append(new(Token, (kind, piece, p, e)))
                i = e
                p = e + 1
                continue
            if not piece:
                p += 1
                continue
        # The pattern runs from i until it has passed the piece's end; a
        # piece that it has passed already (e <= i) is skipped.
        while i < e:
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
            if kind == IDENT:
                if text in KEYWORDS:
                    kind = KEYWORD
            elif kind in _CLOSING and m.start(_CLOSING[kind]) < 0:
                kind = BAD
            append(new(Token, (kind, text, start, i)))
        p = e + 1
    append(Token(EOF, "", n, n))
    return tokens
