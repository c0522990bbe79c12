"""Grammatical validity of Java method bodies.

A fragment is what a model writes for a method: one or more class-body
members (JLS 8.1.6), which the parser takes as they stand. The fragment
is valid when its parse records no ERROR or MISSING node. A verdict's
spans are those of the recorded nodes, sorted, so each lies inside the
fragment: a stray `}` after a method is an error where it stands, and an
unclosed `{` shows as a MISSING `}` at the fragment's end.

A fragment nested past the parser's depth guard, with balanced brackets,
cannot be judged: its verdict is not valid, has one error span where the
guard fired, and says ``limit_exceeded``. It still counts as not valid
wherever validity is counted; the flag tells it apart from invalid Java.
"""

from __future__ import annotations

from typing import NamedTuple

from . import bindings
from .javaparse import LIMIT, Node


class SyntaxVerdict(NamedTuple):
    """Outcome of checking one code fragment."""

    error_spans: tuple[tuple[int, int], ...] = ()
    # The parse stopped at the depth guard: not judged, so not valid.
    limit_exceeded: bool = False

    @property
    def valid(self) -> bool:
        return not self.error_spans

    @property
    def error_count(self) -> int:
        return len(self.error_spans)

    def __bool__(self) -> bool:
        return self.valid


def check_syntax(code: str) -> SyntaxVerdict:
    """Judge one fragment. Total: never raises on malformed input.

    Empty and whitespace-only fragments are invalid by definition (an
    empty string is not a method), reported without consulting the
    parser.
    """
    if not code.strip():
        return SyntaxVerdict(error_spans=((0, 0),))
    # Looked up on the module at call time, so a wrapper installed there
    # (the benchmark's tracer) sees every verdict parse.
    errors: list[Node] = []
    root = bindings.parse_java(code, errors)
    return _verdict(root, errors)


def _verdict(root: Node, errors: list[Node]) -> SyntaxVerdict:
    """The verdict on a fragment from the tree and recorded ``errors`` of
    its parse: the sorted spans of the errors. A tree of one LIMIT node
    has one error, the place where the depth guard stopped the parse."""
    spans = tuple(sorted((n.start, n.end) for n in errors))
    if not spans:
        return SyntaxVerdict()
    return SyntaxVerdict(spans, limit_exceeded=root.children[0].kind == LIMIT)
