"""Grammatical validity of Java method bodies.

A method fragment is not a compilation unit, so it is wrapped in a
minimal synthetic class before parsing. The fragment is valid when the
parse tree of the wrapped text holds no ERROR or MISSING node and is
exactly one type declaration, the wrapper's, ending at the wrapper's last
brace. A clean tree alone does not certify the fragment: `} class X {`
closes the synthetic class early and opens a second one, which the
wrapper's brace then closes. Any error originates in (or is induced by)
the fragment, since the wrapper is fixed and itself well-formed.

The parser is the in-tree error-recovering one. Spans reported in a
verdict are translated back into the coordinate system of the original
fragment and clamped to its bounds, so callers can highlight offending
regions without knowing about the wrapper.

A fragment nested past the parser's depth guard, with balanced brackets,
cannot be judged: its verdict is not valid, has one error span where the
guard fired, and says ``limit_exceeded``. It still counts as not valid
wherever validity is counted; the flag tells it apart from invalid Java.
"""

from __future__ import annotations

from typing import NamedTuple

from . import bindings
from .javaparse import LIMIT, Node

WRAP_PREFIX = "class __W { "
# The closing brace goes on a line of its own, so a fragment that ends in
# a ``//`` comment cannot comment it out.
WRAP_SUFFIX = "\n}"


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


def wrap_method(code: str) -> str:
    """Embed a member-level fragment in a minimal class declaration."""
    return WRAP_PREFIX + code + WRAP_SUFFIX


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
    root = bindings.parse_java(wrap_method(code), errors)
    return _verdict(code, root, errors)


def _verdict(code: str, root: Node, errors: list[Node]) -> SyntaxVerdict:
    """The verdict on ``code`` from the tree and recorded ``errors`` of its
    wrapped parse, with spans moved back to the fragment and clamped to it.

    A clean tree whose wrapper class ends early has one error: the
    fragment's ``}`` that closed the wrapper. A tree of one LIMIT node has
    one error, the place where the depth guard stopped the parse.
    """
    lo = len(WRAP_PREFIX)
    raw_spans = sorted((n.start, n.end) for n in errors)
    if not raw_spans:
        wrapper = root.children[0]
        if len(root.children) == 1 and wrapper.end == lo + len(code) + len(WRAP_SUFFIX):
            return SyntaxVerdict()
        raw_spans = [(wrapper.end - 1, wrapper.end)]
    spans = tuple(
        (max(0, min(s - lo, len(code))), max(0, min(e - lo, len(code))))
        for s, e in raw_spans
    )
    return SyntaxVerdict(spans, limit_exceeded=root.children[0].kind == LIMIT)
