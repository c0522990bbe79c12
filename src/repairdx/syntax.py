"""Grammatical validity of Java method bodies.

A method fragment is not a compilation unit, so it is wrapped in a
minimal synthetic class before parsing. Validity is then a single
question: does the parse tree contain any ERROR or MISSING node? The
wrapper is fixed and itself well-formed, so a clean parse of the wrapped
text certifies the fragment and any error necessarily originates in (or
is induced by) the fragment.

The parser is the in-tree error-recovering one. Spans reported in a
verdict are translated back into the coordinate system of the original
fragment and clamped to its bounds, so callers can highlight offending
regions without knowing about the wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bindings
from .errors import InputError
from .javaparse import Node

WRAP_PREFIX = "class __W { "
# The closing brace goes on a line of its own, so a fragment that ends in
# a ``//`` comment cannot comment it out.
WRAP_SUFFIX = "\n}"


@dataclass(frozen=True)
class SyntaxVerdict:
    """Outcome of checking one code fragment."""

    valid: bool
    error_count: int
    error_spans: tuple[tuple[int, int], ...] = ()

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
        return SyntaxVerdict(valid=False, error_count=1, error_spans=((0, 0),))
    # Looked up on the module at call time, so a wrapper installed there
    # (the benchmark's tracer) sees every verdict parse.
    return _verdict(code, bindings.parse_java(wrap_method(code)))


def _verdict(code: str, root: Node) -> SyntaxVerdict:
    """The verdict on ``code`` from the parse tree of it wrapped, with
    error spans moved back to the fragment and clamped to it."""
    raw_spans = sorted((n.start, n.end) for n in root.error_nodes())
    if not raw_spans:
        return SyntaxVerdict(valid=True, error_count=0, error_spans=())
    lo = len(WRAP_PREFIX)
    spans = tuple(
        (max(0, min(s - lo, len(code))), max(0, min(e - lo, len(code))))
        for s, e in raw_spans
    )
    return SyntaxVerdict(valid=False, error_count=len(raw_spans), error_spans=spans)


def syntax_validity(verdicts) -> float:
    """Share of valid fragments, as a percentage of all fragments.

    Accepts any iterable of SyntaxVerdict (or bool-testable) values.
    An empty iterable is an input error: a rate over nothing would
    silently read as "all invalid".
    """
    total = 0
    valid = 0
    for v in verdicts:
        total += 1
        if v:
            valid += 1
    if total == 0:
        raise InputError("cannot compute syntax validity over zero verdicts")
    return 100.0 * valid / total
