"""Grammatical validity of Java method bodies.

A method fragment is not a compilation unit, so it is wrapped in a
minimal synthetic class before parsing. Validity is then a single
question: does the parse tree contain any ERROR or MISSING node? The
wrapper is fixed and itself well-formed, so a clean parse of the wrapped
text certifies the fragment and any error necessarily originates in (or
is induced by) the fragment.

Spans reported in a verdict are translated back into the coordinate
system of the original fragment and clamped to its bounds, so callers can
highlight offending regions without knowing about the wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bindings import ParserContract, TreeLike, get_parser
from .errors import InputError

WRAP_PREFIX = "class __W { "
WRAP_SUFFIX = " }"


@dataclass(frozen=True)
class SyntaxVerdict:
    """Outcome of checking one code fragment."""

    valid: bool
    error_count: int
    error_spans: tuple[tuple[int, int], ...] = ()
    wrapped: bool = True

    def __bool__(self) -> bool:
        return self.valid


def wrap_method(code: str) -> str:
    """Embed a member-level fragment in a minimal class declaration."""
    return WRAP_PREFIX + code + WRAP_SUFFIX


def check_syntax(
    code: str,
    parser: ParserContract | None = None,
    wrap: bool = True,
) -> SyntaxVerdict:
    """Judge one fragment. Total: never raises on malformed input.

    Empty and whitespace-only fragments are invalid by definition (an
    empty string is not a method), reported without consulting the
    parser.
    """
    if not code.strip():
        return SyntaxVerdict(valid=False, error_count=1, error_spans=((0, 0),), wrapped=False)
    if parser is None:
        parser = get_parser()
    tree = parser.parse(wrap_method(code) if wrap else code)
    return _verdict(code, tree, wrap)


def _verdict(code: str, tree: TreeLike, wrap: bool = True) -> SyntaxVerdict:
    """The verdict on ``code`` from a parse of it (wrapped, by default),
    with error spans moved back to the fragment and clamped to it."""
    raw_spans = tree.error_spans()
    if not raw_spans:
        return SyntaxVerdict(valid=True, error_count=0, error_spans=(), wrapped=wrap)
    if wrap:
        lo = len(WRAP_PREFIX)
        spans = tuple(
            (max(0, min(s - lo, len(code))), max(0, min(e - lo, len(code))))
            for s, e in raw_spans
        )
    else:
        spans = tuple(raw_spans)
    return SyntaxVerdict(
        valid=False,
        error_count=len(raw_spans),
        error_spans=spans,
        wrapped=wrap,
    )


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
