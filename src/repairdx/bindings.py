"""Two names the benchmark still uses; nothing else in the toolkit does.

``perfbench/run.py`` times start-up with ``get_parser('builtin')``, and
``perfbench/traced.py`` times verdict parses by wrapping ``parse_java``
here, which is why :func:`repairdx.syntax.check_syntax` looks the parser
up on this module at call time. Both stay only until the benchmark stops
naming them (ROADMAP item 1, benchmark v2); this module then goes.
"""

from __future__ import annotations

from .errors import UsageError
from .javaparse import parse_java


def get_parser(name: str = "builtin"):
    """The in-tree parser's ``parse_java``; ``builtin`` is the only name."""
    if name != "builtin":
        raise UsageError(f"unknown parser {name!r}; the only parser is 'builtin'")
    return parse_java
