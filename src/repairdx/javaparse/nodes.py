"""Parse-tree nodes.

Two node kinds carry the grammaticality signal: ERROR (a region of input
the grammar could not place) and MISSING (a zero-width placeholder for a
required token the input lacks). A third, LIMIT, is zero-width where the
parser's depth guard stopped the parse: the input is nested too deep to
judge. A tree with none of them is syntactically clean. All other kinds
are ordinary grammar productions; punctuation and keyword leaves use
their lexeme as the kind.
"""

from __future__ import annotations

from typing import Iterator

ERROR = "ERROR"
MISSING = "MISSING"
LIMIT = "LIMIT"
IDENTIFIER = "identifier"
LITERAL = "literal"
_ERROR_KINDS = frozenset([ERROR, MISSING, LIMIT])


class Node:
    __slots__ = ("kind", "start", "end", "children", "text")

    def __init__(self, kind: str, start: int, end: int,
                 children: list[Node] | None = None, text: str = ""):
        self.kind = kind
        self.start = start
        self.end = end
        self.children = [] if children is None else children
        self.text = text

    # Equal trees are equal node for node; a node is mutable, so unhashable.
    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return ((self.kind, self.start, self.end, self.children, self.text)
                == (other.kind, other.start, other.end, other.children, other.text))

    @property
    def is_error(self) -> bool:
        return self.kind in _ERROR_KINDS

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def walk(self) -> Iterator["Node"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def error_nodes(self) -> list["Node"]:
        """ERROR, MISSING and LIMIT nodes, in the pre-order of `walk`."""
        return [n for n in self.walk() if n.kind in _ERROR_KINDS]

    def sexp(self) -> str:
        """Compact s-expression form, used for golden comparisons."""
        out: list[str] = []
        stack: list[object] = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            if item.is_leaf:
                label = item.text if item.text else item.kind
                out.append(f"({item.kind} {label!r} {item.start}:{item.end})")
                continue
            out.append(f"({item.kind}")
            stack.append(")")
            stack.extend(reversed(item.children))
        return " ".join(out)

    def __repr__(self) -> str:  # avoid recursing through deep trees
        return f"Node({self.kind!r}, {self.start}, {self.end}, {len(self.children)} children)"
