"""Identifier occurrences as abstraction found them before the inline-role
walk, frozen as a test oracle.

A per-node roles dict keyed by ``id()`` (``_local_roles``) and one stack
entry per node, leaves included. ``tests/test_abstraction.py`` requires
``repairdx.abstraction._identifier_occurrences`` to give the same
occurrences, once sorted by start, on any parse tree. Do not edit: it is
the reference, not the product.
"""

from __future__ import annotations

IDENTIFIER = "identifier"

_VARIABLE = "variable"
_METHOD = "method"
_TYPE = "type"

_TYPE_DECL_KINDS = frozenset(
    [
        "class_declaration",
        "interface_declaration",
        "enum_declaration",
        "annotation_declaration",
    ]
)

_SKIP_SUBTREES = frozenset(["package_declaration", "import_declaration"])


def _local_roles(node) -> dict[int, str]:
    """Category overrides for *direct* identifier children of one node."""
    kind = node.kind
    roles: dict[int, str] = {}
    cs = node.children
    if kind == "named_type" or kind == "annotation" or kind == "type_parameter":
        for c in cs:
            if c.kind == IDENTIFIER:
                roles[id(c)] = _TYPE
    elif kind in _TYPE_DECL_KINDS:
        for c in cs:
            if c.kind == IDENTIFIER:
                roles[id(c)] = _TYPE
                break  # only the declared name is a direct identifier child
    elif kind == "method_declaration":
        for i, c in enumerate(cs[:-1]):
            if c.kind == IDENTIFIER and cs[i + 1].kind == "formal_parameters":
                roles[id(c)] = _METHOD
    elif kind == "constructor_declaration":
        for i, c in enumerate(cs[:-1]):
            if c.kind == IDENTIFIER and cs[i + 1].kind == "formal_parameters":
                roles[id(c)] = _TYPE
    elif kind == "method_invocation":
        for i, c in enumerate(cs[:-1]):
            if c.kind == IDENTIFIER and cs[i + 1].kind == "argument_list":
                roles[id(c)] = _METHOD
    elif kind == "method_reference":
        after_colons = False
        for c in cs:
            if c.kind == "::":
                after_colons = True
            elif after_colons and c.kind == IDENTIFIER:
                roles[id(c)] = _METHOD
    return roles


def identifier_occurrences(root) -> list[tuple[int, int, str, str]]:
    """All identifier leaves as (start, end, text, category), source order."""
    out: list[tuple[int, int, str, str]] = []
    stack: list[tuple[object, str | None]] = [(root, None)]
    while stack:
        node, deep = stack.pop()
        if node.kind == IDENTIFIER:
            out.append((node.start, node.end, node.text, deep or _VARIABLE))
            continue
        if node.kind in _SKIP_SUBTREES:
            continue
        if node.kind == "class_literal":
            # The receiver of `Foo.Bar.class` names a type, however deep
            # the dotted chain nests.
            for child in reversed(node.children):
                stack.append((child, _TYPE))
            continue
        local = _local_roles(node)
        for child in reversed(node.children):
            stack.append((child, local.get(id(child), deep)))
    return out
