"""In-tree error-recovering Java parser (lexer, tree nodes, parser)."""

from .lexer import Token, tokenize
from .nodes import ERROR, IDENTIFIER, LIMIT, LITERAL, MISSING, Node
from .parser import JavaParser, parse_java

__all__ = [
    "ERROR",
    "IDENTIFIER",
    "LIMIT",
    "LITERAL",
    "MISSING",
    "JavaParser",
    "Node",
    "Token",
    "parse_java",
    "tokenize",
]
