"""Error-recovering recursive-descent parser for Java.

Total over arbitrary input: regions the grammar cannot place become ERROR
nodes, required-but-absent tokens become zero-width MISSING nodes, and
every call yields a tree. Coverage targets method-level Java up to roughly
version 14: generics, lambdas, method references, anonymous classes,
try-with-resources, multi-catch, and both colon and arrow switch forms.
A compilation unit here is a sequence of type declarations: `package`
and `import` declarations are out of scope, since every caller parses a
fragment inside a class. Also out of scope: module declarations, sealed
types, and pattern matching in switch labels (see the flagged-constructs
fixture). Records have no rule of their own, yet `record Point ( int x ,
int y ) { }` parses clean: as a method whose return type is named
`record`.

The parser is deterministic: equal inputs yield equal trees. Instances are
single-use; `parse_java` constructs a fresh one per call. Parse time is
linear in nesting depth: lookahead builds no nodes, the lambda and
declaration-head scans skip a parenthesized list through a paren-match
table built once per parse, and binary operators are parsed by precedence
climbing.

Recursion is bounded by a depth guard, not by the interpreter. Every
recursive cycle of the grammar passes through a guarded method
(statement, member, expression, unary, primary, type, array initializer,
annotation), each of which counts one level against `_MAX_DEPTH`. A cycle
costs at most 10 frames per 3 levels, so the deepest parse stays under
750 frames and runs at the default recursion limit of 1,000. Nothing here
touches interpreter-global state, so parsing is safe from any thread.

The guard stops the whole parse: no recovery runs past it, so a nest of
any depth costs its tokens plus one descent to the guard. The tree of a
stopped parse says only what is known. When the `( [ {` brackets of the
input balance, it may be valid Java, and the compilation unit's one child
is a zero-width LIMIT node at the token where the guard fired. When they
do not, the input is plainly invalid, and that child is an ERROR node
over the first unmatched bracket.

A token's text decides what it is. The lexer gives an operator text only
to a PUNCT token and a keyword text only to a KEYWORD token, and no
identifier, literal, BAD or EOF token has such a text. So the rules test
a token's text alone, and test its kind only where the kind is the
question: an identifier, a literal, a BAD token or EOF.
"""

from __future__ import annotations

from .lexer import (
    BAD,
    CHAR,
    EOF,
    IDENT,
    NUMBER,
    PRIMITIVE_TYPES,
    PUNCT,
    STRING,
    Token,
    tokenize,
)
from .nodes import ERROR, IDENTIFIER, LIMIT, LITERAL, MISSING, Node

_MODIFIERS = frozenset(
    [
        "public", "protected", "private", "static", "final", "abstract",
        "native", "synchronized", "transient", "volatile", "strictfp",
        "default",
    ]
)
# The modifiers of a local class (JLS 14.3), besides annotations.
_LOCAL_CLASS_MODIFIERS = frozenset(["abstract", "final", "strictfp"])
# The modifiers of a formal, catch or lambda parameter (JLS 8.4.1, 14.20,
# 15.27.1), besides annotations.
_PARAMETER_MODIFIERS = frozenset(["final"])

_ASSIGN_OPS = frozenset(
    ["=", "+=", "-=", "*=", "/=", "&=", "|=", "^=", "%=", "<<=", ">>=", ">>>="]
)

# Binary operator precedence, loosest first. Only instanceof gets dedicated
# handling inside _parse_binary: its right side is a type, not an operand.
_BINARY_LEVELS: list[frozenset[str]] = [
    frozenset(["||"]),
    frozenset(["&&"]),
    frozenset(["|"]),
    frozenset(["^"]),
    frozenset(["&"]),
    frozenset(["==", "!="]),
    frozenset(["<", ">", "<=", ">=", "instanceof"]),
    frozenset(["<<", ">>", ">>>"]),
    frozenset(["+", "-"]),
    frozenset(["*", "/", "%"]),
]
_BINARY_LEVEL = {op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}

_LITERAL_KINDS = frozenset([NUMBER, STRING, CHAR])
_OPERAND_KINDS = _LITERAL_KINDS | {IDENT}
# Node kind of a leaf by token kind; other leaves take their lexeme.
_LEAF_KIND = {IDENT: IDENTIFIER, NUMBER: LITERAL, STRING: LITERAL, CHAR: LITERAL, BAD: ERROR}
_LITERAL_KEYWORDS = frozenset(["true", "false", "null"])

# The prefix operators (JLS 15.15), and those of them that a cast to a
# reference type cannot take before its operand (JLS 15.16): `( a ) - b`
# is a difference.
_PREFIX_OPS = frozenset(["+", "-", "++", "--", "!", "~"])
_SIGN_OPS = frozenset(["+", "-", "++", "--"])
# Besides identifiers and literals, the texts that start an expression:
# a primitive type only as `int.class`.
_EXPRESSION_START = PRIMITIVE_TYPES | _LITERAL_KEYWORDS | _PREFIX_OPS | {
    "this", "super", "new", "switch", "(",
}

# Where error recovery stops in a class body, and in a block besides the
# texts that start a statement.
_MEMBER_SYNC = frozenset(["}", ";", "class", "interface", "enum"])
_BLOCK_SYNC = frozenset(["}"])

# Besides identifiers, `<` and the `>` tokens, the texts a type-argument
# list may hold.
_TYPE_ARGUMENT_TEXTS = PRIMITIVE_TYPES | {",", ".", "?", "[", "]", "@", "extends", "super"}

# Tokens that may close one or more type-argument lists.
_GT_TOKENS = frozenset([">", ">>", ">>>", ">=", ">>=", ">>>="])

# Guarded levels per parse. Frames per level are kept low (see the module
# docstring) so that the guard, not the recursion limit, stops a nest.
_MAX_DEPTH = 220

_OPENERS = frozenset(["(", "[", "{"])
_CLOSERS = {")": "(", "]": "[", "}": "{"}  # closer -> its opener


class _NestingLimit(Exception):
    """Raised where the depth guard fires; `JavaParser.parse` catches it."""


def _first_unmatched_bracket(toks: list[Token]) -> Token | None:
    """The earliest bracket with no partner, or None when `( [ {` balance.

    A closer closes the innermost open bracket of its kind, and the
    brackets opened inside that one are unmatched; a closer with no open
    bracket of its kind is unmatched. So are brackets still open at the end.
    """
    open_at: list[Token] = []
    open_count = dict.fromkeys(_OPENERS, 0)
    first: Token | None = None
    for tok in toks:
        text = tok.text
        if text in _OPENERS:
            open_at.append(tok)
            open_count[text] += 1
            continue
        opener = _CLOSERS.get(text)
        if opener is None:
            continue
        if not open_count[opener]:
            bad = tok
        else:
            bad = None
            while open_at[-1].text != opener:
                bad = open_at.pop()  # the outermost of those left open
                open_count[bad.text] -= 1
            open_at.pop()
            open_count[opener] -= 1
        if bad is not None and (first is None or bad.start < first.start):
            first = bad
    if open_at and (first is None or open_at[0].start < first.start):
        return open_at[0]
    return first


class JavaParser:
    """One-shot parser instance over a fixed token list."""

    def __init__(self, src: str):
        self.src = src
        # A copy padded with a second EOF, so that the token after the
        # current one needs no bounds check (`i` never moves past the first
        # EOF) and the list that tokenize returned keeps its one EOF.
        toks = tokenize(src)
        self.toks = toks + toks[-1:]
        self.i = 0
        self.depth = 0
        self._paren_match: dict[int, int] | None = None

    # ------------------------------------------------------------------
    # token plumbing

    def at_eof(self) -> bool:
        return self.toks[self.i].kind == EOF

    def at(self, text: str) -> bool:
        return self.toks[self.i].text == text

    def at_any(self, texts) -> bool:
        return self.toks[self.i].text in texts

    def at_ident(self) -> bool:
        return self.toks[self.i].kind == IDENT

    def take(self) -> Node:
        """The current token as a leaf node; its kind is its lexeme unless
        the token kind names one."""
        kind, text, start, end = self.toks[self.i]
        if kind != EOF:
            self.i += 1
        return Node(_LEAF_KIND.get(kind, text), start, end, [], text)

    def expect(self, text: str) -> Node:
        t = self.toks[self.i]
        if t.text == text:
            self.i += 1
            return Node(text, t.start, t.end, [], text)
        return self.missing(text)

    def expect_ident(self) -> Node:
        kind, text, start, end = self.toks[self.i]
        if kind == IDENT:
            self.i += 1
            return Node(IDENTIFIER, start, end, [], text)
        return self.missing("identifier")

    def missing(self, what: str) -> Node:
        p = self.toks[self.i].start
        return Node(MISSING, p, p, [], what)

    def _node(self, kind: str, children: list[Node]) -> Node:
        """A node over ``children``, a non-empty list it takes ownership
        of. Children come in source order, so the last one ends the node."""
        return Node(kind, children[0].start, children[-1].end, children)

    def _error_until(self, stop_texts: frozenset[str], stop_pred=None) -> Node:
        """Consume at least one token, then up to a synchronization point."""
        start = self.toks[self.i].start
        end = start
        first = True
        while not self.at_eof():
            t = self.toks[self.i]
            if not first:
                if t.text in stop_texts:
                    break
                if stop_pred is not None and stop_pred():
                    break
            self.i += 1
            end = t.end
            first = False
            if t.text == ";":
                break
        return Node(ERROR, start, end)

    # ------------------------------------------------------------------
    # entry point

    def parse(self) -> Node:
        children: list[Node] = []
        try:
            while not self.at_eof():
                before = self.i
                if self.at(";"):
                    children.append(self.take())
                    continue
                mods = self._parse_modifiers(_MODIFIERS)
                children.append(self._parse_type_declaration(mods))
                if self.i == before:
                    children.append(
                        self._error_until(frozenset(["class", "interface", "enum", "@"]))
                    )
        except _NestingLimit:
            return self._node("compilation_unit", [self._cut()])
        return self._node("compilation_unit", children) if children else Node(
            "compilation_unit", 0, len(self.src)
        )

    def _cut(self) -> Node:
        """The one node of a parse the depth guard stopped: LIMIT where it
        fired, or ERROR over the first unmatched bracket."""
        bad = _first_unmatched_bracket(self.toks)
        if bad is not None:
            return Node(ERROR, bad.start, bad.end)
        p = self.toks[self.i].start
        return Node(LIMIT, p, p)

    # ------------------------------------------------------------------
    # declarations

    def _parse_modifiers(self, allowed: frozenset[str]) -> list[Node]:
        """Annotations, and the keyword modifiers in ``allowed``. A keyword
        taken again is an ERROR leaf (JLS 8.3.1, 8.4.3, 4.12.4)."""
        mods: list[Node] = []
        seen: set[str] = set()
        while True:
            t = self.toks[self.i]
            text = t.text
            if text in allowed:
                if text in seen:
                    self.i += 1
                    mods.append(Node(ERROR, t.start, t.end, [], text))
                else:
                    seen.add(text)
                    mods.append(self.take())
            elif text == "@" and self.toks[self.i + 1].text != "interface":
                mods.append(self._parse_annotation())
            else:
                return mods

    def _parse_annotation(self) -> Node:
        self.depth += 1
        try:
            if self.depth > _MAX_DEPTH:
                raise _NestingLimit
            kids = [self.take(), self.expect_ident()]
            while self.at(".") and self.toks[self.i + 1].kind == IDENT:
                kids.append(self.take())
                kids.append(self.take())
            if self.at("("):
                args = [self.take()]
                if not self.at(")") and not self.at_eof():
                    while True:
                        before = self.i
                        if self.at_ident() and self.toks[self.i + 1].text == "=":
                            # An element-value pair, as an assignment node.
                            pair = [self.take(), self.take(), self._parse_annotation_value()]
                            args.append(self._node("assignment", pair))
                        else:
                            args.append(self._parse_annotation_value())
                        if self.at(","):
                            args.append(self.take())
                            continue  # a comma demands another value
                        if self.at(")") or self.at_eof() or self.i == before:
                            break
                args.append(self.expect(")"))
                kids.append(self._node("annotation_arguments", args))
            return self._node("annotation", kids)
        finally:
            self.depth -= 1

    def _parse_annotation_value(self) -> Node:
        """An element value (JLS 9.7.1): an array of element values, an
        annotation, or an expression."""
        if self.at("{"):
            return self._parse_array_initializer(element_values=True)
        if self.at("@"):
            return self._parse_annotation()
        return self.parse_expression()

    def _parse_type_declaration(self, mods: list[Node] | None = None) -> Node:
        """A class, interface, enum or annotation type: head, then body.

        The four share this one frame, and the enum body is parsed here
        too, so that each level of nested declarations costs three frames
        (member, declaration, class body). With no ``mods`` passed in, it
        is a local class declaration (JLS 14.3), reached from a statement:
        it parses the local-class modifiers itself, and then requires
        ``class``.
        """
        if mods is None:
            mods = self._parse_modifiers(_LOCAL_CLASS_MODIFIERS)
            if not self.at("class"):
                mods.append(self.missing("class"))
                return self._node("type_declaration", mods)
        kids = list(mods)
        word = self.toks[self.i].text
        if word == "@" and self.toks[self.i + 1].text == "interface":
            kids.append(self.take())  # @
            kids.append(self.take())  # interface
            kids.append(self.expect_ident())
            kids.append(self._parse_class_body())
            return self._node("annotation_declaration", kids)
        if word not in ("class", "interface", "enum"):
            kids.append(self.missing("type declaration"))
            return self._node("type_declaration", kids)
        kids.append(self.take())
        kids.append(self.expect_ident())
        if word != "enum" and self.at("<"):
            kids.append(self._parse_type_parameters())
        if word != "enum" and self.at("extends"):
            kids.append(self.take())
            kids.append(self.parse_type() if word == "class" else self._parse_type_list())
        if word != "interface" and self.at("implements"):
            kids.append(self.take())
            kids.append(self._parse_type_list())
        if word != "enum":
            kids.append(self._parse_class_body())
            return self._node(f"{word}_declaration", kids)
        body = [self.expect("{")]
        while self.at_ident() or self.at("@"):
            const = self._parse_modifiers(frozenset())  # annotations
            const.append(self.expect_ident())
            if self.at("("):
                const.append(self._parse_arguments())
            if self.at("{"):
                const.append(self._parse_class_body())
            body.append(self._node("enum_constant", const))
            if self.at(","):
                body.append(self.take())
            else:
                break
        if self.at(";"):
            body.append(self.take())
            kids.append(self._parse_class_body(body, "enum_body"))
        else:
            body.append(self.expect("}"))
            kids.append(self._node("enum_body", body))
        return self._node("enum_declaration", kids)

    def _parse_type_list(self) -> Node:
        kids = [self.parse_type()]
        while self.at(","):
            kids.append(self.take())
            kids.append(self.parse_type())
        return self._node("type_list", kids)

    def _parse_class_body(self, kids: list[Node] | None = None,
                          kind: str = "class_body") -> Node:
        """Members up to the closing brace; an enum body passes in its
        opening brace, constants and ';' as ``kids``."""
        if kids is None:
            kids = [self.expect("{")]
        while not self.at("}") and not self.at_eof():
            before = self.i
            kids.append(self._parse_member())
            if self.i == before:
                kids.append(self._error_until(_MEMBER_SYNC))
        kids.append(self.expect("}"))
        return self._node(kind, kids)

    def _parse_member(self) -> Node:
        self.depth += 1
        try:
            if self.depth > _MAX_DEPTH:
                raise _NestingLimit
            if self.at(";"):
                return self.take()
            mods = self._parse_modifiers(_MODIFIERS)
            if self.at("{"):
                kids = list(mods)
                kids.append(self.parse_block())
                return self._node("initializer", kids)
            if self.at_any(("class", "interface", "enum")) or (
                self.at("@") and self.toks[self.i + 1].text == "interface"
            ):
                return self._parse_type_declaration(mods)
            kids = list(mods)
            if self.at("<"):
                kids.append(self._parse_type_parameters())
            # Constructor: bare name directly followed by its parameter list.
            if self.at_ident() and self.toks[self.i + 1].text == "(":
                kids.append(self.take())
                kids.append(self._parse_formal_parameters())
                if self.at("throws"):
                    kids.append(self.take())
                    kids.append(self._parse_type_list())
                kids.append(self.parse_block() if self.at("{") else self.missing("{"))
                return self._node("constructor_declaration", kids)
            if not (self.at_ident() or self.at_any(PRIMITIVE_TYPES)):
                if kids:
                    kids.append(self.missing("member declaration"))
                    return self._node("member_declaration", kids)
                return self._error_until(_MEMBER_SYNC)
            kids.append(self.parse_type())
            name = self.expect_ident()
            if self.at("("):
                kids.append(name)
                kids.append(self._parse_formal_parameters())
                self._parse_dims(kids)
                if self.at("throws"):
                    kids.append(self.take())
                    kids.append(self._parse_type_list())
                if self.at("default"):  # annotation-type element default
                    kids.append(self.take())
                    kids.append(self._parse_annotation_value())
                    kids.append(self.expect(";"))
                elif self.at("{"):
                    kids.append(self.parse_block())
                else:
                    kids.append(self.expect(";"))
                return self._node("method_declaration", kids)
            self._parse_declarators(kids, name)
            kids.append(self.expect(";"))
            return self._node("field_declaration", kids)
        finally:
            self.depth -= 1

    def _parse_declarators(self, kids: list[Node], name: Node | None = None) -> None:
        """Append to ``kids`` the comma-separated variable declarators
        ahead; ``name`` is the first one's identifier if already taken.
        Each initializer is parsed in this frame, one below the caller."""
        while True:
            declarator = self._parse_dims([self.expect_ident() if name is None else name])
            if self.at("="):
                declarator.append(self.take())
                declarator.append(
                    self._parse_array_initializer() if self.at("{") else self.parse_expression()
                )
            kids.append(self._node("variable_declarator", declarator))
            if not self.at(","):
                return
            kids.append(self.take())
            name = None

    def _parse_array_initializer(self, element_values: bool = False) -> Node:
        """`{ ... }` of expressions, or of annotation element values.

        Element values recurse through this guard (nested arrays) or the
        annotation guard (annotations), so their cycles are bounded too.
        """
        self.depth += 1
        try:
            if self.depth > _MAX_DEPTH:
                raise _NestingLimit
            kids = [self.take()]  # {
            while not self.at("}") and not self.at_eof():
                before = self.i
                if element_values:
                    kids.append(self._parse_annotation_value())
                elif self.at("{"):
                    kids.append(self._parse_array_initializer())
                else:
                    kids.append(self.parse_expression())
                if self.at(","):
                    kids.append(self.take())
                elif not self.at("}"):
                    if self.i == before:
                        kids.append(self._error_until(frozenset(["}", ","])))
            kids.append(self.expect("}"))
            return self._node("array_initializer", kids)
        finally:
            self.depth -= 1

    def _parse_formal_parameters(self) -> Node:
        kids = [self.expect("(")]
        if not self.at(")") and not self.at_eof():
            while True:
                before = self.i
                kids.append(self._parse_formal_parameter())
                if self.at(","):
                    kids.append(self.take())
                    continue  # a comma demands another parameter
                if self.at(")") or self.at_eof() or self.i == before:
                    break
        kids.append(self.expect(")"))
        return self._node("formal_parameters", kids)

    def _parse_formal_parameter(self) -> Node:
        kids = self._parse_modifiers(_PARAMETER_MODIFIERS)
        if not (self.at_ident() or self.at_any(PRIMITIVE_TYPES)):
            kids.append(self.missing("parameter"))
            return self._node("formal_parameter", kids)
        kids.append(self.parse_type())
        if self.at("..."):
            kids.append(self.take())
        kids.append(self.expect_ident())
        self._parse_dims(kids)
        return self._node("formal_parameter", kids)

    # ------------------------------------------------------------------
    # types

    def _parse_type_parameters(self) -> Node:
        kids = [self.take()]  # <
        while not self._at_gt() and not self.at_eof():
            before = self.i
            tp = self._parse_modifiers(frozenset())  # annotations
            tp.append(self.expect_ident())
            if self.at("extends"):
                tp.append(self.take())
                tp.append(self.parse_type())
                while self.at("&"):
                    tp.append(self.take())
                    tp.append(self.parse_type())
            kids.append(self._node("type_parameter", tp))
            if self.at(","):
                kids.append(self.take())
            elif not self._at_gt():
                if self.i == before:
                    break
        kids.append(self._expect_gt())
        return self._node("type_parameters", kids)

    def _at_gt(self) -> bool:
        return self.toks[self.i].text in _GT_TOKENS

    def _expect_gt(self) -> Node:
        t = self.toks[self.i]
        if t.text == ">":
            return self.take()
        if t.text in _GT_TOKENS:
            # Split one '>' off a composite token (closes nested generics).
            self.toks[self.i] = Token(PUNCT, t.text[1:], t.start + 1, t.end)
            return Node(">", t.start, t.start + 1, text=">")
        return self.missing(">")

    def parse_type(self) -> Node:
        self.depth += 1
        try:
            if self.depth > _MAX_DEPTH:
                raise _NestingLimit
            if self.at_any(PRIMITIVE_TYPES):
                base = self._node("primitive_type", [self.take()])
            else:
                base = self._parse_named_type()
            kids = self._parse_dims([base])
            if len(kids) > 1:
                return self._node("array_type", kids)
            return base
        finally:
            self.depth -= 1

    def _parse_named_type(self) -> Node:
        """A class type, `A<B>.C<D>`, without array dims."""
        kids = [self.expect_ident()]
        if self.at("<"):
            kids.append(self._parse_type_arguments())
        while self.at(".") and self.toks[self.i + 1].kind == IDENT:
            kids.append(self.take())
            kids.append(self.take())
            if self.at("<"):
                kids.append(self._parse_type_arguments())
        return self._node("named_type", kids)

    def _parse_dims(self, kids: list[Node]) -> list[Node]:
        """Append each `[ ]` pair ahead to ``kids``, and return it."""
        while self.at("[") and self.toks[self.i + 1].text == "]":
            kids.append(self.take())
            kids.append(self.take())
        return kids

    def _parse_type_arguments(self) -> Node:
        kids = [self.take()]  # <
        if self._at_gt():  # diamond
            kids.append(self._expect_gt())
            return self._node("type_arguments", kids)
        while True:
            if self.at("?"):
                wc = [self.take()]
                if self.at_any(("extends", "super")):
                    wc.append(self.take())
                    wc.append(self.parse_type())
                kids.append(self._node("wildcard", wc))
            else:
                kids.append(self.parse_type())
            if not self.at(","):
                break
            kids.append(self.take())
        kids.append(self._expect_gt())
        return self._node("type_arguments", kids)

    # ------------------------------------------------------------------
    # speculative scanning (index-only, no node construction)

    def _scan_type(self) -> bool:
        t = self.toks[self.i]
        if t.text in PRIMITIVE_TYPES:
            self.i += 1
            self._scan_dims()
            return True
        if t.kind != IDENT:
            return False
        self.i += 1
        if self.at("<") and not self._scan_type_args():
            return False
        while self.at(".") and self.toks[self.i + 1].kind == IDENT:
            self.i += 2
            if self.at("<") and not self._scan_type_args():
                return False
        self._scan_dims()
        return True

    def _scan_dims(self) -> None:
        while self.at("[") and self.toks[self.i + 1].text == "]":
            self.i += 2

    def _scan_type_args(self) -> bool:
        depth = 0
        while not self.at_eof():
            t = self.toks[self.i]
            if t.text == "<":
                depth += 1
            elif t.text in _GT_TOKENS:
                closes = len(t.text) if t.text in (">", ">>", ">>>") else None
                if closes is None or closes > depth:
                    return False
                depth -= closes
                self.i += 1
                if depth == 0:
                    return True
                continue
            elif t.kind != IDENT and t.text not in _TYPE_ARGUMENT_TEXTS:
                return False
            self.i += 1
        return False

    def _close_paren(self, i: int) -> int | None:
        """Index of the ')' that matches the '(' at token ``i``, if any.

        The table is built once per parse; an unmatched '(' has no entry.
        Splitting a composite '>' token in _expect_gt never touches parens,
        so the table stays valid for the whole parse.
        """
        if self._paren_match is None:
            match: dict[int, int] = {}
            open_at: list[int] = []
            for j, tok in enumerate(self.toks):
                if tok.text == "(":
                    open_at.append(j)
                elif tok.text == ")" and open_at:
                    match[open_at.pop()] = j
            self._paren_match = match
        return self._paren_match.get(i)

    def _declaration_ahead(self) -> int:
        """Does `{final | annotation} Type name` start here? The index just
        past the name if so, else 0.

        This is the head of a local variable declaration (JLS 14.4), of an
        enhanced for (14.14.2) and of a resource (14.20.3). An annotation is
        skipped whole, its argument list by the paren-match table.
        """
        mark = self.i
        try:
            while True:
                text = self.toks[self.i].text
                if text in _PARAMETER_MODIFIERS:
                    self.i += 1
                elif text == "@":
                    self.i += 1
                    if not self.at_ident():
                        return 0
                    self.i += 1
                    while self.at(".") and self.toks[self.i + 1].kind == IDENT:
                        self.i += 2
                    if self.at("("):
                        close = self._close_paren(self.i)
                        if close is None:
                            return 0
                        self.i = close + 1
                else:
                    break
            if self._scan_type() and self.at_ident():
                return self.i + 1
            return 0
        finally:
            self.i = mark

    def _lambda_ahead(self) -> bool:
        t = self.toks[self.i]
        if t.kind == IDENT:
            return self.toks[self.i + 1].text == "->"
        if t.text == "(":
            close = self._close_paren(self.i)  # EOF follows every ')'
            return close is not None and self.toks[close + 1].text == "->"
        return False

    def _cast_ahead(self) -> bool:
        """At '(': does a cast `(Type) operand` start here?"""
        mark = self.i
        try:
            self.i += 1  # (
            if not self._scan_type() or not self.at(")"):
                return False
            nxt = self.toks[self.i + 1]
            if nxt.kind in _OPERAND_KINDS:
                return True
            # A type ends in a primitive keyword exactly when it is primitive.
            primitive = self.toks[self.i - 1].text in PRIMITIVE_TYPES
            return nxt.text in _EXPRESSION_START and (primitive or nxt.text not in _SIGN_OPS)
        finally:
            self.i = mark

    # ------------------------------------------------------------------
    # statements

    def parse_block(self) -> Node:
        kids = [self.expect("{")]
        while not self.at("}") and not self.at_eof():
            before = self.i
            kids.append(self.parse_statement())
            if self.i == before:
                kids.append(self._error_until(_BLOCK_SYNC, self._stmt_start))
        kids.append(self.expect("}"))
        return self._node("block", kids)

    def _stmt_start(self) -> bool:
        t = self.toks[self.i]
        return t.kind in _OPERAND_KINDS or t.text in _STATEMENT_START

    def parse_statement(self) -> Node:
        self.depth += 1
        try:
            if self.depth > _MAX_DEPTH:
                raise _NestingLimit
            t = self.toks[self.i]
            rule = _STATEMENT_DISPATCH.get(t.text)
            if rule is not None:
                return rule(self)
            if t.text in PRIMITIVE_TYPES:
                if self.toks[self.i + 1].text == ".":  # int.class
                    return self._parse_expression_statement()
                return self._parse_local_declaration()
            if t.kind == IDENT:
                if self.toks[self.i + 1].text == ":":
                    kids = [self.take(), self.take(), self.parse_statement()]
                    return self._node("labeled_statement", kids)
                if t.text == "yield" and self._yield_statement_ahead():
                    kids = [self.take(), self.parse_expression(), self.expect(";")]
                    return self._node("yield_statement", kids)
                if self._declaration_ahead():
                    return self._parse_local_declaration()
                return self._parse_expression_statement()
            if t.kind in _LITERAL_KINDS:
                return self._parse_expression_statement()
            return self._error_until(_BLOCK_SYNC, self._stmt_start)
        finally:
            self.depth -= 1

    def _yield_statement_ahead(self) -> bool:
        """`yield <expr>` vs. `yield` the identifier (restricted since 14).
        As in javac, `yield ++ ;` updates the variable `yield`."""
        nxt = self.toks[self.i + 1]
        if nxt.text in ("++", "--"):
            return self.toks[self.i + 2].text != ";"
        return nxt.kind in _OPERAND_KINDS or nxt.text in _EXPRESSION_START

    def _parse_empty_statement(self) -> Node:
        # The leaf is built here, not by `take`, so that a statement nest
        # (`l : l : ;`) peaks no deeper than its statement frames.
        t = self.toks[self.i]
        self.i += 1
        return Node("empty_statement", t.start, t.end, [Node(";", t.start, t.end, [], ";")])

    def _parse_expression_statement(self) -> Node:
        kids = [self.parse_expression(), self.expect(";")]
        return self._node("expression_statement", kids)

    def _parse_local_declaration(self) -> Node:
        """A local variable declaration (JLS 14.4), or a local class
        (JLS 14.3) after `final` or an annotation. Besides annotations, a
        class takes the local-class modifiers and a variable `final`
        alone: before a type, `abstract` and `strictfp` are error leaves."""
        kids = self._parse_modifiers(_LOCAL_CLASS_MODIFIERS)
        if self.at("class"):
            return self._parse_type_declaration(kids)
        kids = [Node(ERROR, k.start, k.end, [], k.text)
                if k.kind in _LOCAL_CLASS_MODIFIERS and k.kind != "final" else k
                for k in kids]
        kids.append(self.parse_type())
        self._parse_declarators(kids)
        kids.append(self.expect(";"))
        return self._node("local_variable_declaration", kids)

    def _parse_if(self) -> Node:
        kids = [self.take(), self.expect("("), self.parse_expression(), self.expect(")")]
        kids.append(self.parse_statement())
        if self.at("else"):
            kids.append(self.take())
            kids.append(self.parse_statement())
        return self._node("if_statement", kids)

    def _parse_while(self) -> Node:
        kids = [self.take(), self.expect("("), self.parse_expression(), self.expect(")")]
        kids.append(self.parse_statement())
        return self._node("while_statement", kids)

    def _parse_do(self) -> Node:
        kids = [self.take(), self.parse_statement(), self.expect("while")]
        kids.append(self.expect("("))
        kids.append(self.parse_expression())
        kids.append(self.expect(")"))
        kids.append(self.expect(";"))
        return self._node("do_statement", kids)

    def _parse_for(self) -> Node:
        kids = [self.take(), self.expect("(")]
        end = self._declaration_ahead()
        if end and self.toks[end].text == ":":
            kids.extend(self._parse_modifiers(_PARAMETER_MODIFIERS))
            kids.append(self.parse_type())
            kids.append(self.expect_ident())
            kids.append(self.expect(":"))
            kids.append(self.parse_expression())
            kids.append(self.expect(")"))
            kids.append(self.parse_statement())
            return self._node("enhanced_for_statement", kids)
        if end:
            # A local declaration without its ';', parsed in this frame so
            # that an initializer sits no deeper than in a statement.
            init = self._parse_modifiers(_PARAMETER_MODIFIERS)
            init.append(self.parse_type())
            self._parse_declarators(init)
            kids.append(self._node("local_variable_declaration", init))
        elif not self.at(";"):
            kids.append(self._parse_expression_list())
        kids.append(self.expect(";"))
        if not self.at(";"):
            kids.append(self.parse_expression())
        kids.append(self.expect(";"))
        if not self.at(")"):
            kids.append(self._parse_expression_list())
        kids.append(self.expect(")"))
        kids.append(self.parse_statement())
        return self._node("for_statement", kids)

    def _parse_expression_list(self) -> Node:
        kids = [self.parse_expression()]
        while self.at(","):
            kids.append(self.take())
            kids.append(self.parse_expression())
        return self._node("expression_list", kids)

    def _parse_switch(self) -> Node:
        """A switch statement or expression. Block and labels are parsed
        in this frame, so a rule body `-> { ... }` is one frame from it."""
        kids = [self.take(), self.expect("("), self.parse_expression(), self.expect(")")]
        block = [self.expect("{")]
        while not self.at("}") and not self.at_eof():
            before = self.i
            if self.at("case") or self.at("default"):
                label = [self.take()]
                if label[0].kind == "case":
                    label.append(self.parse_expression())
                    while self.at(","):
                        label.append(self.take())
                        label.append(self.parse_expression())
                if self.at("->"):
                    label.append(self.take())
                    if self.at("{"):
                        label.append(self.parse_block())
                    elif self.at("throw"):
                        label.append(self._parse_throw())
                    else:
                        label.append(self.parse_expression())
                        label.append(self.expect(";"))
                    block.append(self._node("switch_rule", label))
                else:
                    label.append(self.expect(":"))
                    block.append(self._node("switch_label", label))
            else:
                block.append(self.parse_statement())
            if self.i == before:
                block.append(self._error_until(frozenset(["}", "case", "default"])))
        block.append(self.expect("}"))
        kids.append(self._node("switch_block", block))
        return self._node("switch_statement", kids)

    def _parse_return(self) -> Node:
        kids = [self.take()]
        if not self.at(";") and not self.at("}") and not self.at_eof():
            kids.append(self.parse_expression())
        kids.append(self.expect(";"))
        return self._node("return_statement", kids)

    def _parse_throw(self) -> Node:
        kids = [self.take(), self.parse_expression(), self.expect(";")]
        return self._node("throw_statement", kids)

    def _parse_jump(self) -> Node:
        """`break` or `continue`, with an optional label; the node is
        named after the keyword."""
        kids = [self.take()]
        if self.at_ident():
            kids.append(self.take())
        kids.append(self.expect(";"))
        return self._node(f"{kids[0].kind}_statement", kids)

    def _parse_assert(self) -> Node:
        kids = [self.take(), self.parse_expression()]
        if self.at(":"):
            kids.append(self.take())
            kids.append(self.parse_expression())
        kids.append(self.expect(";"))
        return self._node("assert_statement", kids)

    def _parse_synchronized(self) -> Node:
        kids = [self.take(), self.expect("("), self.parse_expression(), self.expect(")")]
        kids.append(self.parse_block() if self.at("{") else self.missing("{"))
        return self._node("synchronized_statement", kids)

    def _parse_try(self) -> Node:
        kids = [self.take()]
        has_resources = False
        if self.at("("):
            has_resources = True
            kids.append(self._parse_resources())
        kids.append(self.parse_block() if self.at("{") else self.missing("{"))
        handlers = 0
        while self.at("catch"):
            handlers += 1
            catch = [self.take(), self.expect("(")]
            catch.extend(self._parse_modifiers(_PARAMETER_MODIFIERS))
            catch.append(self.parse_type())
            while self.at("|"):
                catch.append(self.take())
                catch.append(self.parse_type())
            catch.append(self.expect_ident())
            catch.append(self.expect(")"))
            catch.append(self.parse_block() if self.at("{") else self.missing("{"))
            kids.append(self._node("catch_clause", catch))
        if self.at("finally"):
            handlers += 1
            kids.append(self.take())
            kids.append(self.parse_block() if self.at("{") else self.missing("{"))
        if handlers == 0 and not has_resources:
            kids.append(self.missing("catch"))
        return self._node("try_statement", kids)

    def _parse_resources(self) -> Node:
        kids = [self.take()]  # (
        while not self.at(")") and not self.at_eof():
            before = self.i
            if self._declaration_ahead():
                res = self._parse_modifiers(_PARAMETER_MODIFIERS)
                res.append(self.parse_type())
                res.append(self.expect_ident())
                res.append(self.expect("="))
            else:
                res = []
            res.append(self.parse_expression())
            kids.append(self._node("resource", res))
            if self.at(";"):
                kids.append(self.take())
            elif not self.at(")"):
                if self.i == before:
                    break
        kids.append(self.expect(")"))
        return self._node("resource_list", kids)

    # ------------------------------------------------------------------
    # expressions

    def parse_expression(self) -> Node:
        self.depth += 1
        try:
            if self.depth > _MAX_DEPTH:
                raise _NestingLimit
            if self._lambda_ahead():
                return self._parse_lambda()
            left = self._parse_binary(0)
            if self.at("?"):
                kids = [left, self.take(), self.parse_expression()]
                kids.append(self.expect(":"))
                kids.append(self.parse_expression())
                left = self._node("ternary", kids)
            if self.at_any(_ASSIGN_OPS):
                kids = [left, self.take(), self.parse_expression()]
                return self._node("assignment", kids)
            return left
        finally:
            self.depth -= 1

    def _parse_binary(self, min_level: int) -> Node:
        """Precedence climbing over _BINARY_LEVELS (Pratt 1973).

        Operators of one level associate left. `cap` is the level of the
        last operator taken, and an operand never takes a tighter operator
        after a looser one: after `x instanceof T` the `+` of `+ 1` stays
        unconsumed, since a type is no operand. The right operand of an
        operator is climbed on an explicit stack, not by recursion, so a
        chain through all ten levels costs one frame.
        """
        top = len(_BINARY_LEVELS) - 1
        pending: list[tuple[int, int, Node, Node]] = []
        left = self._parse_unary()
        cap = top
        while True:
            t = self.toks[self.i]
            level = _BINARY_LEVEL.get(t.text)
            if level is None or not min_level <= level <= cap:
                if not pending:
                    return left
                min_level, cap, lhs, op = pending.pop()
                left = self._node("binary_expression", [lhs, op, left])
                continue
            cap = level
            if t.text == "instanceof":
                kids = [left, self.take(), self.parse_type()]
                if self.at_ident():  # type-test pattern binding
                    kids.append(self.take())
                left = self._node("instanceof_expression", kids)
                continue
            pending.append((min_level, cap, left, self.take()))
            min_level, cap, left = level + 1, top, self._parse_unary()

    def _parse_unary(self) -> Node:
        self.depth += 1
        try:
            if self.depth > _MAX_DEPTH:
                raise _NestingLimit
            t = self.toks[self.i]
            if t.text in _PREFIX_OPS:
                kids = [self.take(), self._parse_unary()]
                return self._node("unary_expression", kids)
            if t.text == "(" and self._cast_ahead():
                kids = [self.take(), self.parse_type(), self.expect(")")]
                if kids[1].kind != "primitive_type" and self._lambda_ahead():
                    kids.append(self._parse_lambda())
                else:
                    kids.append(self._parse_unary())
                return self._node("cast_expression", kids)
            return self._parse_postfix()
        finally:
            self.depth -= 1

    def _parse_postfix(self) -> Node:
        node = self._parse_primary()
        while True:
            t = self.toks[self.i]
            if t.text == ".":
                dot = self.take()
                if self.at_any(("class", "this", "super")):
                    kind = "class_literal" if self.at("class") else "field_access"
                    node = self._node(kind, [node, dot, self.take()])
                elif self.at("new"):  # qualified inner-class creation
                    node = self._parse_creation(node, dot)
                else:
                    kids = [node, dot]
                    if self.at("<"):
                        kids.append(self._parse_type_arguments())
                    kids.append(self.expect_ident())
                    if self.at("("):
                        kids.append(self._parse_arguments())
                        node = self._node("method_invocation", kids)
                    else:
                        node = self._node("field_access", kids)
            elif t.text == "(" and node.kind in (IDENTIFIER, "this", "super"):
                node = self._node("method_invocation", [node, self._parse_arguments()])
            elif t.text == "[" and self.toks[self.i + 1].text != "]":
                kids = [node, self.take(), self.parse_expression(), self.expect("]")]
                node = self._node("array_access", kids)
            elif t.text in ("++", "--"):
                node = self._node("update_expression", [node, self.take()])
            elif t.text == "::":
                kids = [node, self.take()]
                if self.at("<"):
                    kids.append(self._parse_type_arguments())
                if self.at("new"):
                    kids.append(self.take())
                else:
                    kids.append(self.expect_ident())
                node = self._node("method_reference", kids)
            elif t.text == "[" and self.toks[self.i + 1].text == "]":
                # Type-position dims reached through an expression: only
                # legal as part of `X[].class`.
                return self._parse_class_literal(node)
            else:
                return node

    def _parse_class_literal(self, base: Node) -> Node:
        """The `[ ] ... . class` after a type name or primitive type."""
        kids = self._parse_dims([base])
        kids.append(self.expect("."))
        kids.append(self.expect("class"))
        return self._node("class_literal", kids)

    def _parse_arguments(self) -> Node:
        kids = [self.expect("(")]
        if not self.at(")") and not self.at_eof():
            while True:
                before = self.i
                kids.append(self.parse_expression())
                if self.at(","):
                    kids.append(self.take())
                    continue  # a comma demands another argument
                if self.at(")") or self.at_eof():
                    break
                if self.i == before:
                    kids.append(self._error_until(frozenset([")", ","])))
                    if self.at(","):
                        kids.append(self.take())
                        continue
                    break
        kids.append(self.expect(")"))
        return self._node("argument_list", kids)

    def _parse_lambda(self) -> Node:
        kids: list[Node] = []
        if self.at_ident():
            kids.append(self._node("lambda_parameters", [self.take()]))
        else:
            params = [self.expect("(")]
            if not self.at(")") and not self.at_eof():
                while True:
                    before = self.i
                    params.extend(self._parse_modifiers(_PARAMETER_MODIFIERS))
                    if self.at_ident() and self.toks[self.i + 1].text in (",", ")"):
                        params.append(self.take())
                    elif self.at_ident() or self.at_any(PRIMITIVE_TYPES):
                        params.append(self.parse_type())
                        params.append(self.expect_ident())
                    else:
                        params.append(self.missing("parameter"))
                    if self.at(","):
                        params.append(self.take())
                        continue  # a comma demands another parameter
                    if self.at(")") or self.at_eof() or self.i == before:
                        break
            params.append(self.expect(")"))
            kids.append(self._node("lambda_parameters", params))
        kids.append(self.expect("->"))
        if self.at("{"):
            kids.append(self.parse_block())
        else:
            kids.append(self.parse_expression())
        return self._node("lambda_expression", kids)

    def _parse_creation(self, receiver: Node | None = None, dot: Node | None = None) -> Node:
        kids: list[Node] = []
        if receiver is not None:
            kids.append(receiver)
            kids.append(dot)
        kids.append(self.take())  # new
        if self.at("<"):
            kids.append(self._parse_type_arguments())
        if self.at_any(PRIMITIVE_TYPES):
            kids.append(self._node("primitive_type", [self.take()]))
            return self._parse_array_creation_rest(kids)
        kids.append(self._parse_named_type())
        if self.at("["):
            return self._parse_array_creation_rest(kids)
        if self.at("("):
            kids.append(self._parse_arguments())
            if self.at("{"):
                kids.append(self._parse_class_body())
            return self._node("object_creation", kids)
        kids.append(self.missing("("))
        return self._node("object_creation", kids)

    def _parse_array_creation_rest(self, kids: list[Node]) -> Node:
        while self.at("["):
            kids.append(self.take())
            if not self.at("]"):
                kids.append(self.parse_expression())
            kids.append(self.expect("]"))
        if self.at("{"):
            kids.append(self._parse_array_initializer())
        return self._node("array_creation", kids)

    def _parse_primary(self) -> Node:
        self.depth += 1
        try:
            if self.depth > _MAX_DEPTH:
                raise _NestingLimit
            t = self.toks[self.i]
            if t.kind in _LITERAL_KINDS:
                return self.take()
            if t.kind == IDENT:
                return self.take()
            if t.text in _LITERAL_KEYWORDS:
                self.i += 1
                return Node(LITERAL, t.start, t.end, text=t.text)
            if t.text in ("this", "super"):
                return self.take()
            if t.text == "new":
                return self._parse_creation()
            if t.text == "switch":
                return self._parse_switch()
            if t.text in PRIMITIVE_TYPES:
                # Only as `int.class` / `int[].class`.
                return self._parse_class_literal(self._node("primitive_type", [self.take()]))
            if t.text == "(":
                kids = [self.take(), self.parse_expression(), self.expect(")")]
                return self._node("parenthesized_expression", kids)
            if t.kind == BAD:
                return self.take()  # becomes an ERROR leaf
            return self.missing("expression")
        finally:
            self.depth -= 1


# The rule for each text that starts a statement. Primitive types,
# identifiers and literals are decided in `parse_statement` itself. Each
# rule is called in place of a method call, so it costs no extra frame.
_STATEMENT_DISPATCH = {
    "{": JavaParser.parse_block,
    ";": JavaParser._parse_empty_statement,
    "@": JavaParser._parse_local_declaration,
    "final": JavaParser._parse_local_declaration,
    # A local class (JLS 14.3); with no modifiers passed in, the
    # declaration parses the local-class modifiers itself and requires
    # `class`.
    "class": JavaParser._parse_type_declaration,
    "abstract": JavaParser._parse_type_declaration,
    "strictfp": JavaParser._parse_type_declaration,
    "if": JavaParser._parse_if,
    "while": JavaParser._parse_while,
    "do": JavaParser._parse_do,
    "for": JavaParser._parse_for,
    "switch": JavaParser._parse_switch,
    "return": JavaParser._parse_return,
    "throw": JavaParser._parse_throw,
    "break": JavaParser._parse_jump,
    "continue": JavaParser._parse_jump,
    "assert": JavaParser._parse_assert,
    "synchronized": JavaParser._parse_synchronized,
    "try": JavaParser._parse_try,
    **dict.fromkeys(
        _EXPRESSION_START - PRIMITIVE_TYPES - {"switch"},
        JavaParser._parse_expression_statement,
    ),
}

# Besides identifiers and literals, the texts where error recovery in a
# block stops: each starts a statement.
_STATEMENT_START = frozenset(_STATEMENT_DISPATCH) | PRIMITIVE_TYPES


def parse_java(src: str) -> Node:
    """Parse a sequence of type declarations; never raises on malformed
    input. A `package` or `import` declaration is out of scope, and is an
    error like any other text that starts no type declaration.

    Input nested past the depth guard stops the parse there: its tree is a
    compilation unit with one LIMIT node where the guard fired, or with one
    ERROR node over the first unmatched bracket when the input's `( [ {`
    do not balance. The parse needs under 750 frames at any depth, so it
    runs at the interpreter's default recursion limit, which it leaves
    alone.
    """
    return JavaParser(src).parse()
