"""Error-recovering recursive-descent parser for Java.

Total over arbitrary input: regions the grammar cannot place become ERROR
nodes, required-but-absent tokens become zero-width MISSING nodes, and
every call yields a tree. Coverage targets method-level Java up to roughly
version 14: generics, lambdas, method references, anonymous classes,
try-with-resources, multi-catch, and both colon and arrow switch forms.
A compilation unit here is what a fragment is: a sequence of class-body
members (JLS 8.1.6), of which a type declaration is one kind. So a `}`
that closes nothing is an error where it stands. `package` and `import`
declarations are out of scope, and are errors. Also out of scope: module
declarations, sealed types, and pattern matching in switch labels (see
the flagged-constructs fixture). Records have no rule of their own, yet
`record Point ( int x , int y ) { }` parses clean: as a method whose
return type is named `record`.

The parser is deterministic: equal inputs yield equal trees. Instances are
single-use; `parse_java` constructs a fresh one per call. Each ERROR,
MISSING and LIMIT node is recorded in `errors` where it is made, so no
caller walks a tree to find them.

Where a choice needs tokens ahead, the real rule runs as a trial: a
declaration's type must be followed by a name, a cast's `( Type )` by an
operand, and a lambda's parameters by `->` or by the end of the text. A
trial that fits is kept. One that does not is rewound: the position,
the errors it recorded and each `>` it split off a composite token are
put back, so the record stays the tree's own, as it does when a cut
(below) clears it with the tree. A trial skips an annotation's
arguments through a paren-match table built once per parse, so it holds
no expression and no other trial. With binary operators parsed by
precedence climbing, parse time stays linear in nesting depth.

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

Every bracketed list is one rule, `_more`: the opener, then an element,
and another only after a separator, then the closer, which is MISSING
when absent. So a dropped separator is an error, and a list cannot loop
on an element that takes no token. Each list gives only its JLS facts:

| list | closer | separator | may be empty | trailing separator |
|---|---|---|---|---|
| annotation arguments, all pairs or one value (9.7.1) | `)` | `,` | yes | no |
| array initializer (10.6, 9.7.1) | `}` | `,` | yes | yes, even alone: `{ , }` |
| formal parameters, also a lambda's declared ones; varargs last (8.4.1) | `)` | `,` | yes | no |
| type parameters (8.1.2) | `>` | `,` | no | no |
| resources (14.20.3) | `)` | `;` | no | yes |
| arguments (15.12) | `)` | `,` | yes | no |
| inferred lambda parameters (15.27.1) | `)` | `,` | yes | no |

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
# What the left side of an assignment may be once its parentheses are
# removed (JLS 15.26, 15.8.5), besides a node that is an error already.
_ASSIGNABLE = frozenset([IDENTIFIER, "field_access", "array_access", ERROR, MISSING])

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
_LEAF_KIND = {IDENT: IDENTIFIER, NUMBER: LITERAL, STRING: LITERAL, CHAR: LITERAL}
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

    def __init__(self, src: str, errors: list[Node] | None = None):
        self.src = src
        # A copy padded with a second EOF, so that the token after the
        # current one needs no bounds check (`i` never moves past the first
        # EOF) and the list that tokenize returned keeps its one EOF.
        toks = tokenize(src)
        self.toks = toks + toks[-1:]
        self.i = 0
        self.depth = 0
        self._paren_match: dict[int, int] | None = None
        # The tree's error nodes, in the order `_error` makes them.
        self.errors: list[Node] = [] if errors is None else errors
        # Each composite `>` token that `_expect_gt` split, as (index, the
        # token before the split), so that a trial can put it back.
        self._splits: list[tuple[int, Token]] = []
        # While a trial runs, whether it skipped an annotation's arguments;
        # None when no trial runs.
        self._skipped: bool | None = None

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
        the token kind names one. A BAD token is an ERROR leaf."""
        kind, text, start, end = self.toks[self.i]
        if kind != EOF:
            self.i += 1
            if kind == BAD:
                return self._error(ERROR, start, end, text)
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
        return self._error(MISSING, p, p, what)

    def _error(self, kind: str, start: int, end: int, text: str = "") -> Node:
        """A new ERROR, MISSING or LIMIT leaf, recorded in `errors`."""
        self.errors.append(node := Node(kind, start, end, [], text))
        return node

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
        return self._error(ERROR, start, end)

    def _more(self, kids: list[Node], closer: str, sep: str = ",",
              empty: bool = True, trailing: bool = False) -> bool:
        """Is an element of the bracketed list in ``kids`` due? If not,
        append its closer, MISSING when absent.

        ``kids`` holds the list so far, its opener first; the caller parses
        each element into it, one node at least, in its own frame, so that
        no recursion cycle gains a frame here. After the opener an element is due unless the
        list may be ``empty`` and is, or the input ends. After an element,
        another is due only once its separator is taken, and not if a
        ``trailing`` separator may end the list there. An empty list with a
        trailing separator may be that separator alone.
        """
        text = self.toks[self.i].text
        if len(kids) == 1:
            if empty and trailing and text == sep:
                kids.append(self.take())
            elif not (self.at_eof() or empty and text == closer):
                return True
        elif text == sep:
            kids.append(self.take())
            if not (trailing and self.at(closer)):
                return True
        kids.append(self._expect_gt() if closer == ">" else self.expect(closer))
        return False

    # ------------------------------------------------------------------
    # entry point

    def parse(self) -> Node:
        children: list[Node] = []
        mark = len(self.errors)
        try:
            while not self.at_eof():
                children.append(self._parse_member())
        except _NestingLimit:
            del self.errors[mark:]  # the tree built so far is thrown away
            return self._node("compilation_unit", [self._cut()])
        return self._node("compilation_unit", children) if children else Node(
            "compilation_unit", 0, len(self.src)
        )

    def _cut(self) -> Node:
        """The one node of a parse the depth guard stopped: LIMIT where it
        fired, or ERROR over the first unmatched bracket."""
        bad = _first_unmatched_bracket(self.toks)
        if bad is not None:
            return self._error(ERROR, bad.start, bad.end)
        p = self.toks[self.i].start
        return self._error(LIMIT, p, p)

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
                leaf = self.take()
                mods.append(self._error(ERROR, t.start, t.end, text) if text in seen else leaf)
                seen.add(text)
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
            if self.at("(") and self._skipped is not None:
                # In a trial the arguments are skipped whole; an unmatched
                # `(` runs to the end of the text.
                close = self._close_paren(self.i)
                self.i = len(self.toks) - 2 if close is None else close + 1
                self._skipped = True
            elif self.at("("):
                # Element-value pairs, each an assignment node, or one
                # element value alone (JLS 9.7.1).
                args = [self.take()]
                if self.at_ident() and self.toks[self.i + 1].text == "=":
                    while self._more(args, ")"):
                        pair = [self.expect_ident(), self.expect("="),
                                self._parse_annotation_value()]
                        args.append(self._node("assignment", pair))
                elif self._more(args, ")"):
                    args.append(self._parse_annotation_value())
                    args.append(self.expect(")"))
                kids.append(self._node("annotation_arguments", args))
            return self._node("annotation", kids)
        finally:
            self.depth -= 1

    def _parse_annotation_value(self) -> Node:
        """An element value (JLS 9.7.1): an array of element values, an
        annotation, or a conditional expression."""
        if self.at("{"):
            return self._parse_array_initializer(element_values=True)
        if self.at("@"):
            return self._parse_annotation()
        return self.parse_expression(conditional=True)

    def _parse_type_declaration(self, mods: list[Node] | None = None) -> Node:
        """A class, interface, enum or annotation type: head, then body.

        The four share this one frame, and the enum body is parsed here
        too, so that each level of nested declarations costs three frames
        (member, declaration, class body). A caller that passes ``mods``
        stands at `class`, `interface`, `enum` or `@ interface`. With no
        ``mods`` passed in, it is a local class declaration (JLS 14.3),
        reached from a statement: it parses the local-class modifiers
        itself, and then requires ``class``.
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
        self._parse_more_types(kids, ",")
        return self._node("type_list", kids)

    def _parse_class_body(self, kids: list[Node] | None = None,
                          kind: str = "class_body") -> Node:
        """Members up to the closing brace; an enum body passes in its
        opening brace, constants and ';' as ``kids``."""
        if kids is None:
            kids = [self.expect("{")]
        while not self.at("}") and not self.at_eof():
            kids.append(self._parse_member())
        kids.append(self.expect("}"))
        return self._node(kind, kids)

    def _parse_member(self) -> Node:
        """One class-body member (JLS 8.1.6). It takes at least one token
        from any position but the end, so a member loop needs no guard."""
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
                declarator.append(self._variable_initializer()())
            kids.append(self._node("variable_declarator", declarator))
            if not self.at(","):
                return
            kids.append(self.take())
            name = None

    def _variable_initializer(self):
        """The rule of the variable initializer here (JLS 8.3): an array
        initializer at `{`, else an expression. The caller calls the rule,
        so that choosing it costs no frame."""
        return self._parse_array_initializer if self.at("{") else self.parse_expression

    def _parse_array_initializer(self, element_values: bool = False) -> Node:
        """`{ ... }` of variable initializers, or of annotation element values.

        Element values recurse through this guard (nested arrays) or the
        annotation guard (annotations), so their cycles are bounded too.
        """
        self.depth += 1
        try:
            if self.depth > _MAX_DEPTH:
                raise _NestingLimit
            kids = [self.take()]
            while self._more(kids, "}", trailing=True):
                kids.append(self._parse_annotation_value() if element_values
                            else self._variable_initializer()())
            return self._node("array_initializer", kids)
        finally:
            self.depth -= 1

    def _parse_formal_parameters(self) -> Node:
        """The parameters of a method, a constructor or a lambda with
        declared parameters (JLS 8.4.1, 15.27.1). A variable-arity one
        comes last and takes no `[ ]` after its name."""
        kids = [self.take()]
        while self._more(kids, ")"):
            param = self._parse_modifiers(_PARAMETER_MODIFIERS)
            if not (self.at_ident() or self.at_any(PRIMITIVE_TYPES)):
                param.append(self.missing("parameter"))
                kids.append(self._node("formal_parameter", param))
                continue
            param.append(self.parse_type())
            last = self.at("...")
            if last:
                param.append(self.take())
            param.append(self.expect_ident())
            kids.append(self._node("formal_parameter", param if last else self._parse_dims(param)))
            if last:
                kids.append(self.expect(")"))
                break
        return self._node("formal_parameters", kids)

    # ------------------------------------------------------------------
    # types

    def _parse_type_parameters(self) -> Node:
        kids = [self.take()]
        while self._more(kids, ">", empty=False):
            tp = self._parse_modifiers(frozenset())  # annotations
            tp.append(self.expect_ident())
            if self.at("extends"):
                tp.append(self.take())
                tp.append(self.parse_type())
                self._parse_more_types(tp, "&")
            kids.append(self._node("type_parameter", tp))
        return self._node("type_parameters", kids)

    def _parse_more_types(self, kids: list[Node], sep: str) -> None:
        """Append to ``kids`` each `sep Type` ahead: the types of a list
        (`,`), the alternatives of a catch parameter (`|`, JLS 14.20), or
        the additional bounds of a type parameter or an intersection cast
        (`&`, JLS 4.4, 15.16)."""
        while self.at(sep):
            kids.append(self.take())
            kids.append(self.parse_type())

    def _at_gt(self) -> bool:
        return self.toks[self.i].text in _GT_TOKENS

    def _expect_gt(self) -> Node:
        t = self.toks[self.i]
        if t.text == ">":
            return self.take()
        if t.text in _GT_TOKENS:
            # Split one '>' off a composite token (closes nested generics).
            self._splits.append((self.i, t))
            self.toks[self.i] = Token(PUNCT, t.text[1:], t.start + 1, t.end)
            return Node(">", t.start, t.start + 1, text=">")
        return self.missing(">")

    def parse_type(self) -> Node:
        """A type, after its type-use annotations (JLS 4.11), which become
        the first children of its primitive or named type."""
        self.depth += 1
        try:
            if self.depth > _MAX_DEPTH:
                raise _NestingLimit
            kids = self._parse_modifiers(frozenset())  # annotations
            if self.at_any(PRIMITIVE_TYPES):
                kids.append(self.take())
                base = self._node("primitive_type", kids)
            else:
                base = self._parse_named_type(kids)
            kids = self._parse_dims([base])
            if len(kids) > 1:
                return self._node("array_type", kids)
            return base
        finally:
            self.depth -= 1

    def _parse_named_type(self, kids: list[Node]) -> Node:
        """A class type, `A<B>.C<D>`, without array dims, after the
        annotations in ``kids``."""
        kids.append(self.expect_ident())
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
    # trials: the real rule, kept when it fits, else undone

    def _trial(self, rule, fits):
        """``rule``'s result here, if it records no error or runs to the
        end of the text, and ``fits()`` holds after it. Else None, and the
        trial leaves no trace: its position, its recorded errors and each
        `>` it split off a composite token are put back.

        A trial skips an annotation's arguments, so it parses no expression
        and holds no other trial, and it costs the tokens it spans. An
        accepted trial that skipped arguments is parsed again to build
        them; any other keeps its nodes.
        """
        i, mark, splits = self.i, len(self.errors), len(self._splits)
        self._skipped = False
        result = rule()
        ok = fits() and (len(self.errors) == mark or self.at_eof())
        skipped, self._skipped = self._skipped, None
        if ok and not skipped:
            return result
        self.i = i
        del self.errors[mark:]
        while len(self._splits) > splits:
            j, tok = self._splits.pop()
            self.toks[j] = tok
        return rule() if ok else None

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

    def _declaration_head(self) -> list[Node] | None:
        """`{final | annotation} Type`, if a name follows it: the head of a
        local variable declaration (JLS 14.4), of an enhanced for (14.14.2)
        or of a resource (14.20.3)."""
        return self._trial(self._parse_declaration_head, self.at_ident)

    def _parse_declaration_head(self) -> list[Node]:
        kids = self._parse_modifiers(_PARAMETER_MODIFIERS)
        kids.append(self.parse_type())
        return kids

    def _parse_cast_head(self) -> list[Node]:
        """`( Type )`, or `( Type & Bound ... )` of an intersection cast
        (JLS 15.16)."""
        kids = [self.take(), self.parse_type()]
        if kids[1].kind != "primitive_type":
            self._parse_more_types(kids, "&")
        kids.append(self.expect(")"))
        return kids

    def _cast_operand_ahead(self) -> bool:
        """After a cast's `)`: does an operand start here? A reference type
        takes no sign operator before it: `( a ) - b` is a difference."""
        t = self.toks[self.i]
        if t.kind in _OPERAND_KINDS:
            return True
        # A type ends in a primitive keyword exactly when it is primitive.
        primitive = self.toks[self.i - 2].text in PRIMITIVE_TYPES
        return t.text in _EXPRESSION_START and (primitive or t.text not in _SIGN_OPS)

    def _lambda_head(self) -> Node | None:
        """The parameters of a lambda expression, if one starts here: a
        name before `->`, or a parenthesized list before `->` or before
        the end of a text that stops there."""
        if self.at_ident() and self.toks[self.i + 1].text == "->":
            return self._node("lambda_parameters", [self.take()])
        if self.at("("):
            return self._trial(self._parse_lambda_parameters, self._arrow_ahead)
        return None

    def _arrow_ahead(self) -> bool:
        return self.at("->") or self.at_eof()

    def _parse_lambda_parameters(self) -> Node:
        """Lambda parameters (JLS 15.27.1): all declared, which are formal
        parameters, or all inferred, bare names; the first decides."""
        nxt = self.toks[self.i + 1]
        inferred = nxt.kind == IDENT and self.toks[self.i + 2].text in (",", ")")
        if not (inferred or nxt.text == ")"):
            return self._parse_formal_parameters()
        kids = [self.take()]
        while self._more(kids, ")"):
            kids.append(self.expect_ident())
        return self._node("lambda_parameters", kids)

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
                head = self._declaration_head()
                if head is not None:
                    return self._parse_local_declaration(head)
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

    def _parse_local_declaration(self, head: list[Node] | None = None) -> Node:
        """A local variable declaration (JLS 14.4), or a local class
        (JLS 14.3) after `final` or an annotation. Besides annotations, a
        class takes the local-class modifiers and a variable `final`
        alone: before a type, `abstract` and `strictfp` are error leaves.
        A ``head`` that a trial took is the declaration's type and all
        before it."""
        if head is not None:
            kids = head
        else:
            kids = self._parse_modifiers(_LOCAL_CLASS_MODIFIERS)
            if self.at("class"):
                return self._parse_type_declaration(kids)
            kids = [self._error(ERROR, k.start, k.end, k.text)
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
        head = self._declaration_head()
        if head is not None and self.toks[self.i + 1].text == ":":
            kids.extend(head)
            kids.append(self.take())  # the name
            kids.append(self.take())  # :
            kids.append(self.parse_expression())
            kids.append(self.expect(")"))
            kids.append(self.parse_statement())
            return self._node("enhanced_for_statement", kids)
        if head is not None:
            # A local declaration without its ';', parsed in this frame so
            # that an initializer sits no deeper than in a statement.
            self._parse_declarators(head)
            kids.append(self._node("local_variable_declaration", head))
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
            self._parse_more_types(catch, "|")
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
        kids = [self.take()]
        while self._more(kids, ")", ";", empty=False, trailing=True):
            res = self._declaration_head()
            if res is not None:
                res.append(self.take())  # the name
                res.append(self.expect("="))
            else:
                res = []
            res.append(self.parse_expression())
            kids.append(self._node("resource", res))
        return self._node("resource_list", kids)

    # ------------------------------------------------------------------
    # expressions

    def parse_expression(self, conditional: bool = False) -> Node:
        """An expression (JLS 15.27); with ``conditional``, a conditional
        expression (15.25): no lambda, and no assignment at its top."""
        self.depth += 1
        try:
            if self.depth > _MAX_DEPTH:
                raise _NestingLimit
            if not conditional:
                head = self._lambda_head()
                if head is not None:
                    return self._parse_lambda(head)
            left = self._parse_binary(0)
            if self.at("?"):
                kids = [left, self.take(), self.parse_expression(), self.expect(":")]
                # The third operand is a conditional or a lambda expression.
                head = self._lambda_head()
                kids.append(self.parse_expression(conditional=True) if head is None
                            else self._parse_lambda(head))
                left = self._node("ternary", kids)
            if not conditional and self.at_any(_ASSIGN_OPS):
                target = left
                while target.kind == "parenthesized_expression":
                    target = target.children[1]
                op = self.take()
                # `x . this` is a field access by kind, but no variable (JLS 15.8.4).
                if target.kind not in _ASSIGNABLE or target.kind == "field_access" and (
                    target.children[-1].kind in ("this", "super")
                ):
                    op = self._error(ERROR, op.start, op.end, op.text)
                kids = [left, op, self.parse_expression()]
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
            if t.text == "(":
                kids = self._trial(self._parse_cast_head, self._cast_operand_ahead)
                if kids is not None:
                    # Only a reference type may cast a lambda (JLS 15.16).
                    head = None if kids[1].kind == "primitive_type" else self._lambda_head()
                    kids.append(self._parse_unary() if head is None else self._parse_lambda(head))
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
        kids = [self.take()]
        while self._more(kids, ")"):
            kids.append(self.parse_expression())
        return self._node("argument_list", kids)

    def _parse_lambda(self, head: Node) -> Node:
        """The rest of a lambda expression after its parameters, ``head``."""
        kids = [head, self.expect("->")]
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
        kids.append(self._parse_named_type([]))
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


def parse_java(src: str, errors: list[Node] | None = None) -> Node:
    """Parse a sequence of class-body members; never raises on malformed
    input. A `package` or `import` declaration is out of scope, and is an
    error like any other text that starts no member.

    ``errors``, when given, is an output: the parser appends to it the
    nodes of the tree's `Node.error_nodes`, in the order it makes them.

    Input nested past the depth guard stops the parse there: its tree is a
    compilation unit with one LIMIT node where the guard fired, or with one
    ERROR node over the first unmatched bracket when the input's `( [ {`
    do not balance. The parse needs under 750 frames at any depth, so it
    runs at the interpreter's default recursion limit, which it leaves
    alone.
    """
    return JavaParser(src, errors).parse()
