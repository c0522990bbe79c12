"""Identifier abstraction: VAR_n / METHOD_n / TYPE_n placeholders.

Every distinct user-defined identifier in a method is replaced by one
indexed placeholder. The category comes from syntactic position in the
parse tree: method names (the identifier a call's argument list attaches
to, or a declaration's parameter list), type names (declared types,
type usages, annotations, constructors, class literals), and everything
else defaults to the variable category — no type resolution is attempted.
When one identifier occurs in positions of different categories, the
strongest wins (type over method over variable), so each identifier maps
to exactly one placeholder and re-abstracting already-abstracted code is
a fixpoint.

Indices are assigned per category in first-occurrence order, starting at
1 with no gaps. Java keywords, primitive type names, literals, and
implicitly imported ``java.lang`` type names are never abstracted.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ._record import SlottedRecord
from .errors import InputError
from .javaparse import IDENTIFIER, Node, parse_java, tokenize
from .javaparse.lexer import BAD, IDENT
from .syntax import WRAP_PREFIX, SyntaxVerdict, _verdict, check_syntax, wrap_method

_VARIABLE = "variable"
_METHOD = "method"
_TYPE = "type"

_PLACEHOLDER_PREFIX = {_VARIABLE: "VAR", _METHOD: "METHOD", _TYPE: "TYPE"}
_CATEGORY_PRIORITY = {_VARIABLE: 1, _METHOD: 2, _TYPE: 3}

PLACEHOLDER_RE = re.compile(r"^(VAR|METHOD|TYPE)_(0|[1-9][0-9]*)$")

# Types the java.lang package makes visible without an import. These stay
# concrete: the dataset keeps them, and abstracting `String` would destroy
# more signal than it hides.
JAVA_LANG_NAMES = frozenset(
    """
    Appendable AutoCloseable Boolean Byte CharSequence Character Class
    ClassLoader Cloneable Comparable Double Enum Float Integer Iterable
    Long Math Number Object Package Process ProcessBuilder Readable
    Runnable Runtime Short StackTraceElement StrictMath String
    StringBuffer StringBuilder System Thread ThreadGroup ThreadLocal Void
    Deprecated FunctionalInterface Override SafeVarargs SuppressWarnings
    ArithmeticException ArrayIndexOutOfBoundsException ArrayStoreException
    ClassCastException ClassNotFoundException CloneNotSupportedException
    Exception IllegalAccessException IllegalArgumentException
    IllegalMonitorStateException IllegalStateException
    IllegalThreadStateException IndexOutOfBoundsException
    InstantiationException InterruptedException NegativeArraySizeException
    NoSuchFieldException NoSuchMethodException NullPointerException
    NumberFormatException ReflectiveOperationException RuntimeException
    SecurityException StringIndexOutOfBoundsException
    UnsupportedOperationException
    AbstractMethodError AssertionError BootstrapMethodError
    ClassFormatError Error ExceptionInInitializerError IllegalAccessError
    IncompatibleClassChangeError InstantiationError InternalError
    LinkageError NoClassDefFoundError NoSuchFieldError NoSuchMethodError
    OutOfMemoryError StackOverflowError Throwable UnknownError
    UnsatisfiedLinkError UnsupportedClassVersionError VerifyError
    VirtualMachineError
    """.split()
)

# Contextual keywords the lexer sees as identifiers but that must stay
# concrete for the output to remain the same kind of Java.
_PSEUDO_KEYWORDS = frozenset(["var"])

_NEVER_ABSTRACT = JAVA_LANG_NAMES | _PSEUDO_KEYWORDS

# Kinds whose direct identifier children all name a type. A type
# declaration has one such child: the name it declares.
_TYPE_NAME_KINDS = frozenset(
    [
        "named_type",
        "annotation",
        "type_parameter",
        "class_declaration",
        "interface_declaration",
        "enum_declaration",
        "annotation_declaration",
    ]
)

# Kinds whose direct identifier child is a name when the sibling right
# after it is of the given kind: that kind, and the name's category.
_NAMED_BEFORE = {
    "method_declaration": ("formal_parameters", _METHOD),
    "constructor_declaration": ("formal_parameters", _TYPE),
    "method_invocation": ("argument_list", _METHOD),
}


class UnparseableCodeError(InputError):
    """Abstraction was asked to transform code that does not parse."""

    def __init__(self, message: str, verdict: SyntaxVerdict):
        super().__init__(message)
        self.verdict = verdict


class Violation(NamedTuple):
    """One conformance defect, anchored to a byte span of the input."""

    span: tuple[int, int]
    message: str


class AbstractionReport(SlottedRecord):
    """Outcome of a conformance check."""

    __slots__ = ("violations",)

    def __init__(self, violations: list[Violation] | None = None):
        self.violations = [] if violations is None else violations

    @property
    def conformant(self) -> bool:
        return not self.violations


class AbstractionMapping(SlottedRecord):
    """Original -> placeholder pairs, per category, in index order."""

    __slots__ = ("variables", "methods", "types")

    def __init__(self, variables: list[tuple[str, str]] | None = None,
                 methods: list[tuple[str, str]] | None = None,
                 types: list[tuple[str, str]] | None = None):
        self.variables = [] if variables is None else variables
        self.methods = [] if methods is None else methods
        self.types = [] if types is None else types

    def as_dict(self) -> dict[str, str]:
        merged: dict[str, str] = {}
        for pairs in (self.variables, self.methods, self.types):
            merged.update(pairs)
        return merged

    def to_obj(self) -> dict:
        return {
            "variables": [list(p) for p in self.variables],
            "methods": [list(p) for p in self.methods],
            "types": [list(p) for p in self.types],
        }


def _identifier_occurrences(root: Node) -> list[tuple[int, int, str, str]]:
    """All identifier leaves under ``root`` as (start, end, text, category),
    in no set order.

    A leaf's category is worked out while its parent's children are
    scanned: from the parent's kind and the leaf's siblings, or else from
    the nearest enclosing class literal. Only inner nodes go on the stack.
    """
    out: list[tuple[int, int, str, str]] = []
    stack: list[tuple[Node, str]] = [(root, _VARIABLE)]
    while stack:
        node, deep = stack.pop()
        kind = node.kind
        if kind == "class_literal":
            # The receiver of `Foo.Bar.class` names a type, however deep
            # the dotted chain nests.
            deep = _TYPE
        children = node.children
        named_by = _NAMED_BEFORE.get(kind)
        for i, child in enumerate(children):
            if child.children:
                stack.append((child, deep))
                continue
            if child.kind != IDENTIFIER:
                continue
            category = deep
            if kind in _TYPE_NAME_KINDS:
                category = _TYPE
            elif named_by is not None:
                follower, role = named_by
                if i + 1 < len(children) and children[i + 1].kind == follower:
                    category = role
            elif kind == "method_reference" and i:
                # The receiver is the first child; any identifier after it
                # follows `::` and names the method.
                category = _METHOD
            out.append((child.start, child.end, child.text, category))
    return out


def abstract_identifiers(code: str) -> tuple[str, AbstractionMapping]:
    """Replace user-defined identifiers with indexed placeholders.

    The input must be a grammatically valid method fragment; abstraction
    of broken code, or of code nested past the parser's depth guard, is
    undefined and raises an input error that carries the syntax verdict.
    Already-abstracted code is renumbered into canonical first-occurrence
    order and otherwise left intact.

    The fragment is parsed once: the same tree gives the verdict (the one
    :func:`check_syntax` gives) and the identifier categories.
    """
    if code.strip():
        wrapped_root = parse_java(wrap_method(code))
        verdict = _verdict(code, wrapped_root)
    else:
        verdict = check_syntax(code)
    if verdict.limit_exceeded:
        raise UnparseableCodeError(
            f"cannot abstract code nested past the parser's nesting limit "
            f"(parse stopped at offset {verdict.error_spans[0][0]})",
            verdict,
        )
    if not verdict.valid:
        raise UnparseableCodeError(
            f"cannot abstract code that does not parse "
            f"({verdict.error_count} error region(s))",
            verdict,
        )
    lo = len(WRAP_PREFIX)
    hi = lo + len(code)
    occurrences = [
        (s, e, text, cat)
        for s, e, text, cat in _identifier_occurrences(wrapped_root)
        if lo <= s and e <= hi and text not in _NEVER_ABSTRACT
    ]
    occurrences.sort(key=lambda o: o[0])

    # Pass 1: one category per identifier (strongest role wins), plus the
    # position where each identifier first appears.
    category: dict[str, str] = {}
    first_pos: dict[str, int] = {}
    for start, _end, text, cat in occurrences:
        if text not in first_pos:
            first_pos[text] = start
            category[text] = cat
        elif _CATEGORY_PRIORITY[cat] > _CATEGORY_PRIORITY[category[text]]:
            category[text] = cat

    # Pass 2: per-category numbering in first-occurrence order.
    placeholder: dict[str, str] = {}
    mapping = AbstractionMapping()
    buckets = {_VARIABLE: mapping.variables, _METHOD: mapping.methods, _TYPE: mapping.types}
    counters = {_VARIABLE: 0, _METHOD: 0, _TYPE: 0}
    for text in sorted(first_pos, key=first_pos.__getitem__):
        cat = category[text]
        counters[cat] += 1
        ph = f"{_PLACEHOLDER_PREFIX[cat]}_{counters[cat]}"
        placeholder[text] = ph
        buckets[cat].append((text, ph))

    # Splice replacements back into the original fragment.
    pieces: list[str] = []
    cursor = 0
    for start, end, text, _cat in occurrences:
        s, e = start - lo, end - lo
        pieces.append(code[cursor:s])
        pieces.append(placeholder[text])
        cursor = e
    pieces.append(code[cursor:])
    return "".join(pieces), mapping


def check_conformance(code: str, strict_gaps: bool = False) -> AbstractionReport:
    """Verify that a fragment contains only placeholder identifiers.

    Lexical: every identifier token must be a well-formed placeholder
    (``VAR_k``/``METHOD_k``/``TYPE_k`` with canonical k >= 1) or a name
    that abstraction deliberately keeps (``java.lang`` types and
    contextual keywords). Index gaps within a category are tolerated by
    default — method-level excerpts of larger abstracted units legally
    skip indices — and rejected under ``strict_gaps``.
    """
    report = AbstractionReport()
    indices: dict[str, list[tuple[int, tuple[int, int]]]] = {}
    for tok in tokenize(code):
        if tok.kind == BAD:
            report.violations.append(
                Violation((tok.start, tok.end), f"unrecognized text {tok.text!r}")
            )
            continue
        if tok.kind != IDENT:
            continue
        if tok.text in _NEVER_ABSTRACT:
            continue
        match = PLACEHOLDER_RE.match(tok.text)
        if match is None:
            if re.match(r"^(VAR|METHOD|TYPE)_", tok.text):
                msg = f"malformed placeholder index in {tok.text!r}"
            else:
                msg = f"concrete identifier {tok.text!r}"
            report.violations.append(Violation((tok.start, tok.end), msg))
            continue
        prefix, index_text = match.groups()
        index = int(index_text)
        if index < 1:
            report.violations.append(
                Violation(
                    (tok.start, tok.end),
                    f"placeholder {tok.text!r} has index {index}; indices start at 1",
                )
            )
            continue
        indices.setdefault(prefix, []).append((index, (tok.start, tok.end)))
    if strict_gaps:
        for prefix in sorted(indices):
            seen = indices[prefix]
            present = {i for i, _span in seen}
            missing = sorted(set(range(1, max(present) + 1)) - present)
            if missing:
                anchor = max(seen)[1]
                gaps = ", ".join(f"{prefix}_{i}" for i in missing)
                report.violations.append(
                    Violation(anchor, f"index gap: {gaps} never used")
                )
    report.violations.sort(key=lambda v: v.span)
    return report
