"""Parser behavior: totality, determinism, recovery, construct coverage.

The parser must produce a tree for every input (garbage included), mark
broken regions with error or missing nodes, and parse the same input to
the same tree every time. Construct coverage parses each snippet as the
checker does: as the class-body members it is.
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repairdx.javaparse import ERROR, MISSING, Node, parse_java, tokenize
from repairdx.javaparse.lexer import _OPERATORS, KEYWORD, KEYWORDS, PUNCT
from repairdx.javaparse.parser import (
    _BINARY_LEVELS,
    _EXPRESSION_START,
    _OPERAND_KINDS,
    JavaParser,
)
from repairdx.syntax import check_syntax


def error_nodes(tree):
    return [n for n in tree.walk() if n.kind in (ERROR, MISSING)]


# ----------------------------------------------------------------------
# totality and determinism


def test_empty_input_parses_to_a_tree():
    tree = parse_java("")
    assert tree is not None


def test_garbage_still_yields_a_tree():
    tree = parse_java("$$$ ??? ~~~ @@@@")
    assert tree is not None
    assert error_nodes(tree)


@pytest.mark.parametrize("seed", range(5))
def test_token_soup_is_total_and_deterministic(seed):
    rng = random.Random(seed)
    atoms = ["{", "}", "(", ")", ";", ",", "int", "if", "else", "x", "y",
             "0", "+", "=", "return", "\"s\"", "'c'", ".", "->", "::",
             "<", ">", "[", "]", "class", "new", "#", "@"]
    for _ in range(200):
        src = " ".join(rng.choice(atoms) for _ in range(rng.randint(0, 40)))
        first = parse_java(src).sexp()
        second = parse_java(src).sexp()
        assert first == second


@pytest.mark.parametrize("seed", range(3))
def test_random_unicode_is_total(seed):
    rng = random.Random(1000 + seed)
    for _ in range(60):
        src = "".join(chr(rng.randint(1, 0x2FF)) for _ in range(rng.randint(0, 80)))
        parse_java(src)  # must not raise


def assert_tree_shape(tree):
    """Every node of ``tree`` spans its children, which come in source
    order without overlap; an inner node runs from the start of its first
    child to the end of its last, so the last child ends it."""
    for node in tree.walk():
        assert node.start <= node.end, node
        children = node.children
        if not children:
            continue
        assert (node.start, node.end) == (children[0].start, children[-1].end), node
        for before, after in zip(children, children[1:]):
            assert before.end <= after.start, (node, before, after)


def fixture_codes(*row_sets):
    return [row["code"] for rows in row_sets for row in rows]


# Inputs the depth guard cuts: one balanced nest (a LIMIT node) and one
# unbalanced (an ERROR node over the first unmatched bracket).
CUT_INPUTS = [
    "Object f ( ) { return " + "( " * 300 + "a" + " )" * 300 + " ; }",
    "Object f ( ) { return " + "( " * 300 + "a ; }",
]


def test_node_spans_nest_within_parents(valid_methods, broken_methods,
                                        flagged_constructs, abstraction_methods):
    codes = ["int f ( int a ) { if ( a > 0 ) { return a ; } return 0 ; }", *CUT_INPUTS]
    codes += fixture_codes(valid_methods, broken_methods, flagged_constructs,
                           abstraction_methods)
    for code in codes:
        assert_tree_shape(parse_java(code))


SOUP_ATOMS = ["{", "}", "(", ")", ";", ",", "int", "if", "else", "x", "y", "0", "+",
              "=", "return", "\"s\"", "'c'", ".", "->", "::", "<", ">", ">>", "[", "]",
              "class", "new", "#", "@", "?", ":", "A", "switch", "case", "default",
              "try", "catch", "for", "enum", "extends", "\"open", "/* open"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(SOUP_ATOMS), max_size=40), st.integers(0, 300))
def test_token_soup_trees_keep_their_shape(atoms, depth):
    soup = " ".join(atoms)
    # Past about 70 open parentheses in a method body the depth guard cuts.
    nest = "void f ( ) { " + "( " * depth + soup
    for src in (soup, nest):
        assert_tree_shape(parse_java(src))


def test_deep_nesting_is_bounded_in_time_and_never_crashes():
    start = time.monotonic()
    parse_java("(" * 3000)
    parse_java("{" * 3000)
    deep_ifs = "void f ( ) { " + "if ( x ) { " * 500 + "}" * 500 + " }"
    parse_java(deep_ifs)
    assert time.monotonic() - start < 20.0

    # Parse time is linear in nesting depth: a quadratic parser needs
    # about a second per 2,000 levels here.
    start = time.monotonic()
    for closers in (6000, 5999):  # balanced, then one ')' short
        code = "int f ( ) { return " + "( " * 6000 + "a + b" + " )" * closers + " ; }"
        assert not check_syntax(code).valid  # deeper than the nesting guard
    assert time.monotonic() - start < 3.0


def test_deep_array_initializer_is_invalid_not_a_crash():
    code = "int [ ] f = " + "{ " * 12000 + "} " * 12000 + ";"
    verdict = check_syntax(code)
    assert not verdict.valid
    assert verdict.error_count >= 1


# ----------------------------------------------------------------------
# precedence climbing against level-by-level recursive descent


class LevelByLevelParser(JavaParser):
    """Reference: one recursive-descent call per precedence level."""

    def _parse_binary(self, level):
        if level >= len(_BINARY_LEVELS):
            return self._parse_unary()
        ops = _BINARY_LEVELS[level]
        left = self._parse_binary(level + 1)
        while True:
            t = self.toks[self.i]
            if t.text not in ops or t.kind not in (PUNCT, KEYWORD):
                return left
            if t.text == "instanceof":
                kids = [left, self.take(), self.parse_type()]
                if self.at_ident():
                    kids.append(self.take())
                left = self._node("instanceof_expression", kids)
                continue
            op = self.take()
            right = self._parse_binary(level + 1)
            left = self._node("binary_expression", [left, op, right])


def returning(expr: str) -> str:
    return "Object f ( ) { return " + expr + " ; }"


def first_node(tree, kind):
    return next(n for n in tree.walk() if n.kind == kind)


BINARY_OPERATORS = sorted(op for ops in _BINARY_LEVELS for op in ops if op != "instanceof")
EXPRESSION_ATOMS = [
    "a", "b", "1", *BINARY_OPERATORS, "instanceof T", "instanceof T t", "(", ")", "?", ":",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(EXPRESSION_ATOMS), max_size=30))
def test_precedence_climbing_matches_level_by_level_descent(atoms):
    src = returning(" ".join(atoms))
    assert JavaParser(src).parse().sexp() == LevelByLevelParser(src).parse().sexp()


# Trees pinned from the level-by-level parser.
BINARY_GOLDEN = {
    "a - b - c": (
        "(binary_expression (binary_expression (identifier 'a' 22:23) (- '-' 24:25) "
        "(identifier 'b' 26:27) ) (- '-' 28:29) (identifier 'c' 30:31) )"
    ),
    # all ten levels, loosest to tightest in mixed order
    "a * b + c || d << e & f == g ^ h < i | j && k - l": (
        "(binary_expression (binary_expression (binary_expression (identifier 'a' 22:23) "
        "(* '*' 24:25) (identifier 'b' 26:27) ) (+ '+' 28:29) (identifier 'c' 30:31) ) "
        "(|| '||' 32:34) (binary_expression (binary_expression (binary_expression "
        "(binary_expression (binary_expression (identifier 'd' 35:36) (<< '<<' 37:39) "
        "(identifier 'e' 40:41) ) (& '&' 42:43) (binary_expression (identifier 'f' 44:45) "
        "(== '==' 46:48) (identifier 'g' 49:50) ) ) (^ '^' 51:52) (binary_expression "
        "(identifier 'h' 53:54) (< '<' 55:56) (identifier 'i' 57:58) ) ) (| '|' 59:60) "
        "(identifier 'j' 61:62) ) (&& '&&' 63:65) (binary_expression (identifier 'k' 66:67) "
        "(- '-' 68:69) (identifier 'l' 70:71) ) ) )"
    ),
}


@pytest.mark.parametrize("expr", sorted(BINARY_GOLDEN))
def test_binary_expression_trees_are_pinned(expr):
    for parser_cls in (JavaParser, LevelByLevelParser):
        ret = first_node(parser_cls(returning(expr)).parse(), "return_statement")
        assert ret.children[1].sexp() == BINARY_GOLDEN[expr]


def test_operator_after_instanceof_is_left_to_the_caller():
    # `+` binds tighter than instanceof, but a type cannot be its left
    # operand: the return statement ends after T and `+ 1 ;` follows.
    golden = (
        "(block ({ '{' 13:14) (return_statement (return 'return' 15:21) "
        "(instanceof_expression (identifier 'x' 22:23) (instanceof 'instanceof' 24:34) "
        "(named_type (identifier 'T' 35:36) ) ) (MISSING ';' 37:37) ) "
        "(expression_statement (unary_expression (+ '+' 37:38) (literal '1' 39:40) ) "
        "(; ';' 41:42) ) (} '}' 43:44) )"
    )
    for parser_cls in (JavaParser, LevelByLevelParser):
        block = first_node(parser_cls(returning("x instanceof T + 1")).parse(), "block")
        assert block.sexp() == golden


# ----------------------------------------------------------------------
# construct coverage

VALID_SNIPPETS = [
    # expressions
    "int f ( ) { return 1 + 2 * 3 - 4 / 5 % 6 ; }",
    "int f ( ) { return ( 1 + 2 ) * - 3 ; }",
    "boolean f ( ) { return ! a && b || c ^ d ; }",
    "int f ( ) { return a << 2 >> 1 >>> 3 & 0xF | 0b1 ; }",
    "int f ( ) { return c ? x : y ; }",
    "int f ( ) { return c1 ? x : c2 ? y : z ; }",
    "int f ( ) { x = y = z ; return x ; }",
    "void f ( ) { i ++ ; -- j ; k += 2 ; m >>>= 1 ; }",
    "boolean f ( ) { return o instanceof String ; }",
    "int f ( ) { return ( int ) x ; }",
    "Object f ( ) { return ( Object ) o ; }",
    "int f ( ) { return ( int ) - 1 ; }",
    "long f ( ) { return ( long ) ( a + b ) ; }",
    "int f ( ) { return arr [ i ] [ j ] ; }",
    "int f ( ) { return new int [ ] { 1 , 2 , 3 } [ 0 ] ; }",
    "String f ( ) { return obj . field . nested ; }",
    "int f ( ) { return list . get ( 0 ) . hashCode ( ) ; }",
    "void f ( ) { this . x = super . y ; }",
    "Class < ? > f ( ) { return String . class ; }",
    "Class < ? > f ( ) { return int . class ; }",
    # JLS 15.16: a reference type may cast a lambda, and a cast operand
    # may be a switch expression or a class literal
    "Object f ( ) { return ( Runnable ) ( ) -> { } ; }",
    "Object f ( ) { return ( Function < A , B > ) x -> x ; }",
    "Object f ( ) { return ( int [ ] ) x -> x ; }",
    "int f ( ) { return ( int ) switch ( x ) { default -> 1 ; } ; }",
    "Object f ( ) { return ( Object ) int . class ; }",
    # statements
    "void f ( ) { ; }",
    "void f ( ) { { } { ; } }",
    "void f ( ) { if ( a ) b ( ) ; else c ( ) ; }",
    "void f ( ) { if ( a ) if ( b ) c ( ) ; else d ( ) ; }",
    "void f ( ) { for ( int i = 0 , j = 9 ; i < j ; i ++ , j -- ) { } }",
    "void f ( ) { for ( ; ; ) { break ; } }",
    "void f ( ) { for ( String s : names ) use ( s ) ; }",
    "void f ( ) { while ( true ) { break ; } }",
    "void f ( ) { do { x -- ; } while ( x > 0 ) ; }",
    "int f ( ) { switch ( k ) { case 1 : case 2 : return 1 ; default : return 0 ; } }",
    "int f ( ) { return switch ( k ) { case 0 -> 1 ; default -> 2 ; } ; }",
    "int f ( ) { return switch ( k ) { default : yield 9 ; } ; }",
    "int f ( ) { return switch ( x ) { default : { yield ++ y ; } } ; }",
    "int f ( ) { return switch ( x ) { default : { yield -- y ; } } ; }",
    "void f ( ) { try { g ( ) ; } catch ( Exception e ) { } }",
    "void f ( ) { try { g ( ) ; } catch ( A | B e ) { } finally { h ( ) ; } }",
    "void f ( ) { try ( AutoCloseable c = open ( ) ; AutoCloseable d = open ( ) ) { } catch ( Exception e ) { } }",
    "void f ( ) { synchronized ( lock ) { } }",
    "void f ( ) { throw new RuntimeException ( msg ) ; }",
    "void f ( ) { assert x > 0 ; assert y > 0 : \"why\" ; }",
    "void f ( ) { out : { break out ; } }",
    "void f ( ) { loop : while ( true ) { continue loop ; } }",
    "void f ( ) { var x = 1 ; x += 1 ; }",
    "void f ( ) { new Thread ( ) . start ( ) ; }",
    "void f ( ) { this . g ( ) ; super . g ( ) ; }",
    "void f ( ) { int . class . getName ( ) ; }",
    "void f ( int x ) { switch ( x ) { case 1 , 2 : break ; } }",
    "int f ( int x ) { switch ( x ) { case 1 -> throw new IllegalStateException ( ) ; default -> { return 0 ; } } }",
    "void f ( ) { this . < String > g ( ) ; }",
    "void f ( ) { Object o = new < String > A ( ) ; }",
    # declarations
    "int x = 0 ;",
    "static final double PI2 = 6.28 , TAU = PI2 ;",
    "int [ ] xs = { 1 , 2 , } ;",
    "public MyThing ( int a ) { this . a = a ; }",
    "MyThing ( ) { this ( 0 ) ; }",
    "static { setup ( ) ; }",
    "{ instanceInit ( ) ; }",
    "@ Override public String toString ( ) { return \"\" ; }",
    "void f ( @ Deprecated final int a , int ... rest ) { }",
    "< T extends Comparable < T > > void sort ( java . util . List < T > xs ) { }",
    "java . util . Map < String , java . util . List < Integer > > index ( ) { return null ; }",
    "void f ( ) throws java . io . IOException , RuntimeException { }",
    "abstract int area ( ) ;",
    "native void poke ( ) ;",
    "class Inner { int v ; }",
    "interface Marker { void m ( ) ; }",
    "enum Color { RED , GREEN , BLUE }",
    "enum Op { PLUS { } , MINUS { } ; void apply ( ) { } }",
    "public static final void f ( ) { }",
    "< @ X T > void f ( ) { }",
    "enum E { @ X A , @ Y @ Y B }",
    "class A { @ interface B { int x ( ) default 1 ; } }",
    "enum E implements I , J { A ( 1 ) , B ( 2 ) ; E ( int x ) { } }",
    "class A { A ( ) throws java . io . IOException , RuntimeException { } }",
    "< T extends Number & Comparable < T > > void f ( T t ) { }",
    # generics, lambdas, method references
    "void f ( ) { java . util . List < String > xs = new java . util . ArrayList < > ( ) ; }",
    "void f ( ) { java . util . Map < String , Integer > m = new java . util . HashMap < String , Integer > ( ) ; }",
    "Runnable f ( ) { return ( ) -> { } ; }",
    "Runnable f ( ) { return ( ) -> run ( ) ; }",
    "java . util . function . Function < Integer , Integer > f ( ) { return x -> x + 1 ; }",
    "java . util . function . BiFunction < Integer , Integer , Integer > f ( ) { return ( a , b ) -> a * b ; }",
    "java . util . function . BinaryOperator < Integer > f ( ) { return ( Integer a , Integer b ) -> a - b ; }",
    "Runnable f ( ) { return this :: run ; }",
    "java . util . function . Supplier < Object > f ( ) { return Object :: new ; }",
    "void f ( java . util . List < String > xs ) { xs . sort ( String :: compareTo ) ; }",
    "Comparable < String > f ( ) { return new Comparable < String > ( ) { public int compareTo ( String o ) { return 0 ; } } ; }",
    # an assignment to a name, a field access or an array access, in
    # parentheses or not (JLS 15.26, 15.8.5)
    "void f ( ) { x = y = 1 ; }",
    "void f ( ) { a [ 0 ] += 1 ; }",
    "void f ( ) { this . x = 1 ; }",
    "void f ( ) { A . this . x = 1 ; super . x = 1 ; }",
    "void f ( ) { ( a ) = 1 ; }",
    "void f ( ) { ( ( a . b [ 0 ] ) ) >>>= 2 ; }",
    "void f ( ) { for ( i = 0 , j = 1 ; ; i += 1 ) { } }",
    # type-use annotations (JLS 4.11), intersection casts (15.16) and a
    # variable-arity lambda parameter (15.27.1)
    "void f ( ) { List < @ A String > x = y ; }",
    "void f ( ) { Object o = ( @ A String ) x ; }",
    "int f ( ) { return ( @ A int ) - x ; }",
    "Object f ( ) { return ( A & B ) x ; }",
    "void f ( ) { Runnable r = ( Runnable & java . io . Serializable ) ( ) -> { } ; }",
    "Object f ( ) { return ( int ... a ) -> a ; }",
    "Object f ( ) { return ( final int a , @ A String ... b ) -> a ; }",
]

INVALID_SNIPPETS = [
    "int f ( ) { return 1 ; ",          # missing closing brace
    "int f ( ) return 1 ; }",            # missing opening brace
    "int f ( { return 1 ; }",            # missing closing paren
    "int f ) { return 1 ; }",            # missing opening paren
    "int f ( ) { return 1 }",            # missing semicolon
    "int f ( ) { return ; 1 }",          # statement order broken
    "int = 5 ;",                          # declarator has no name
    "int f ( int , ) { }",                # bare comma params
    "void f ( ) { foo ( a , ) ; }",       # trailing comma in call
    "void f ( ) { if ( ) { } }",          # empty condition
    "void f ( ) { if a ) { } }",          # missing open paren
    "void f ( ) { for ( int i = 0 i < 3 ; i ++ ) { } }",  # missing ;
    "void f ( ) { x = ; }",               # missing rhs
    "void f ( ) { x + ; }",               # dangling operator
    "void f ( ) { ( ) ; }",               # empty parenthesized expr
    "void f ( ) { new ; }",               # new without type
    "void f ( ) { a . ; }",               # dangling member access
    "void f ( ) { arr [ ] = 0 ; }",       # empty index on use
    "class { int x ; }",                   # class without a name
    "void f ( ) { switch ( x ) { case : return ; } }",  # empty case label
    "void f ( ) { try { } }",             # try without catch/finally
    "} int f ( ) { return 1 ; }",         # stray closing brace first
    "int f ( ) { return \"unterminated ; }",  # broken string literal
    "void f ( ) { @ ; }",                 # bare annotation marker
    "int f ( ) { return 1 ; } }",         # extra closing brace
    "Object f ( ) { return ( int ) x -> x ; }",  # primitive cast of a lambda
    "int f ( ) { return ( int [ ] ) - x ; }",    # sign after a reference cast
    # a repeated modifier (JLS 8.3.1, 8.4.3, 4.12.4), and a keyword modifier
    # on a type parameter or enum constant (JLS 8.1.2, 8.9.1)
    "public public void f ( ) { }",
    "class A { static static int x ; }",
    "void f ( final final int x ) { }",
    "void f ( ) { final final int x ; }",
    "void f ( ) { for ( final final int x : xs ) ; }",
    "void f ( ) { try ( final final A a = b ) { } }",
    "< public T > void f ( ) { }",
    "enum E { @ X public A }",
    "void f ( int x ) { switch ( x ) { @ interface A { } } }",  # no declaration in a switch block
    "void f ( int x ) { switch ( x ) { @ interface ; } }",  # its recovery ends at the `;`
    # a for head that looks like a declaration up to where it fails
    "void f ( ) { for ( a . b < 1 > x : y ) ; }",  # a literal as a type argument
    "void f ( ) { for ( @ 1 x : y ) ; }",         # an annotation without a name
    "void f ( ) { for ( @ A ( x : y ; }",         # an annotation left open
    "void f ( ) { for ( A < B >>> x : y ) ; }",   # closes more '<' than are open
    # no dims after a variable-arity parameter's name (JLS 8.4.1)
    "void f ( int ... b [ ] ) { }",
    "Object f ( ) { return ( int ... a [ ] ) -> a ; }",
    "Object f ( ) { return ( int & A ) x ; }",     # a primitive type takes no bound
]

# Assignments to what is no variable (JLS 15.26): each is one error, on
# its operator.
ASSIGNMENTS_TO_NON_VARIABLES = [
    "1 = 2 ;",
    "a + b = c ;",
    "f ( ) = 2 ;",
    "x ++ = 1 ;",
    "A < B >>> x = null ;",
    "( a + b ) = 1 ;",
    "a = b + c -= 1 ;",
    "x . this = 1 ;",
    "A . super = 1 ;",
]
INVALID_SNIPPETS += [f"void f ( ) {{ {stmt} }}" for stmt in ASSIGNMENTS_TO_NON_VARIABLES]


@pytest.mark.parametrize("code", VALID_SNIPPETS)
def test_valid_construct_parses_clean(code):
    verdict = check_syntax(code)
    assert verdict.valid, (code, verdict)


@pytest.mark.parametrize("code", INVALID_SNIPPETS)
def test_broken_construct_is_flagged(code):
    verdict = check_syntax(code)
    assert not verdict.valid, code
    assert verdict.error_count >= 1


@pytest.mark.parametrize("stmt", ASSIGNMENTS_TO_NON_VARIABLES)
def test_an_assignment_to_no_variable_is_one_error_on_its_operator(stmt):
    code = f"void f ( ) {{ {stmt} }}"
    op = [t for t in tokenize(code) if t.text.endswith("=")][-1]
    assert check_syntax(code).error_spans == ((op.start, op.end),), code


NESTED_CLOSERS = [
    ([">>"], "java . util . Map < String , java . util . List < Integer >> m = null ;"),
    ([">>"], "void f ( ) { java . util . Map < String , java . util . List < Integer >> m = null ; }"),
    ([">>>"], "void f ( ) { A < B < C < D >>> x = null ; }"),
    ([">", ">"], "java . util . Map < String , java . util . List < Integer > > m = null ;"),
    ([">", ">"], "void f ( ) { java . util . Map < String , java . util . List < Integer > > m = null ; }"),
    ([">", ">", ">"], "A < B < C < D > > > x = null ;"),
]


def test_nested_generic_closers_split_correctly():
    # One `>>` or `>>>` token closes two or three type-argument lists, one
    # `>` split off per list; the spaced form is one token per list. Either
    # way the text declares a variable, not an expression.
    for closers, code in NESTED_CLOSERS:
        assert [t.text for t in tokenize(code) if t.text.startswith(">")] == closers
        assert check_syntax(code).valid, code
        kinds = {n.kind for n in parse_java(code).walk()}
        assert kinds & {"field_declaration", "local_variable_declaration"}, code


def test_type_arguments_open_at_the_end_of_input_are_an_expression():
    # The declaration trial runs out of tokens inside `< x`, so the for
    # head is parsed as the expression `List < x`, with its closers missing.
    tree = parse_java("class A { void f ( ) { for ( List < x")
    assert "binary_expression" in {n.kind for n in tree.walk()}
    assert error_nodes(tree)


def test_nodes_are_equal_node_for_node_and_print_without_their_children():
    tree = parse_java("class A { int x ; }")
    assert tree == parse_java("class A { int x ; }")
    assert tree != parse_java("class A { int y ; }")
    assert tree.__eq__(tree.sexp()) is NotImplemented
    with pytest.raises(TypeError):
        hash(tree)
    assert repr(tree) == "Node('compilation_unit', 0, 19, 1 children)"
    assert repr(Node(";", 3, 4, text=";")) == "Node(';', 3, 4, 0 children)"


def test_dollar_signs_are_legal_identifier_characters():
    assert check_syntax("int f ( ) { return $$$ ; }").valid
    assert check_syntax("int $ = 0 ;").valid


def test_error_nodes_cover_the_broken_region():
    src = "int f ( ) { return ### ; }"
    tree = parse_java(src)
    spans = [(n.start, n.end) for n in error_nodes(tree)]
    assert spans, "expected at least one error node"
    lo = src.index("###")
    covered = {i for s, e in spans for i in range(s, e)}
    assert set(range(lo, lo + 3)) <= covered, (spans, lo)


def test_error_nodes_are_the_error_kinds_of_walk_in_order(valid_methods, broken_methods,
                                                          flagged_constructs):
    # `_verdict` sorts the spans, so no verdict depends on this order; the
    # docstring of `error_nodes` promises the pre-order of `walk`.
    codes = [*CUT_INPUTS, *fixture_codes(valid_methods, broken_methods, flagged_constructs)]
    rng = random.Random(7)
    codes += [" ".join(rng.choice(SOUP_ATOMS) for _ in range(rng.randint(0, 40)))
              for _ in range(300)]
    for code in codes:
        tree = parse_java(code)
        assert tree.error_nodes() == [n for n in tree.walk() if n.is_error], code
    leaf = next(n for n in parse_java("#").walk() if n.is_error)
    assert leaf.error_nodes() == [leaf]


# A local declaration's `abstract` or `strictfp` is made an ERROR leaf
# only once no `class` follows: after the errors inside the modifiers
# behind it were recorded.
LATE_MODIFIER_ERRORS = [
    f"void f ( ) {{ {stmt} }}"
    for stmt in ("final abstract abstract int x ;",
                 "final abstract @ A ( x , ) int x ;",
                 "@ A ( # ) strictfp abstract strictfp int x = 1 ;",
                 "final strictfp @ [ int x ;")
]


def test_parse_java_appends_to_the_errors_it_is_given():
    # A cut drops only what this parse recorded, and the record changes no
    # tree. The record holds the nodes of error_nodes(), in the order made.
    for src in (*CUT_INPUTS, *LATE_MODIFIER_ERRORS,
                "class A { int f ( ) { final abstract int x ; }"):
        earlier = Node(ERROR, 0, 0)
        errors = [earlier]
        tree = parse_java(src, errors)
        assert errors[0] is earlier, src
        assert sorted(map(id, errors[1:])) == sorted(map(id, tree.error_nodes())), src
        assert tree == parse_java(src)


def test_a_rejected_trial_leaves_no_trace(monkeypatch, valid_methods, broken_methods,
                                          flagged_constructs, abstraction_methods):
    # The parser's error record is the tree's own only because a rewind
    # drops every error the trial recorded, and a rule after it must see
    # the tokens the lexer gave, not a `>` the trial split off `>>`.
    real = JavaParser._trial
    rejected = []

    def checked(parser, rule, fits):
        assert parser._skipped is None  # no trial runs inside another
        before = (parser.i, list(parser.errors), list(parser.toks))
        result = real(parser, rule, fits)
        if result is None:
            rejected.append(rule.__name__)
            assert (parser.i, parser.errors, parser.toks) == before, rule.__name__
        return result

    monkeypatch.setattr(JavaParser, "_trial", checked)
    codes = fixture_codes(valid_methods, broken_methods, flagged_constructs,
                          abstraction_methods)
    for code in [*codes, SPLIT_THEN_REJECTED]:
        parser = JavaParser(code)
        toks = list(parser.toks)
        # Every token; the last two are the EOF and its padding copy.
        for i in range(len(toks) - 2):
            parser.i, errors = i, list(parser.errors)
            parser._yield_statement_ahead()  # the one lookahead that is no trial
            assert (parser.i, parser.errors) == (i, errors)
            for rule in (JavaParser.parse_statement, JavaParser.parse_expression):
                parser.toks, parser.i = list(toks), i
                rule(parser)
    assert set(rejected) == {"_parse_declaration_head", "_parse_cast_head",
                             "_parse_lambda_parameters"}


# The declaration trial at `a` splits `>>` to close `b < c`, then finds
# `1`, not a name: the statement is an expression.
SPLIT_THEN_REJECTED = "void f ( ) { a < b < c >> 1 ; }"


def test_a_rejected_trial_puts_back_the_closer_it_split():
    parser = JavaParser(SPLIT_THEN_REJECTED)
    tree = parser.parse()
    assert parser.toks[:-1] == tokenize(SPLIT_THEN_REJECTED)
    assert parser.errors == []
    assert "local_variable_declaration" not in {n.kind for n in tree.walk()}


def _nodes_made(monkeypatch, code):
    """How many nodes the parse of ``code`` makes, kept or rewound."""
    made = 0
    init = Node.__init__

    def counting(node, *args, **kwargs):
        nonlocal made
        made += 1
        init(node, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Node, "__init__", counting)
        verdict = check_syntax(code)
    assert not verdict.limit_exceeded, code
    return made, verdict.valid


def _nest(outer, inner, n):
    """``inner`` inside ``n`` copies of ``outer``, whose `{}` marks the hole."""
    for _ in range(n):
        inner = outer.format(inner)
    return inner


def in_body(stmt):
    return "void f ( ) { " + stmt + " }"


# Trials inside an annotation's arguments inside a trial's head, nested:
# (context, one level, innermost filler, valid). A trial that parsed its
# head's annotation arguments, and was then rejected or parsed again,
# would parse each level's inner levels twice.
NESTED_TRIALS = {
    "casts": (returning, "( A < @ B ( {} ) C > ) x", "x", True),
    "rejected_casts": (returning, "( A < @ B ( {} ) C > ) - x", "x", False),
    "lambda_heads": (returning, "( R ) ( @ A ( {} ) int x ) -> x", "x", True),
    "rejected_lambda_heads": (returning, "( R ) ( @ A ( {} ) int x ) + x", "x", False),
    "annotated_declarations": (
        in_body, "for ( @ A ( new B ( ) {{ void g ( ) {{ {} }} }} ) int x : xs ) ;", ";", True),
    "rejected_annotated_declarations": (
        in_body, "for ( @ A ( new B ( ) {{ void g ( ) {{ {} }} }} ) int x 1 ) ;", ";", False),
}


@pytest.mark.parametrize("name", sorted(NESTED_TRIALS))
def test_nested_trials_parse_in_linear_time(monkeypatch, name):
    context, outer, filler, valid = NESTED_TRIALS[name]
    small, large = (_nodes_made(monkeypatch, context(_nest(outer, filler, n))) for n in (5, 20))
    assert small[1] == large[1] == valid
    assert large[0] <= 4 * small[0], (small, large)


def test_a_member_takes_a_token_wherever_it_starts(valid_methods, broken_methods,
                                                   flagged_constructs, abstraction_methods):
    # The top level and a class body loop on `_parse_member` with no guard
    # of their own, so a member must take at least one token from any
    # position but the end, whatever stands there.
    rng = random.Random(35)
    codes = fixture_codes(valid_methods, broken_methods, flagged_constructs,
                          abstraction_methods)
    codes += [" ".join(rng.choice(SOUP_ATOMS) for _ in range(rng.randint(1, 40)))
              for _ in range(300)]
    for code in codes:
        parser = JavaParser(code)
        toks = list(parser.toks)
        # Every token but the EOF and its padding copy.
        for i in range(len(toks) - 2):
            # A member may split a `>>` token; each start sees the lexer's.
            parser.toks, parser.i = list(toks), i
            parser._parse_member()
            assert parser.i > i, (code, i)


def test_missing_nodes_are_zero_width():
    src = "int f ( ) { return 1 }"  # missing semicolon
    tree = parse_java(src)
    missing = [n for n in tree.walk() if n.kind == MISSING]
    assert missing
    for node in missing:
        assert node.start == node.end


# ----------------------------------------------------------------------
# declaration heads: `{final | annotation} Type name` (JLS 14.4, 14.14,
# 14.20.3) is one rule, shared by statements, for heads and resources

HEAD_MODIFIERS = ["", "final ", "@ A ", "@ A ( 1 ) ", "@ a . B ( { 1 , 2 } ) ",
                  "final @ A ( x = 1 ) "]
HEAD_TYPES = ["int ", "int [ ] ", "Map . Entry < K , V > ", "var ", "List < ? extends T > [ ] "]
MEMBER_ONLY_MODIFIERS = ["static ", "public ", "final static ", "@ A static ", "abstract "]
HEAD_CONTEXTS = {
    "statement": "void f ( ) {{ {head}x = y ; }}",
    "for_init": "void f ( ) {{ for ( {head}x = y ; ; ) ; }}",
    "enhanced_for": "void f ( ) {{ for ( {head}x : xs ) ; }}",
    "resource": "void f ( ) {{ try ( {head}x = y ) {{ }} }}",
}


@pytest.mark.parametrize("context", sorted(HEAD_CONTEXTS))
@pytest.mark.parametrize("modifiers", HEAD_MODIFIERS)
def test_declaration_head_is_valid_in_every_context(context, modifiers):
    for type_ in HEAD_TYPES:
        code = HEAD_CONTEXTS[context].format(head=modifiers + type_)
        assert check_syntax(code).valid, code


@pytest.mark.parametrize("context", ["for_init", "enhanced_for", "resource"])
@pytest.mark.parametrize("modifiers", MEMBER_ONLY_MODIFIERS)
def test_member_modifier_is_no_for_or_resource_head(context, modifiers):
    for type_ in HEAD_TYPES:
        code = HEAD_CONTEXTS[context].format(head=modifiers + type_)
        assert not check_syntax(code).valid, code


def test_local_class_is_no_for_initializer():
    assert not check_syntax("void f ( ) { for ( final class A { } ; ; ) ; }").valid


@pytest.mark.parametrize("code", [
    "void f ( ) { abstract class A { } }",
    "void f ( ) { strictfp class A { } }",
    "void f ( ) { abstract strictfp class A < T > extends B { } }",
    "void f ( ) { switch ( k ) { default : abstract class A { } } }",
    "void f ( ) { abstract @ A final class B { } }",
])
def test_abstract_or_strictfp_starts_a_local_class(code):
    # JLS 14.3: a local class takes the class modifiers abstract and strictfp.
    assert check_syntax(code).valid


@pytest.mark.parametrize("code", [
    "void f ( ) { abstract enum E { A } }",
    "void f ( ) { abstract interface I { } }",
    "void f ( ) { abstract @ interface A { } }",
    "void f ( ) { strictfp enum E { A } }",
    "void f ( ) { abstract static class A { } }",
    "void f ( ) { strictfp public class A { } }",
    "void f ( ) { abstract @ A private class B { } }",
])
def test_local_class_takes_local_class_modifiers_only_and_is_a_class(code):
    # JLS 14.3: after abstract, final, strictfp and annotations, a local
    # declaration must be a class.
    assert not check_syntax(code).valid


@pytest.mark.parametrize("code", [
    "void f ( ) { abstract int x ; }",
    "void f ( ) { abstract ; }",
    "void f ( ) { strictfp int x = 0 ; }",
    "void f ( ) { abstract }",
])
def test_abstract_or_strictfp_starts_no_other_statement(code):
    assert not check_syntax(code).valid


@pytest.mark.parametrize("code", [
    "final static int x = 0 ;",
    "final static class A { }",
    "@ A public int x ;",
    "@ A static class B { }",
    "final abstract int x ;",
])
def test_local_declaration_takes_no_member_modifier(code):
    # JLS 14.3, 14.4: after `final` or an annotation, a local class takes
    # the local-class modifiers, and a local variable `final` alone.
    assert not check_syntax(f"void f ( ) {{ {code} }}").valid


@pytest.mark.parametrize("code", [
    "final int x = 0 ;",
    "@ A final int x ;",
    "@ A int x , y = 1 ;",
    "final class A { }",
    "@ A abstract class B { }",
    "final strictfp class C { }",
])
def test_local_declaration_takes_its_own_modifiers(code):
    assert check_syntax(f"void f ( ) {{ {code} }}").valid


@pytest.mark.parametrize("code", [
    "void f ( static int x ) { }",
    "void f ( int a , public int x ) { }",
    "void f ( final static int x ) { }",
    "void f ( ) { try { } catch ( static E e ) { } }",
    "void f ( ) { try { } catch ( @ A private E e ) { } }",
    "Object f ( ) { return ( public int x ) -> x ; }",
    "Object f ( ) { return ( final volatile int x , int y ) -> x ; }",
])
def test_parameter_takes_no_member_modifier(code):
    # JLS 8.4.1, 14.20, 15.27.1: a formal, catch or lambda parameter takes
    # `final` and annotations only.
    assert not check_syntax(code).valid


@pytest.mark.parametrize("code", [
    "void f ( final int x , @ A int y , final @ A ( 1 ) int ... z ) { }",
    "void f ( ) { try { } catch ( final @ A E | F e ) { } }",
    "Object f ( ) { return ( final int x , @ A int y ) -> x ; }",
])
def test_parameter_takes_final_and_annotations(code):
    assert check_syntax(code).valid


def test_resource_that_is_no_declaration_holds_its_modifier_once():
    src = "void f ( ) { try ( final r ) { } }"
    start = src.index("final")
    spans = [n for n in parse_java(src).walk() if (n.start, n.end) == (start, start + 5)]
    assert [n.kind for n in spans] == ["final"]


# Deleting one `,` from a list of a grammatical row leaves legal Java only
# where the two elements read as one: a lambda parameter `b` of type `a`.
LEGAL_AFTER_A_DELETED_COMMA = {"ok-026": "return ( a  b ) -> a + b"}


def test_deleting_a_separator_from_a_valid_row_makes_it_invalid(valid_methods,
                                                                 abstraction_methods):
    mutants = 0
    legal = {}
    for row in valid_methods + abstraction_methods:
        code = row["code"]
        toks = tokenize(code)
        for tok, nxt in zip(toks, toks[1:]):
            if tok.text == "," and nxt.text not in ("}", ";"):
                mutant = code[:tok.start] + code[tok.end:]
                mutants += 1
                if check_syntax(mutant).valid:
                    legal[row["id"]] = mutant
    assert mutants == 25
    assert legal.keys() == LEGAL_AFTER_A_DELETED_COMMA.keys()
    for row_id, text in LEGAL_AFTER_A_DELETED_COMMA.items():
        assert text in legal[row_id]


def test_nested_annotated_resources_parse_in_linear_time():
    # A trial skips the head's annotation arguments. Parsing them in the
    # trial, then again, would double the work at every level of this nest.
    code = "void f ( ) { " + "try ( @ A ( ( R ) ( ) -> { " * 40 + "} ) R r = g ( ) ) { } " * 40 + "}"
    start = time.monotonic()
    assert check_syntax(code).valid
    assert time.monotonic() - start < 2.0


# ----------------------------------------------------------------------
# one table per decision: the texts that start an expression feed casts,
# `yield` and the statement rules, and recovery stops where a statement
# rule applies

@pytest.mark.parametrize("code", [
    "int f ( ) { return ( a ) + b ; }",
    "int f ( ) { return ( a ) - b ; }",
    "int f ( ) { return ( int ) + b ; }",
    "int f ( ) { return ( int ) - - b ; }",
])
def test_only_a_primitive_cast_takes_a_sign(code):
    # `( a ) + b` is a sum: a reference type takes no sign operator
    # before its operand (JLS 15.16).
    tree = parse_java(code)
    casts = [n for n in tree.walk() if n.kind == "cast_expression"]
    assert check_syntax(code).valid
    assert len(casts) == ("( int )" in code)


@pytest.mark.parametrize("op", ["++", "--"])
def test_yield_before_a_semicolon_is_the_variable(op):
    # As in javac, `yield ++ ;` updates a variable named `yield`.
    code = f"void f ( ) {{ yield {op} ; }}"
    tree = parse_java(code)
    assert check_syntax(code).valid
    assert "yield_statement" not in {n.kind for n in tree.walk()}


# Every keyword and operator text, and one token of each other kind:
# identifier, number, string, char, BAD and EOF.
TOKEN_PROBES = sorted(KEYWORDS) + _OPERATORS + ["x", "1", '"s"', "'c'", "#", ""]


@pytest.mark.parametrize("text", TOKEN_PROBES)
def test_recovery_stops_exactly_where_a_statement_rule_applies(text):
    parser = JavaParser(text)
    assert parser._stmt_start() == (parser.parse_statement().kind != ERROR), text


@pytest.mark.parametrize("text", [t for t in TOKEN_PROBES if t != "#"])
def test_an_expression_starts_exactly_where_the_table_says(text):
    # A BAD token is left out: it becomes an ERROR leaf, not a MISSING one.
    parser = JavaParser(text)
    tok = parser.toks[0]
    starts = tok.kind in _OPERAND_KINDS or tok.text in _EXPRESSION_START
    leaf = parser._parse_unary()
    while leaf.children:
        leaf = leaf.children[0]
    assert (leaf.kind == MISSING and leaf.text == "expression") == (not starts), text


# ----------------------------------------------------------------------
# a repeated keyword modifier is one ERROR leaf over the repeat (JLS
# 8.3.1, 8.4.3, 4.12.4)

def test_a_repeated_modifier_is_an_error_over_the_repeat():
    assert check_syntax("void f ( final final int x ) { }").error_spans == ((15, 20),)


def test_runaway_modifiers_are_one_error_each_in_linear_time():
    start = time.monotonic()
    verdict = check_syntax("public " * 10_000 + "void f ( ) { }")
    assert time.monotonic() - start < 2.0
    assert not verdict.valid
    assert verdict.error_count == 9_999


def test_record_equality_script_passes_and_names_a_difference(monkeypatch, capsys):
    import parse_record_equality as script

    assert script.main(["--count", "300", "--seed", "3"]) == 0
    real = script.parse_java

    def lossy(src, errors):  # a record that loses its last node
        tree = real(src, errors)
        del errors[-1:]
        return tree

    monkeypatch.setattr(script, "parse_java", lossy)
    assert script.main(["--count", "300", "--seed", "3"]) == 1
    assert "differs on" in capsys.readouterr().out
