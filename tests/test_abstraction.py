"""Identifier abstraction: placeholders, mapping invariants, conformance,
the occurrence walk against the one kept in ``reference_occurrences``,
and the parse's recorded error nodes against ``Node.error_nodes``."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repairdx.abstraction import (
    JAVA_LANG_NAMES,
    PLACEHOLDER_RE,
    AbstractionMapping,
    AbstractionReport,
    UnparseableCodeError,
    Violation,
    abstract_identifiers,
    _identifier_occurrences,
    check_conformance,
)
from repairdx.errors import InputError
from repairdx.javaparse import ERROR, LIMIT, Node, parse_java
from repairdx.syntax import check_syntax, wrap_method

from reference_occurrences import identifier_occurrences as reference_occurrences


# ----------------------------------------------------------------------
# abstract_identifiers


def test_numbering_follows_first_occurrence():
    out, mapping = abstract_identifiers("int count = obj . get ( x ) ;")
    assert out == "int VAR_1 = VAR_2 . METHOD_1 ( VAR_3 ) ;"
    assert mapping.variables == [("count", "VAR_1"), ("obj", "VAR_2"), ("x", "VAR_3")]
    assert mapping.methods == [("get", "METHOD_1")]
    assert mapping.types == []


def test_repeated_identifier_maps_to_one_placeholder():
    out, mapping = abstract_identifiers("int total = total + total ;")
    assert out == "int VAR_1 = VAR_1 + VAR_1 ;"
    assert mapping.variables == [("total", "VAR_1")]


def test_keywords_primitives_and_literals_are_untouched():
    out, _ = abstract_identifiers(
        'boolean flag ( ) { return true && 0 < 1 || "s" . isEmpty ( ) ; }'
    )
    for kept in ("boolean", "return", "true", "0", "1", '"s"'):
        assert kept in out, (kept, out)


def test_already_abstracted_code_is_renumbered_canonically():
    out, _ = abstract_identifiers("int VAR_5 = VAR_1 . METHOD_2 ( VAR_4 ) ;")
    assert out == "int VAR_1 = VAR_2 . METHOD_1 ( VAR_3 ) ;"


def test_canonical_input_is_a_fixed_point():
    canonical = "int VAR_1 = VAR_2 . METHOD_1 ( VAR_3 ) ;"
    out, _ = abstract_identifiers(canonical)
    assert out == canonical


def test_zero_indexed_placeholder_is_treated_as_concrete():
    out, _ = abstract_identifiers("int VAR_0 = 0 ;")
    assert out == "int VAR_1 = 0 ;"


def test_empty_input_is_an_input_error():
    with pytest.raises(InputError):
        abstract_identifiers("")


def test_unparseable_input_error_carries_the_verdict():
    with pytest.raises(UnparseableCodeError) as exc_info:
        abstract_identifiers("int f ( { return ; }")
    verdict = exc_info.value.verdict
    assert not verdict.valid and verdict.error_count >= 1
    assert isinstance(exc_info.value, InputError)


def test_code_past_the_nesting_limit_names_the_limit_and_where():
    code = "Object f ( ) { return " + "( " * 2000 + "a" + " )" * 2000 + " ; }"
    with pytest.raises(UnparseableCodeError) as exc_info:
        abstract_identifiers(code)
    verdict = exc_info.value.verdict
    assert verdict == check_syntax(code) and verdict.limit_exceeded
    where = verdict.error_spans[0][0]
    assert code[where] == "("  # the guard fired inside the nest
    assert str(exc_info.value) == (
        "cannot abstract code nested past the parser's nesting limit "
        f"(parse stopped at offset {where})"
    )


def test_fragment_that_closes_the_wrapper_is_not_abstracted():
    code = "} class X { int y ; "
    with pytest.raises(UnparseableCodeError) as exc_info:
        abstract_identifiers(code)
    assert exc_info.value.verdict == check_syntax(code)
    assert not exc_info.value.verdict.valid


def _fragments(*row_sets):
    return [row["code"] for rows in row_sets for row in rows] + ["  \n\t "]


def _verdict_acted_on(code):
    try:
        abstract_identifiers(code)
    except UnparseableCodeError as exc:
        return exc.verdict
    return None  # went ahead: the verdict it acted on was valid


def test_verdict_acted_on_is_check_syntax(valid_methods, broken_methods,
                                          abstraction_methods):
    codes = _fragments(valid_methods, broken_methods, abstraction_methods)
    for code in codes:
        expected = check_syntax(code)
        acted_on = _verdict_acted_on(code)
        if expected.valid:
            assert acted_on is None, code
        else:
            assert acted_on == expected, code


def test_builtin_parser_runs_once_per_fragment(monkeypatch, valid_methods,
                                              broken_methods, abstraction_methods):
    import repairdx.abstraction
    import repairdx.bindings

    calls = []

    def counting(original):
        def parse_java(text, errors=None):
            calls.append(text)
            return original(text, errors)
        return parse_java

    for module in (repairdx.abstraction, repairdx.bindings):
        monkeypatch.setattr(module, "parse_java", counting(module.parse_java))
    codes = _fragments(valid_methods, broken_methods, abstraction_methods)
    for code in codes:
        calls.clear()
        _verdict_acted_on(code)
        assert len(calls) == (1 if code.strip() else 0), code


def test_error_nodes_is_never_called_by_abstraction(
        monkeypatch, valid_methods, broken_methods, flagged_constructs, abstraction_methods):
    # The parse records the verdict's error nodes as it makes them, so
    # neither verdict walks the tree to find them again.
    calls = []

    def counted(name):
        original = getattr(Node, name)

        def method(node):
            calls.append((name, node))
            return original(node)
        return method

    for name in ("error_nodes", "walk"):
        monkeypatch.setattr(Node, name, counted(name))
    codes = _fragments(valid_methods, broken_methods, flagged_constructs, abstraction_methods)
    for code in codes:
        _verdict_acted_on(code)
        check_syntax(code)
        assert calls == [], code
    parse_java("class A { int x = ; }").error_nodes()
    # the counter sees a walk when one is made
    assert [name for name, _node in calls] == ["error_nodes", "walk"]


def test_tokenize_runs_once_per_abstraction_and_per_conformance_check(
        monkeypatch, valid_methods, broken_methods, abstraction_methods):
    # Counted through the two names the benchmark's tracer wraps, so that a
    # change that stops calling either cannot leave a traced layer at zero.
    import repairdx.abstraction
    import repairdx.javaparse.parser

    calls = []

    def counting(module):
        original = module.tokenize

        def tokenize(text):
            calls.append(module.__name__)
            return original(text)
        return tokenize

    for module in (repairdx.abstraction, repairdx.javaparse.parser):
        monkeypatch.setattr(module, "tokenize", counting(module))
    for code in _fragments(valid_methods, broken_methods, abstraction_methods):
        calls.clear()
        _verdict_acted_on(code)
        assert calls == (["repairdx.javaparse.parser"] if code.strip() else []), code
        calls.clear()
        check_conformance(code)
        assert calls == ["repairdx.abstraction"], code


def test_types_get_type_placeholders():
    out, mapping = abstract_identifiers(
        "MyThing build ( MyConfig cfg ) { return new MyThing ( cfg ) ; }"
    )
    originals = [orig for orig, _ph in mapping.types]
    assert "MyThing" in originals and "MyConfig" in originals
    assert "TYPE_1" in out


def test_java_lang_names_stay_concrete():
    out, mapping = abstract_identifiers(
        "String render ( Object o ) { return String . valueOf ( o ) ; }"
    )
    assert "String" in out and "Object" in out
    abstracted = {orig for orig, _ in mapping.variables + mapping.methods + mapping.types}
    assert "String" not in abstracted and "Object" not in abstracted
    assert {"String", "Object", "System", "Exception"} <= JAVA_LANG_NAMES


def test_mapping_invariants_hold(abstraction_methods):
    for row in abstraction_methods:
        _out, mapping = abstract_identifiers(row["code"])
        for pairs, prefix in (
            (mapping.variables, "VAR"),
            (mapping.methods, "METHOD"),
            (mapping.types, "TYPE"),
        ):
            originals = [orig for orig, _ in pairs]
            placeholders = [ph for _, ph in pairs]
            assert len(set(originals)) == len(originals), row["id"]
            assert placeholders == [f"{prefix}_{i}" for i in range(1, len(pairs) + 1)], row["id"]


def test_abstraction_is_idempotent(abstraction_methods):
    for row in abstraction_methods:
        once, _ = abstract_identifiers(row["code"])
        twice, _ = abstract_identifiers(once)
        assert once == twice, row["id"]


def test_abstraction_preserves_syntax_validity(abstraction_methods):
    for row in abstraction_methods:
        once, _ = abstract_identifiers(row["code"])
        assert check_syntax(once).valid, (row["id"], once)


def test_abstracted_output_is_conformant(abstraction_methods):
    for row in abstraction_methods:
        once, _ = abstract_identifiers(row["code"])
        report = check_conformance(once)
        assert report.conformant, (row["id"], report.violations)


def test_identifier_renaming_collapses_to_identical_output():
    # the whole point of the scheme: names carry no signal afterwards
    a = "int count = obj . get ( x ) ;"
    b = "int total = row . fetch ( key ) ;"
    assert abstract_identifiers(a)[0] == abstract_identifiers(b)[0]


def test_var_pseudo_keyword_is_not_abstracted():
    out, _ = abstract_identifiers("void f ( ) { var nine = 9 ; use ( nine ) ; }")
    assert "var " in out
    assert "nine" not in out


# ----------------------------------------------------------------------
# check_conformance


def test_conformant_with_index_gaps_by_default():
    report = check_conformance("int VAR_5 = VAR_1 . METHOD_2 ( VAR_4 ) ;")
    assert report.conformant
    assert isinstance(report, AbstractionReport)


def test_strict_gaps_flags_missing_indices():
    report = check_conformance("int VAR_5 = VAR_1 . METHOD_2 ( VAR_4 ) ;", strict_gaps=True)
    assert not report.conformant
    assert any("gap" in v.message for v in report.violations)


def test_concrete_identifier_is_a_violation():
    report = check_conformance("int studentCount = 0 ;")
    assert not report.conformant
    assert any("studentCount" in v.message for v in report.violations)
    span = report.violations[0].span
    assert "int studentCount = 0 ;"[span[0]:span[1]] == "studentCount"


def test_zero_index_is_a_violation():
    report = check_conformance("int VAR_0 = 0 ;")
    assert not report.conformant
    assert any("start at 1" in v.message for v in report.violations)


def test_malformed_placeholder_suffix_is_a_violation():
    report = check_conformance("int VAR_01 = VAR_x ;")
    assert not report.conformant
    assert len(report.violations) == 2


@pytest.mark.parametrize("name, message", [
    ("VAR_01", "malformed placeholder index in 'VAR_01'"),
    ("TYPE_x", "malformed placeholder index in 'TYPE_x'"),
    ("VAR_0", "placeholder 'VAR_0' has index 0; indices start at 1"),
    ("Foo", "concrete identifier 'Foo'"),
    ("VARx", "concrete identifier 'VARx'"),
])
def test_each_identifier_violation_has_its_message(name, message):
    report = check_conformance(f"int {name} = 0 ;")
    assert report.violations == [Violation((4, 4 + len(name)), message)]


def test_unrecognized_text_is_a_violation_over_its_span():
    report = check_conformance("int VAR_1 = # ;")
    assert report.violations == [Violation((12, 13), "unrecognized text '#'")]


def test_keywords_and_literals_are_not_violations():
    report = check_conformance("if ( true ) { return 0 ; }")
    assert report.conformant


def test_violations_are_ordered_by_position():
    report = check_conformance("alpha beta gamma")
    spans = [v.span for v in report.violations]
    assert spans == sorted(spans)


def test_placeholder_pattern_is_anchored():
    assert PLACEHOLDER_RE.match("VAR_1")
    assert PLACEHOLDER_RE.match("METHOD_12")
    assert PLACEHOLDER_RE.match("TYPE_3")
    assert not PLACEHOLDER_RE.match("VAR_1x")
    assert not PLACEHOLDER_RE.match("XVAR_1")
    assert not PLACEHOLDER_RE.match("VAR_01")
    assert not PLACEHOLDER_RE.match("VAR_")


def test_mapping_serializes_to_plain_objects():
    _out, mapping = abstract_identifiers("int count = obj . get ( x ) ;")
    obj = mapping.to_obj()
    assert obj["variables"] == [["count", "VAR_1"], ["obj", "VAR_2"], ["x", "VAR_3"]]
    assert obj["methods"] == [["get", "METHOD_1"]]
    assert obj["types"] == []
    assert isinstance(mapping, AbstractionMapping)
    merged = mapping.as_dict()
    assert merged["count"] == "VAR_1" and merged["get"] == "METHOD_1"
    assert repr(mapping) == (
        "AbstractionMapping(variables=[('count', 'VAR_1'), ('obj', 'VAR_2'), "
        "('x', 'VAR_3')], methods=[('get', 'METHOD_1')], types=[])"
    )
    assert repr(AbstractionReport()) == "AbstractionReport(violations=[])"


def test_conformance_after_abstraction_holds_for_every_parseable_input(valid_methods):
    # stronger sweep than the dedicated 20-method fixture
    failures = []
    for row in valid_methods:
        out, _ = abstract_identifiers(row["code"])
        if not check_conformance(out).conformant:
            failures.append(row["id"])
    assert failures == []


def test_fragment_ending_in_a_line_comment_abstracts():
    code = "int g ( int x ) { return x ; } // returns x"
    abstracted, mapping = abstract_identifiers(code)
    assert abstracted == "int METHOD_1 ( int VAR_1 ) { return VAR_1 ; } // returns x"
    assert mapping.to_obj()["variables"] == [["x", "VAR_1"]]
    assert check_conformance(abstracted).conformant


# ----------------------------------------------------------------------
# identifier roles, one test per rule


def _abstract(code):
    out, mapping = abstract_identifiers(code)
    return out, mapping.to_obj()


def test_annotation_name_is_a_type():
    out, mapping = _abstract("@ Marker void f ( ) { }")
    assert out == "@ TYPE_1 void METHOD_1 ( ) { }"
    assert mapping["types"] == [["Marker", "TYPE_1"]]


def test_type_parameter_is_a_type():
    out, _ = _abstract("< T > T id ( T x ) { return x ; }")
    assert out == "< TYPE_1 > TYPE_1 METHOD_1 ( TYPE_1 VAR_1 ) { return VAR_1 ; }"


def test_declared_type_name_is_a_type():
    out, _ = _abstract("void f ( ) { class Local { int n ; } }")
    assert out == "void METHOD_1 ( ) { class TYPE_1 { int VAR_1 ; } }"


def test_constructor_name_is_a_type():
    out, _ = _abstract("Widget ( int size ) { this . size = size ; }")
    assert out == "TYPE_1 ( int VAR_1 ) { this . VAR_1 = VAR_1 ; }"


def test_method_declaration_name_is_a_method():
    out, _ = _abstract("int compute ( int n ) { return n ; }")
    assert out == "int METHOD_1 ( int VAR_1 ) { return VAR_1 ; }"


def test_invocation_name_is_a_method_and_a_field_stays_a_variable():
    out, _ = _abstract("void f ( ) { run ( ) ; obj . go ( ) ; obj . field = 0 ; }")
    assert out == "void METHOD_1 ( ) { METHOD_2 ( ) ; VAR_1 . METHOD_3 ( ) ; VAR_1 . VAR_2 = 0 ; }"


def test_method_reference_name_after_the_colons_is_a_method():
    out, _ = _abstract("void f ( ) { items . forEach ( out :: println ) ; }")
    assert out == "void METHOD_1 ( ) { VAR_1 . METHOD_2 ( VAR_2 :: METHOD_3 ) ; }"
    # Type arguments may sit between `::` and the name.
    out, _ = _abstract("void f ( ) { Runnable r = maker :: < T > make ; }")
    assert out == "void METHOD_1 ( ) { Runnable VAR_1 = VAR_2 :: < TYPE_1 > METHOD_2 ; }"


def test_class_literal_receiver_chain_is_all_types():
    out, _ = _abstract("Object f ( ) { return a . b . C . class ; }")
    assert out == "Object METHOD_1 ( ) { return TYPE_1 . TYPE_2 . TYPE_3 . class ; }"


def test_strongest_role_wins_across_positions():
    # method over variable, whichever comes first
    out, _ = _abstract("void f ( ) { int g = 0 ; g ( ) ; }")
    assert out == "void METHOD_1 ( ) { int METHOD_2 = 0 ; METHOD_2 ( ) ; }"
    # type over method
    out, _ = _abstract("void f ( ) { Node ( ) ; Node n = null ; }")
    assert out == "void METHOD_1 ( ) { TYPE_1 ( ) ; TYPE_1 VAR_1 = null ; }"


# ----------------------------------------------------------------------
# the occurrence walk against its frozen reference, and the parse's
# recorded error nodes against Node.error_nodes


def _one_walk(src):
    """The tree of ``src``, its walk's occurrences and the error nodes its
    parse recorded, once it is checked that the occurrences come in source
    order, that the record holds exactly the nodes of ``tree.error_nodes()``,
    and that asking for the record changes no tree."""
    errors = []
    tree = parse_java(src, errors)
    assert tree == parse_java(src)
    occurrences = _identifier_occurrences(tree)
    starts = [start for start, _end, _text, _cat in occurrences]
    assert all(a < b for a, b in zip(starts, starts[1:])), starts
    assert sorted(map(id, errors)) == sorted(map(id, tree.error_nodes())), src
    return tree, occurrences, errors


def _occurrences_both_ways(src):
    tree, ours, _errors = _one_walk(src)
    return ours, sorted(reference_occurrences(tree), key=lambda occurrence: occurrence[0])


def test_occurrences_match_the_frozen_walk_on_fixtures(
        valid_methods, broken_methods, flagged_constructs, abstraction_methods):
    rows = [*valid_methods, *broken_methods, *flagged_constructs, *abstraction_methods]
    for row in rows:
        for src in (row["code"], wrap_method(row["code"])):
            ours, reference = _occurrences_both_ways(src)
            assert ours == reference, (row["id"], src)


def test_recorded_errors_are_error_nodes_past_the_depth_guard():
    nest = "Object f ( ) { return " + "( " * 300 + "a"
    # balanced, then unbalanced
    for tail, kind in ((" )" * 300 + " ; }", LIMIT), (" ; }", ERROR)):
        _one_walk(nest + tail)
        _, _, errors = _one_walk(wrap_method(nest + tail))
        assert [n.kind for n in errors] == [kind]


SOUP_ATOMS = ["{", "}", "(", ")", ";", ",", "=", ".", "::", "->", "<", ">", "[", "]",
              "@", "#", "int", "class", "new", "return", "void", "a", "b", "Foo",
              "f", "\"s\"", "0", "+", "++", "final", "abstract"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(SOUP_ATOMS), max_size=40))
def test_recorded_errors_and_source_order_on_token_soup(atoms):
    soup = " ".join(atoms)
    for src in (soup, wrap_method(soup)):
        _one_walk(src)


# Statement and head templates of valid Java; each %v, %m and %t takes a
# name from NAMES (the letter says which role the slot reads as).
STATEMENTS = [
    "%t %v = %v . %m ( %v , %v ) ;",
    "return new %t < %t > ( %v ) ;",
    "%v = %t . class ;",
    "%v = %v . %v . %t . class ;",
    "for ( %t %v : %v ) { %m ( %v ) ; }",
    "%t %v = %v :: %m ;",
    "%t %v = %t :: < %t > new ;",
    "if ( %v instanceof %t ) { throw new %t ( %v ) ; }",
    "%v . %m ( ( %t ) %v ) ;",
    "@ %t %t %v = %v ;",
    "class %t extends %t { %t %v ; %t ( ) { } void %m ( ) { } }",
    "%v . %m ( %v -> %m ( %v ) ) ;",
    "try { %m ( ) ; } catch ( %t %v ) { %v = %v [ 0 ] ; }",
    "%t [ ] %v = new %t [ %v ] ;",
    "%v = %v ? %v . %v : %m ( ) . %v ;",
    "%t . %m ( %t . class ) ;",
]
HEADS = [
    "%t %m ( %t %v , %t %v ) { BODY }",
    "< %t > %t %m ( %t %v ) { BODY }",
    "%t ( %t %v ) { BODY }",
    "@ %t public %t %m ( ) throws %t { BODY }",
]
NAMES = ["a", "b", "item", "Foo", "Bar", "T", "String", "List", "var",
         "VAR_1", "METHOD_2", "TYPE_3"]


@st.composite
def generated_fragments(draw):
    body = " ".join(draw(st.lists(st.sampled_from(STATEMENTS), max_size=5)))
    code = draw(st.sampled_from(HEADS)).replace("BODY", body)
    return re.sub(r"%[vmt]", lambda _slot: draw(st.sampled_from(NAMES)), code)


@settings(max_examples=200, deadline=None)
@given(generated_fragments())
def test_occurrences_match_the_frozen_walk_on_generated_fragments(code):
    assert check_syntax(code).valid, code
    ours, reference = _occurrences_both_ways(wrap_method(code))
    assert ours == reference, code
