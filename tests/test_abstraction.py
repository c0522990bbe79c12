"""Identifier abstraction: placeholders, mapping invariants, conformance."""

import re

import pytest

from repairdx.abstraction import (
    JAVA_LANG_NAMES,
    PLACEHOLDER_RE,
    AbstractionMapping,
    AbstractionReport,
    UnparseableCodeError,
    abstract_identifiers,
    check_conformance,
)
from repairdx.errors import InputError
from repairdx.syntax import check_syntax


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
        def parse_java(text):
            calls.append(text)
            return original(text)
        return parse_java

    for module in (repairdx.abstraction, repairdx.bindings):
        monkeypatch.setattr(module, "parse_java", counting(module.parse_java))
    codes = _fragments(valid_methods, broken_methods, abstraction_methods)
    for code in codes:
        calls.clear()
        _verdict_acted_on(code)
        assert len(calls) == (1 if code.strip() else 0), code


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
