"""Corpus loading, validation, statistics, and deterministic sampling."""

import hashlib
import json

import pytest

from repairdx.corpus import (
    CorpusStats,
    Prediction,
    RepairExample,
    TrackingConfig,
    corpus_stats,
    filter_split,
    load_examples,
    load_predictions,
    load_snippets,
    predictions_by_step,
    sample_validation,
    seeded_rank,
)
from repairdx.errors import InputError

from conftest import write_jsonl


def ex(i, buggy="int x ;", fixed="int y ;", split="test"):
    return RepairExample(id=f"e{i:03d}", buggy=buggy, fixed=fixed, split=split)


# ----------------------------------------------------------------------
# load_examples


def test_load_examples_happy_path(corpus_file):
    examples = load_examples(corpus_file)
    assert len(examples) == 4
    assert examples[0].id == "bug-001"
    assert examples[0].buggy.startswith("public int add")


def test_split_defaults_to_test(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [
        {"id": "a", "buggy": "int x ;", "fixed": "int y ;"},
        {"id": "b", "buggy": "int x ;", "fixed": "int y ;", "split": "train"},
    ])
    examples = load_examples(path)
    assert examples[0].split == "test"
    assert examples[1].split == "train"


def test_round_trip_preserves_everything(tmp_path):
    examples = [
        RepairExample(id="a", buggy="int x ;", fixed="int y ;", split="valid"),
        RepairExample(id="b", buggy="a\nb", fixed="cé", split="test"),
    ]
    path = write_jsonl(tmp_path / "out.jsonl", [e._asdict() for e in examples])
    assert load_examples(path) == examples


def test_missing_field_reports_file_and_line(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [
        {"id": "a", "buggy": "int x ;", "fixed": "int y ;"},
        {"id": "b", "buggy": "int x ;"},
    ])
    with pytest.raises(InputError, match=r"c\.jsonl:2.*fixed"):
        load_examples(path)


def test_wrong_type_reports_file_and_line(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [{"id": 7, "buggy": "b", "fixed": "f"}])
    with pytest.raises(InputError, match=r"c\.jsonl:1.*id"):
        load_examples(path)


@pytest.mark.parametrize("field", ["buggy", "fixed"])
def test_blank_code_is_rejected_with_line_number(tmp_path, field):
    row = {"id": "a", "buggy": "int x ;", "fixed": "int y ;"}
    row[field] = "   \t"
    path = write_jsonl(tmp_path / "c.jsonl", [row])
    with pytest.raises(InputError, match=rf"c\.jsonl:1.*{field}"):
        load_examples(path)


@pytest.mark.parametrize("field, value, message", [
    ("id", "", "field 'id' must be non-empty"),
    ("split", "", "field 'split' must be a non-empty str, got ''"),
])
def test_empty_id_or_split_is_rejected_with_line_number(tmp_path, field, value, message):
    row = {"id": "a", "buggy": "int x ;", "fixed": "int y ;", field: value}
    path = write_jsonl(tmp_path / "c.jsonl", [row])
    with pytest.raises(InputError, match=rf"c\.jsonl:1: {message}"):
        load_examples(path)


def test_duplicate_ids_are_rejected(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [
        {"id": "a", "buggy": "x", "fixed": "y"},
        {"id": "a", "buggy": "x", "fixed": "z"},
    ])
    with pytest.raises(InputError, match="duplicate example id 'a'"):
        load_examples(path)


def test_invalid_json_line_is_reported(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "a", "buggy": "x", "fixed": "y"}\nnot json\n')
    with pytest.raises(InputError, match=r"c\.jsonl:2"):
        load_examples(path)


def test_non_object_line_is_reported(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('[1, 2, 3]\n')
    with pytest.raises(InputError, match="expected a JSON object"):
        load_examples(path)


def test_missing_file_is_an_input_error(tmp_path):
    with pytest.raises(InputError, match="no such file"):
        load_examples(tmp_path / "absent.jsonl")


def test_empty_file_is_an_input_error(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("\n\n")
    with pytest.raises(InputError, match="no examples"):
        load_examples(path)


def test_blank_lines_between_records_are_fine(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('\n{"id": "a", "buggy": "x", "fixed": "y"}\n\n')
    assert len(load_examples(path)) == 1


def test_identity_pair_detection():
    assert RepairExample(id="a", buggy="same", fixed="same").is_identity
    assert not RepairExample(id="a", buggy="x", fixed="y").is_identity


# ----------------------------------------------------------------------
# load_predictions


def test_load_predictions_happy_path(predictions_file):
    preds = load_predictions(predictions_file)
    assert len(preds) == 8
    assert preds[0] == Prediction(
        id="bug-001", step=500,
        prediction="public int add ( int a , int b ) { return a - b ; }",
        rank=0,
    )


def test_predictions_validated_against_examples(predictions_file, corpus_file):
    examples = load_examples(corpus_file)
    assert len(load_predictions(predictions_file, corpus=examples)) == 8
    assert len(load_predictions(predictions_file, corpus=[e.id for e in examples])) == 8


def test_stray_prediction_id_is_named(tmp_path):
    path = write_jsonl(tmp_path / "p.jsonl", [
        {"id": "ghost", "step": 0, "prediction": "x"},
    ])
    with pytest.raises(InputError, match="'ghost'"):
        load_predictions(path, corpus=["real-1", "real-2"])


def test_negative_step_is_rejected(tmp_path):
    path = write_jsonl(tmp_path / "p.jsonl", [
        {"id": "a", "step": -5, "prediction": "x"},
    ])
    with pytest.raises(InputError, match="step"):
        load_predictions(path)


def test_bad_rank_is_rejected(tmp_path):
    path = write_jsonl(tmp_path / "p.jsonl", [
        {"id": "a", "step": 0, "prediction": "x", "rank": -1},
    ])
    with pytest.raises(InputError, match="rank"):
        load_predictions(path)


def test_duplicate_id_step_rank_is_rejected(tmp_path):
    path = write_jsonl(tmp_path / "p.jsonl", [
        {"id": "a", "step": 0, "prediction": "x"},
        {"id": "a", "step": 0, "prediction": "y"},
    ])
    with pytest.raises(InputError, match="duplicate prediction"):
        load_predictions(path)


def test_predictions_file_of_blank_lines_is_an_input_error(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text("\n  \n\n")
    with pytest.raises(InputError, match=r"p\.jsonl: no predictions found"):
        load_predictions(path)


def test_same_id_different_steps_is_fine(tmp_path):
    path = write_jsonl(tmp_path / "p.jsonl", [
        {"id": "a", "step": 0, "prediction": "x"},
        {"id": "a", "step": 500, "prediction": "y"},
        {"id": "a", "step": 500, "prediction": "z", "rank": 1},
    ])
    assert len(load_predictions(path)) == 3


def test_predictions_by_step_keeps_requested_rank_only():
    preds = [
        Prediction(id="a", step=0, prediction="x", rank=0),
        Prediction(id="a", step=0, prediction="beam2", rank=1),
        Prediction(id="b", step=500, prediction="y", rank=0),
    ]
    table = predictions_by_step(preds)
    assert set(table) == {0, 500}
    assert table[0]["a"].prediction == "x"
    table1 = predictions_by_step(preds, rank=1)
    assert table1[0]["a"].prediction == "beam2"


# ----------------------------------------------------------------------
# corpus_stats


def test_stats_counts_splits_and_identities():
    examples = [
        ex(0, buggy="int a ;", fixed="int b ;", split="train"),
        ex(1, buggy="same ;", fixed="same ;", split="test"),
        ex(2, buggy="int a ;", fixed="int c ;", split="test"),
    ]
    stats = corpus_stats(examples)
    assert stats.n_examples == 3
    assert stats.n_per_split == {"test": 2, "train": 1}
    assert stats.identity_pairs == 1
    assert stats.identity_pair_fraction == pytest.approx(1 / 3)
    assert stats.duplicate_buggy == 1  # "int a ;" appears twice
    assert isinstance(stats, CorpusStats)


def test_stats_token_lengths_cover_the_buggy_side():
    examples = [
        ex(0, buggy="a b c", fixed="just one token"),
        ex(1, buggy="a b c d e", fixed="x"),
    ]
    stats = corpus_stats(examples)
    assert stats.mean_token_length == pytest.approx(4.0)
    assert stats.median_token_length == pytest.approx(4.0)


def test_stats_identity_fraction_is_in_unit_interval():
    stats = corpus_stats([ex(0, buggy="s", fixed="s")])
    assert stats.identity_pair_fraction == 1.0


def test_stats_on_empty_corpus_is_an_input_error():
    with pytest.raises(InputError):
        corpus_stats([])


# ----------------------------------------------------------------------
# load_snippets


def test_load_snippets_returns_id_and_code_in_file_order(tmp_path):
    path = write_jsonl(tmp_path / "s.jsonl", [
        {"id": "b", "code": "int x ;", "note": 1},
        {"id": "a", "text": "void f ( ) { }", "code": ""},
    ])
    assert load_snippets(path) == [("b", "int x ;"), ("a", "")]
    other = write_jsonl(tmp_path / "t.jsonl", [{"id": "a", "text": "void f ( ) { }"}])
    assert load_snippets(other, "text") == [("a", "void f ( ) { }")]


@pytest.mark.parametrize("row,message", [
    ({"id": 5, "code": "x"}, "s.jsonl:1: field 'id' must be str, got int"),
    ({"code": "x"}, "s.jsonl:1: missing required field 'id'"),
    ({"id": "s1", "text": "x", "b": 1}, "s.jsonl:1: no field 'code' (have: b, id, text)"),
    ({"id": "s1", "code": None}, "s.jsonl:1: field 'code' must be str"),
])
def test_load_snippets_names_the_bad_row(tmp_path, row, message):
    path = write_jsonl(tmp_path / "s.jsonl", [row])
    with pytest.raises(InputError) as info:
        load_snippets(path)
    assert str(info.value) == f"{tmp_path / message}"


def test_load_snippets_of_an_empty_file_is_an_input_error(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text("\n", encoding="utf-8")
    with pytest.raises(InputError) as info:
        load_snippets(path)
    assert str(info.value) == f"{path}: no snippets found"


# ----------------------------------------------------------------------
# sampling


def test_seeded_rank_is_the_digest_of_the_colon_joined_parts():
    for parts, key in [((42, "case", "e1"), "42:case:e1"), ((7, 500, "e1"), "7:500:e1"),
                       ((7, "e1"), "7:e1")]:
        assert seeded_rank(*parts) == hashlib.sha256(key.encode("utf-8")).hexdigest()


def big_corpus(n=400):
    return [ex(i, buggy=f"int v{i} ;", fixed=f"int w{i} ;") for i in range(n)]


def test_sample_is_deterministic_for_equal_inputs():
    config = TrackingConfig(sample_size=100, interval_steps=500, seed=42)
    examples = big_corpus()
    assert sample_validation(examples, config, 500) == sample_validation(examples, config, 500)


def test_sample_has_requested_size_and_preserves_order():
    config = TrackingConfig(sample_size=100, interval_steps=500, seed=42)
    examples = big_corpus()
    sample = sample_validation(examples, config, 500)
    assert len(sample) == 100
    positions = [examples.index(s) for s in sample]
    assert positions == sorted(positions)


def test_different_steps_draw_different_samples():
    config = TrackingConfig(sample_size=100, interval_steps=500, seed=42)
    examples = big_corpus()
    assert sample_validation(examples, config, 500) != sample_validation(examples, config, 1000)


def test_different_seeds_draw_different_samples():
    examples = big_corpus()
    a = sample_validation(examples, TrackingConfig(sample_size=100, interval_steps=500, seed=1), 500)
    b = sample_validation(examples, TrackingConfig(sample_size=100, interval_steps=500, seed=2), 500)
    assert a != b


def test_fixed_sample_reuses_one_subset_across_steps():
    config = TrackingConfig(sample_size=100, interval_steps=500, seed=42, fixed_sample=True)
    examples = big_corpus()
    assert sample_validation(examples, config, 500) == sample_validation(examples, config, 4000)


def test_small_corpus_is_returned_whole():
    config = TrackingConfig(sample_size=100, interval_steps=500, seed=42)
    examples = big_corpus(17)
    assert sample_validation(examples, config, 500) == examples


def test_sampling_empty_corpus_is_an_input_error():
    config = TrackingConfig(sample_size=10, interval_steps=500, seed=42)
    with pytest.raises(InputError):
        sample_validation([], config, 500)


def test_off_cadence_step_is_an_input_error():
    config = TrackingConfig(sample_size=10, interval_steps=500, seed=42)
    with pytest.raises(InputError, match="multiple"):
        sample_validation(big_corpus(20), config, 750)


def test_step_zero_is_on_cadence():
    config = TrackingConfig(sample_size=10, interval_steps=500, seed=42)
    assert len(sample_validation(big_corpus(20), config, 0)) == 10


def test_negative_step_is_an_input_error():
    config = TrackingConfig(sample_size=10, interval_steps=500, seed=42)
    with pytest.raises(InputError):
        sample_validation(big_corpus(20), config, -500)


def test_tracking_config_rejects_nonpositive_knobs():
    with pytest.raises(InputError):
        TrackingConfig(sample_size=0)
    with pytest.raises(InputError):
        TrackingConfig(interval_steps=0)


# ----------------------------------------------------------------------
# filter_split


def test_filter_split_selects_matching_examples():
    examples = [ex(0, split="train"), ex(1, split="test"), ex(2, split="test")]
    assert [e.id for e in filter_split(examples, "test")] == ["e001", "e002"]


def test_filter_split_reports_available_splits():
    examples = [ex(0, split="train"), ex(1, split="valid")]
    with pytest.raises(InputError, match="train.*valid"):
        filter_split(examples, "test")
