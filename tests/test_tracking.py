"""Checkpoint evaluation: invariants, determinism, one judgment per text."""

import pytest

from repairdx import tracking
from repairdx.corpus import Prediction, RepairExample, TrackingConfig, load_loss_log
from repairdx.errors import InputError
from repairdx.metrics import (
    BehaviorClass,
    EvalRecord,
    aggregate,
    levenshtein,
    normalized_edit_distance,
)
from repairdx.tracking import (
    CheckpointRecord,
    CheckpointSeries,
    build_series,
    evaluate_examples,
    run_tracking,
    summarize_records,
    _distance,
)

from conftest import SMALL_CORPUS, SMALL_PREDICTIONS, write_jsonl


def examples():
    return [RepairExample(**row) for row in SMALL_CORPUS]


def predictions():
    return [Prediction(**row) for row in SMALL_PREDICTIONS]


def checkpoint(step=500, em=1, copy=2, mod=1, valid=3, n=4, loss=None):
    return CheckpointRecord(
        step=step, n=n, valid_count=valid, exact_match_count=em,
        copy_count=copy, modification_count=mod,
        ned_stats=aggregate([0.1, 0.2]), eval_loss=loss,
    )


# ----------------------------------------------------------------------
# CheckpointRecord invariants


def test_behavior_percentages_must_sum_to_100():
    # The classes partition the sample: their counts must add up to n.
    with pytest.raises(InputError, match="sum to n=4"):
        checkpoint(em=1, copy=1, mod=1)
    with pytest.raises(InputError, match="sum to n=4"):
        checkpoint(em=2, copy=2, mod=1)


def test_percentages_must_stay_in_range():
    with pytest.raises(InputError, match="out of range"):
        checkpoint(valid=5)
    with pytest.raises(InputError, match="out of range"):
        checkpoint(valid=-1)
    with pytest.raises(InputError, match="out of range"):
        checkpoint(em=-1, copy=4, mod=1)
    with pytest.raises(InputError, match="out of range"):
        CheckpointRecord(
            step=0, n=1, valid_count=1, exact_match_count=1, copy_count=0,
            modification_count=0, ned_stats=aggregate([0.0]), near_copy_count=2,
        )


def test_checks_cannot_be_bypassed_by_assignment():
    # The records are checked once when built, so they must stay as built.
    record = checkpoint()
    config = TrackingConfig()
    with pytest.raises(AttributeError):
        record.valid_count = -1
    with pytest.raises(AttributeError):
        config.sample_size = 0
    assert (record.valid_count, config.sample_size) == (3, 100)
    assert hash(config) == hash(TrackingConfig(100, 500, 42, False))
    assert hash(record) == hash(checkpoint())


def test_records_print_their_fields():
    assert repr(TrackingConfig(sample_size=7)) == (
        "TrackingConfig(sample_size=7, interval_steps=500, seed=42, fixed_sample=False)"
    )
    series = CheckpointSeries([checkpoint(step=500)])
    assert repr(series).startswith(
        "CheckpointSeries(records=[CheckpointRecord(step=500, n=4, valid_count=3, "
    )


def test_limit_exceeded_count_is_at_most_the_invalid_count():
    def record(valid, cut):
        return CheckpointRecord(
            step=0, n=4, valid_count=valid, exact_match_count=0, copy_count=0,
            modification_count=4, ned_stats=aggregate([0.5]), limit_exceeded_count=cut,
        )

    assert record(valid=1, cut=3).limit_exceeded_count == 3
    with pytest.raises(InputError, match="limit_exceeded_count out of range"):
        record(valid=2, cut=3)
    with pytest.raises(InputError, match="limit_exceeded_count out of range"):
        record(valid=0, cut=-1)


def test_summarize_counts_cut_predictions_as_invalid():
    records = [
        EvalRecord(example_id=f"e{i}", step=0, behavior=BehaviorClass.MODIFICATION,
                   exact=False, edit_distance=1, ned=0.5, syntax_valid=valid,
                   near_copy=False, limit_exceeded=cut)
        for i, (valid, cut) in enumerate([(True, False), (False, True), (False, False)])
    ]
    record = summarize_records(records)
    assert record.limit_exceeded_count == 1
    assert record.valid_count == 1 and record.n == 3


def test_empty_checkpoint_is_rejected():
    with pytest.raises(InputError, match="no examples"):
        checkpoint(n=0)


def test_non_copy_complements_the_copy_share():
    record = checkpoint(em=1, copy=2, mod=1)
    assert record.non_copy_pct == pytest.approx(50.0)
    assert record.non_copy_pct == pytest.approx(100.0 - record.copy_pct)


def test_tiny_float_noise_is_tolerated():
    # Percentages are read from integer counts, so a partition whose
    # percentages do not add up to exactly 100.0 in floats is accepted.
    record = checkpoint(em=1, copy=1, mod=1, valid=1, n=3)  # must not raise
    assert record.exact_match_pct == record.copy_pct == record.modification_pct == 100 / 3


def test_percentages_are_read_from_the_counts():
    record = checkpoint(em=1, copy=2, mod=1, valid=3, n=4)
    assert record.syntax_validity_pct == 75.0
    assert (record.exact_match_pct, record.copy_pct, record.modification_pct) == (
        25.0, 50.0, 25.0)
    assert record.behavior_counts == {
        BehaviorClass.EXACT_MATCH: 1, BehaviorClass.COPY: 2, BehaviorClass.MODIFICATION: 1,
    }


# ----------------------------------------------------------------------
# evaluate_examples


def test_per_example_records_are_sorted_by_id():
    by_id = {p.id: p for p in predictions() if p.step == 500}
    records = evaluate_examples(list(reversed(examples())), by_id)
    assert [r.example_id for r in records] == sorted(r.example_id for r in records)


def test_expected_measurements_at_step_500():
    by_id = {p.id: p for p in predictions() if p.step == 500}
    records = evaluate_examples(examples(), by_id)
    by_example = {r.example_id: r for r in records}
    assert by_example["bug-001"].behavior is BehaviorClass.COPY
    assert by_example["bug-002"].behavior is BehaviorClass.MODIFICATION
    assert by_example["bug-003"].behavior is BehaviorClass.MODIFICATION
    assert by_example["bug-004"].behavior is BehaviorClass.COPY
    assert not by_example["bug-003"].syntax_valid  # truncated brace
    assert by_example["bug-001"].syntax_valid
    assert by_example["bug-001"].prediction == SMALL_PREDICTIONS[0]["prediction"]
    assert by_example["bug-001"].pred_len == len(SMALL_PREDICTIONS[0]["prediction"])


def test_exact_match_records_have_zero_ned():
    by_id = {p.id: p for p in predictions() if p.step == 1000}
    records = evaluate_examples(examples(), by_id)
    for record in records:
        assert record.behavior is BehaviorClass.EXACT_MATCH
        assert record.exact and record.ned == 0.0 and record.edit_distance == 0


def test_character_ned_is_the_record_distance_over_the_longer_side():
    by_id = {p.id: p for p in predictions() if p.step == 500}
    fixed = {ex.id: ex.fixed for ex in examples()}
    for r in evaluate_examples(examples(), by_id):
        pred, target = by_id[r.example_id].prediction, fixed[r.example_id]
        assert r.edit_distance == levenshtein(pred, target)
        assert r.ned == r.edit_distance / max(len(pred), len(target))  # exact
        assert r.ned == normalized_edit_distance(pred, target)


def test_token_ned_under_ned_tokens():
    by_id = {p.id: p for p in predictions() if p.step == 500}
    fixed = {ex.id: ex.fixed for ex in examples()}
    records = {r.example_id: r for r in evaluate_examples(examples(), by_id, ned_tokens=True)}
    for r in records.values():
        pred, target = by_id[r.example_id].prediction, fixed[r.example_id]
        assert r.edit_distance == levenshtein(pred, target)  # still characters
        assert r.ned == normalized_edit_distance(pred, target, tokens=True)
    # "count = 2" vs "count = 0": one token of ten, one character of thirty.
    assert records["bug-002"].ned == 1 / 10
    assert records["bug-002"].edit_distance == 1


def test_measure_of_two_empty_texts_is_zero():
    for ned_tokens in (False, True):
        assert _distance("", "", ned_tokens) == (0, 0.0)
        [record] = evaluate_examples(
            [RepairExample(id="e", buggy="x", fixed="")],
            {"e": Prediction(id="e", step=0, prediction="")}, ned_tokens=ned_tokens,
        )
        assert record.edit_distance == 0 and record.ned == 0.0
        assert record.syntax_valid is False


def test_missing_prediction_is_named():
    by_id = {p.id: p for p in predictions() if p.step == 500}
    del by_id["bug-002"]
    with pytest.raises(InputError, match="bug-002"):
        evaluate_examples(examples(), by_id)


# ----------------------------------------------------------------------
# summarize


def test_summarize_reduces_to_percentages():
    by_id = {p.id: p for p in predictions() if p.step == 500}
    records = evaluate_examples(examples(), by_id)
    record = summarize_records(records)
    assert record.step == 500
    assert record.n == 4
    assert record.syntax_validity_pct == 75.0
    assert record.exact_match_pct == 0.0
    assert record.copy_pct == 50.0
    assert record.modification_pct == 50.0


def test_summarize_empty_is_an_input_error():
    with pytest.raises(InputError):
        summarize_records([])


def test_evaluate_then_summarize_end_to_end():
    by_id = {p.id: p for p in predictions() if p.step == 500}
    record = summarize_records(evaluate_examples(examples(), by_id), eval_loss=0.91)
    assert record.step == 500 and record.eval_loss == 0.91
    assert record.exact_match_pct + record.copy_pct + record.modification_pct == pytest.approx(100.0)


def _record(behavior, i=0):
    return EvalRecord(
        example_id=f"e{i}", step=0, behavior=behavior, exact=False,
        edit_distance=1, ned=0.5, syntax_valid=True, near_copy=False,
        prediction="x",
    )


def test_non_copy_pct_counts_everything_but_copies():
    records = [
        _record(BehaviorClass.COPY, 0),
        _record(BehaviorClass.COPY, 1),
        _record(BehaviorClass.MODIFICATION, 2),
        _record(BehaviorClass.EXACT_MATCH, 3),
    ]
    assert summarize_records(records).non_copy_pct == 50.0


def test_non_copy_pct_engineered_distribution():
    behaviors = [BehaviorClass.COPY] * 8 + [BehaviorClass.MODIFICATION] * 2
    records = [_record(b, i) for i, b in enumerate(behaviors)]
    assert summarize_records(records).non_copy_pct == 20.0


def test_non_copy_pct_all_copies():
    records = [_record(BehaviorClass.COPY, i) for i in range(5)]
    assert summarize_records(records).non_copy_pct == 0.0


def test_non_copy_pct_all_exact_matches():
    records = [_record(BehaviorClass.EXACT_MATCH, i) for i in range(5)]
    assert summarize_records(records).non_copy_pct == 100.0


def test_non_copy_pct_empty_is_an_input_error():
    # The non-copy share of zero records is undefined, even when the step
    # is given explicitly and need not be read from a record.
    with pytest.raises(InputError):
        summarize_records([], step=500)


# ----------------------------------------------------------------------
# series


def test_series_orders_by_step():
    series = build_series([checkpoint(step=1000), checkpoint(step=0), checkpoint(step=500)])
    assert series.steps == [0, 500, 1000]
    assert series.final.step == 1000
    assert isinstance(series, CheckpointSeries)


def test_series_rejects_duplicate_steps():
    with pytest.raises(InputError, match="duplicate checkpoint"):
        build_series([checkpoint(step=500), checkpoint(step=500)])


def test_empty_series_has_no_final():
    with pytest.raises(InputError):
        CheckpointSeries().final


# ----------------------------------------------------------------------
# run_tracking


def test_run_tracking_covers_every_step():
    config = TrackingConfig(sample_size=10, interval_steps=500, seed=42)
    series, records_by_step = run_tracking(examples(), predictions(), config)
    assert series.steps == [500, 1000]
    assert set(records_by_step) == {500, 1000}
    assert len(records_by_step[500]) == 4  # corpus smaller than sample size
    assert series.final.exact_match_pct == 100.0


def test_run_tracking_is_deterministic():
    config = TrackingConfig(sample_size=2, interval_steps=500, seed=42)
    first = run_tracking(examples(), predictions(), config)
    second = run_tracking(examples(), predictions(), config)
    assert first == second


def test_run_tracking_samples_per_checkpoint():
    config = TrackingConfig(sample_size=2, interval_steps=500, seed=42)
    _series, records_by_step = run_tracking(examples(), predictions(), config)
    assert len(records_by_step[500]) == 2
    assert len(records_by_step[1000]) == 2


def test_run_tracking_fixed_sample_mode():
    config = TrackingConfig(sample_size=2, interval_steps=500, seed=42, fixed_sample=True)
    _series, records_by_step = run_tracking(examples(), predictions(), config)
    assert {r.example_id for r in records_by_step[500]} == {
        r.example_id for r in records_by_step[1000]
    }


def test_run_tracking_attaches_losses():
    config = TrackingConfig(sample_size=10, interval_steps=500, seed=42)
    series, _ = run_tracking(
        examples(), predictions(), config,
        loss_by_step={500: 0.91, 1000: 0.42},
    )
    assert [r.eval_loss for r in series.records] == [0.91, 0.42]


def test_run_tracking_off_cadence_step_is_an_input_error():
    config = TrackingConfig(sample_size=10, interval_steps=400, seed=42)
    with pytest.raises(InputError, match="multiple"):
        run_tracking(examples(), predictions(), config)


def test_run_tracking_ignores_secondary_beams():
    config = TrackingConfig(sample_size=10, interval_steps=500, seed=42)
    noise = [Prediction(id="bug-001", step=500, prediction="#########", rank=1)]
    with_noise = run_tracking(examples(), predictions() + noise, config)
    without = run_tracking(examples(), predictions(), config)
    assert with_noise == without


def test_run_tracking_names_the_step_missing_a_prediction():
    config = TrackingConfig(sample_size=10, interval_steps=500, seed=42)
    later = [
        Prediction(id=ex.id, step=1500, prediction=ex.fixed)
        for ex in examples() if ex.id != "bug-002"
    ]
    with pytest.raises(InputError, match=r"'bug-002' at step 1500"):
        run_tracking(examples(), predictions() + later, config)


def test_run_tracking_judges_each_distinct_text_once(monkeypatch):
    judged = []
    real = tracking.check_syntax

    def counting(code):
        judged.append(code)
        return real(code)

    monkeypatch.setattr(tracking, "check_syntax", counting)
    # Every example copies its input at every step; at step 1500 bug-002
    # also repeats bug-001's input.
    preds = [
        Prediction(id=ex.id, step=step, prediction=ex.buggy)
        for step in (500, 1000, 1500) for ex in examples()
    ]
    preds[-3] = Prediction(id="bug-002", step=1500, prediction=examples()[0].buggy)
    config = TrackingConfig(sample_size=10, interval_steps=500, seed=42)
    _series, records_by_step = run_tracking(examples(), preds, config)
    assert sorted(judged) == sorted({p.prediction for p in preds})
    assert len(judged) == 4
    text = {(p.step, p.id): p.prediction for p in preds}
    for step, records in records_by_step.items():
        assert len(records) == 4
        for r in records:
            assert r.syntax_valid == real(text[step, r.example_id]).valid


def _repeating_predictions():
    """Four steps of predictions in which copies and a modification repeat
    at every step, and bug-004 repeats bug-001's input against its own fix."""
    exs = examples()
    preds = []
    for step in (500, 1000, 1500, 2000):
        for ex in exs:
            text = {"bug-001": ex.buggy,
                    "bug-002": ex.buggy if step < 1500 else ex.fixed,
                    "bug-003": ex.fixed[:-2],
                    "bug-004": exs[0].buggy}[ex.id]
            preds.append(Prediction(id=ex.id, step=step, prediction=text))
    return preds


@pytest.mark.parametrize("ned_tokens", [False, True])
def test_run_tracking_measures_each_distinct_pair_once(monkeypatch, ned_tokens):
    preds = _repeating_predictions()
    fixed = {ex.id: ex.fixed for ex in examples()}
    pairs = {(p.prediction, fixed[p.id]) for p in preds}
    calls = {"levenshtein": [], "normalized_edit_distance": []}
    for name, seen in calls.items():
        real = getattr(tracking, name)

        def counting(a, b, *args, _real=real, _seen=seen, **kwargs):
            _seen.append((a, b))
            return _real(a, b, *args, **kwargs)

        monkeypatch.setattr(tracking, name, counting)
    config = TrackingConfig(sample_size=10, interval_steps=500, seed=42)
    _series, records_by_step = run_tracking(examples(), preds, config, ned_tokens=ned_tokens)
    assert (len(preds), len(pairs)) == (16, 5)
    assert sorted(calls["levenshtein"]) == sorted(pairs)
    assert sorted(calls["normalized_edit_distance"]) == (sorted(pairs) if ned_tokens else [])
    # Every record reads its own pair's numbers, against a per-record oracle.
    text = {(p.step, p.id): p.prediction for p in preds}
    for step, records in records_by_step.items():
        assert len(records) == 4
        for r in records:
            pred, target = text[step, r.example_id], fixed[r.example_id]
            distance = levenshtein(pred, target)
            assert r.edit_distance == distance
            if ned_tokens:
                assert r.ned == normalized_edit_distance(pred, target, tokens=True)
            else:
                assert r.ned == distance / max(len(pred), len(target))


def test_run_tracking_requires_rank_zero_predictions():
    config = TrackingConfig(sample_size=10, interval_steps=500, seed=42)
    beams = [Prediction(id="bug-001", step=500, prediction="x", rank=1)]
    with pytest.raises(InputError, match="rank-0"):
        run_tracking(examples(), beams, config)


# ----------------------------------------------------------------------
# loss log ingestion


def test_load_loss_log(tmp_path, loss_file):
    losses = load_loss_log(loss_file)
    assert losses == {500: 0.91, 1000: 0.42}


def test_loss_log_lines_without_eval_loss_are_skipped(tmp_path):
    path = write_jsonl(tmp_path / "loss.jsonl", [
        {"step": 0, "train_loss": 2.095},
        {"step": 500, "train_loss": 1.0, "eval_loss": 0.9},
    ])
    assert load_loss_log(path) == {500: 0.9}


def test_loss_log_rejects_bad_rows(tmp_path):
    path = write_jsonl(tmp_path / "loss.jsonl", [{"eval_loss": 1.0}])
    with pytest.raises(InputError, match="step"):
        load_loss_log(path)
    path2 = write_jsonl(tmp_path / "loss2.jsonl", [{"step": 5, "eval_loss": "high"}])
    with pytest.raises(InputError, match="number"):
        load_loss_log(path2)


@pytest.mark.parametrize("step", [-1, 1.5, "500", True], ids=["-1", "1.5", "str", "bool"])
def test_loss_log_rejects_a_step_that_is_no_non_negative_int(tmp_path, step):
    path = write_jsonl(tmp_path / "loss.jsonl", [{"step": step, "eval_loss": 1.0}])
    with pytest.raises(InputError, match=r"loss\.jsonl:1: 'step' must be a non-negative int"):
        load_loss_log(path)


def test_loss_log_rejects_a_repeated_step_naming_both_lines(tmp_path):
    path = write_jsonl(tmp_path / "loss.jsonl", [
        {"step": 500, "eval_loss": 0.9},
        {"step": 1000, "eval_loss": 0.4},
        {"step": 500, "eval_loss": 0.5},
    ])
    with pytest.raises(
        InputError,
        match=r"loss\.jsonl:3: duplicate eval_loss for step=500 \(first seen on line 1\)",
    ):
        load_loss_log(path)


def test_loss_log_step_may_split_train_and_eval_lines(tmp_path):
    # Only eval_loss is read, so a train-only line at the same step is no repeat.
    path = write_jsonl(tmp_path / "loss.jsonl", [
        {"step": 500, "train_loss": 1.0},
        {"step": 500, "eval_loss": 0.9},
    ])
    assert load_loss_log(path) == {500: 0.9}


@pytest.mark.parametrize("raw", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
                         ids=["NaN", "Infinity", "-Infinity", "1e400", "10**400"])
def test_loss_log_rejects_a_non_finite_eval_loss(tmp_path, raw):
    path = tmp_path / "loss.jsonl"
    path.write_text(f'{{"step": 0, "eval_loss": 1.0}}\n{{"step": 500, "eval_loss": {raw}}}\n')
    with pytest.raises(InputError, match=r"loss\.jsonl:2: 'eval_loss' must be finite"):
        load_loss_log(path)


def test_loss_log_nan_then_a_number_at_the_same_step_is_rejected(tmp_path):
    path = tmp_path / "loss.jsonl"
    path.write_text('{"step": 500, "eval_loss": NaN}\n{"step": 500, "eval_loss": 0.5}\n')
    with pytest.raises(InputError, match=r"loss\.jsonl:1: 'eval_loss' must be finite, got nan"):
        load_loss_log(path)
