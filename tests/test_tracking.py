"""Checkpoint evaluation: invariants, determinism, worker parity."""

import multiprocessing

import pytest

from repairdx import tracking
from repairdx.corpus import Prediction, RepairExample, TrackingConfig
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
    load_loss_log,
    run_tracking,
    summarize_records,
    _measure,
)

from conftest import SMALL_CORPUS, SMALL_PREDICTIONS, write_jsonl


def examples():
    return [RepairExample(**row) for row in SMALL_CORPUS]


def predictions():
    return [Prediction(**row) for row in SMALL_PREDICTIONS]


def checkpoint(step=500, em=25.0, copy=50.0, mod=25.0, sv=75.0, n=4, loss=None):
    return CheckpointRecord(
        step=step, n=n, syntax_validity_pct=sv, exact_match_pct=em,
        copy_pct=copy, modification_pct=mod,
        ned_stats=aggregate([0.1, 0.2]), eval_loss=loss,
    )


# ----------------------------------------------------------------------
# CheckpointRecord invariants


def test_behavior_percentages_must_sum_to_100():
    with pytest.raises(InputError, match="sum to 100"):
        checkpoint(em=10.0, copy=10.0, mod=10.0)


def test_percentages_must_stay_in_range():
    with pytest.raises(InputError, match="out of range"):
        checkpoint(sv=101.0)
    with pytest.raises(InputError, match="out of range"):
        checkpoint(em=-1.0, copy=76.0, mod=25.0)


def test_empty_checkpoint_is_rejected():
    with pytest.raises(InputError, match="no examples"):
        checkpoint(n=0)


def test_non_copy_complements_the_copy_share():
    record = checkpoint(em=25.0, copy=50.0, mod=25.0)
    assert record.non_copy_pct == pytest.approx(50.0)
    assert record.non_copy_pct == pytest.approx(100.0 - record.copy_pct)


def test_tiny_float_noise_is_tolerated():
    checkpoint(em=100 / 3, copy=100 / 3, mod=100 / 3)  # must not raise


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
    record = _measure(("e", "x", "", "", 0, "none", False), valid=False)
    assert record.edit_distance == 0 and record.ned == 0.0
    assert record.syntax_valid is False


def test_missing_prediction_is_named():
    by_id = {p.id: p for p in predictions() if p.step == 500}
    del by_id["bug-002"]
    with pytest.raises(InputError, match="bug-002"):
        evaluate_examples(examples(), by_id)


def test_worker_pool_matches_serial_evaluation():
    by_id = {p.id: p for p in predictions() if p.step == 500}
    serial = evaluate_examples(examples(), by_id, workers=1)
    parallel = evaluate_examples(examples(), by_id, workers=2)
    assert serial == parallel


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
        pred_len=1,
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
    with pytest.raises(InputError, match=r"'bug-002' at step 1500"):
        run_tracking(examples(), predictions() + later, config, workers=2)


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


def test_pool_results_do_not_depend_on_the_start_method(monkeypatch):
    config = TrackingConfig(sample_size=10, interval_steps=500, seed=42)
    serial = run_tracking(examples(), predictions(), config)
    spawn = multiprocessing.get_context("spawn")

    def default_context(method=None):
        assert method is None, "the pool must use the platform's default start method"
        return spawn

    monkeypatch.setattr(multiprocessing, "get_context", default_context)
    assert run_tracking(examples(), predictions(), config, workers=2) == serial


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
