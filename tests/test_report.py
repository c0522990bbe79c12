"""Report assembly and emission: layouts, determinism, atomicity."""

import hashlib
import json
import os
import stat
from pathlib import Path

import pytest

from repairdx.corpus import (
    Prediction,
    RepairExample,
    TrackingConfig,
    corpus_stats,
    load_snippets,
    seeded_rank,
)
from repairdx.errors import EnvironmentFailure, InputError
from repairdx.metrics import BehaviorClass
from repairdx.report import (
    CaseBundle,
    Provenance,
    build_report,
    emit_cases,
    emit_report,
    extract_cases,
    file_digest,
    render_behavior_csv,
    render_checkpoints_csv,
    render_report_json,
    render_table1_csv,
)
from repairdx.tracking import build_series, run_tracking, summarize_records

from conftest import SMALL_CORPUS, SMALL_PREDICTIONS


def examples():
    return [RepairExample(**row) for row in SMALL_CORPUS]


def predictions():
    return [Prediction(**row) for row in SMALL_PREDICTIONS]


def tracked(loss=None):
    config = TrackingConfig(sample_size=10, interval_steps=500, seed=42)
    return run_tracking(examples(), predictions(), config, loss_by_step=loss)


def full_report(loss=None):
    series, records_by_step = tracked(loss)
    return build_report(
        corpus_stats(examples()), series, records_by_step,
        Provenance(seed=42, config={"command": "track"}),
    )


# ----------------------------------------------------------------------
# distribution and table layout


def test_distribution_always_lists_all_classes():
    _series, records_by_step = tracked()
    final = summarize_records(records_by_step[1000])
    assert list(final.behavior_counts) == list(BehaviorClass)
    assert final.behavior_counts[BehaviorClass.EXACT_MATCH] == 4
    assert final.exact_match_pct == 100.0
    assert final.behavior_counts[BehaviorClass.COPY] == 0
    assert final.copy_pct == 0.0


def test_distribution_percentages_sum_to_100():
    _series, records_by_step = tracked()
    for records in records_by_step.values():
        record = summarize_records(records)
        assert sum(record.behavior_counts.values()) == record.n
        total = record.exact_match_pct + record.copy_pct + record.modification_pct
        assert total == pytest.approx(100.0)


def test_distribution_of_nothing_is_an_input_error():
    with pytest.raises(InputError):
        summarize_records([])


def test_table1_rows_and_labels():
    series, records_by_step = tracked()
    first = build_series(series.records[:1])  # step 500 as the final checkpoint
    table = build_report(
        corpus_stats(examples()), first, records_by_step, Provenance(seed=42),
    ).table1
    assert [label for label, _ in table] == ["Exact Match", "Normalized Edit Distance"]
    em = table[0][1]
    assert em.mean == 0.0  # nothing exactly fixed at step 500
    ned = table[1][1]
    assert 0.0 < ned.mean < 1.0
    assert ned == series.records[0].ned_stats


# ----------------------------------------------------------------------
# rendering


def test_checkpoints_csv_layout():
    report = full_report(loss={500: 0.91, 1000: 0.42})
    text = render_checkpoints_csv(report.series)
    lines = text.strip().splitlines()
    assert lines[0] == (
        "step,n,syntax_validity,exact_match,copy_rate,modification_rate,"
        "ned_mean,ned_median,ned_std,eval_loss"
    )
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "500" and first[1] == "4"
    assert first[2] == "75.000000"
    assert first[-1] == "0.910000"


def test_checkpoints_csv_missing_loss_renders_empty():
    report = full_report()
    lines = render_checkpoints_csv(report.series).strip().splitlines()
    assert lines[1].endswith(",")


def test_behavior_csv_layout():
    report = full_report()
    lines = render_behavior_csv(report.series.final).strip().splitlines()
    assert lines[0] == "class,count,percentage"
    assert lines[1] == "exact_match,4,100.000000"
    assert lines[2] == "copy,0,0.000000"
    assert lines[3] == "modification,0,0.000000"


def test_table1_csv_layout():
    report = full_report()
    lines = render_table1_csv(report.table1).strip().splitlines()
    assert lines[0] == "metric,mean,median,std"
    assert lines[1].startswith("Exact Match,")
    assert lines[2].startswith("Normalized Edit Distance,")


def test_report_json_shape():
    report = full_report(loss={500: 0.91, 1000: 0.42})
    obj = json.loads(render_report_json(report))
    assert obj["provenance"]["seed"] == 42
    assert obj["provenance"]["parser"] == "builtin"
    assert obj["corpus_stats"]["n_examples"] == 4
    assert [row["step"] for row in obj["series"]] == [500, 1000]
    assert obj["final"]["step"] == 1000
    assert obj["final"]["non_copy_pct"] == 100.0
    assert obj["behavior_counts"] == {"exact_match": 4, "copy": 0, "modification": 0}
    assert [row["metric"] for row in obj["table1"]] == [
        "Exact Match", "Normalized Edit Distance",
    ]


def test_values_are_rounded_to_six_decimals():
    report = full_report()
    obj = json.loads(render_report_json(report))
    for row in obj["series"]:
        for key in ("syntax_validity_pct", "exact_match_pct", "copy_pct",
                    "modification_pct"):
            value = row[key]
            assert round(value, 6) == value


# ----------------------------------------------------------------------
# emission


def test_emit_writes_the_full_file_set(tmp_path):
    written = emit_report(full_report(), tmp_path)
    names = [p.name for p in written]
    assert names == [
        "report.json", "checkpoints.csv", "behavior.csv", "table1.csv",
        "records.jsonl",
    ]
    for path in written:
        assert path.exists() and path.stat().st_size > 0


def test_emit_creates_the_output_directory(tmp_path):
    target = tmp_path / "deep" / "nested"
    written = emit_report(full_report(), target)
    assert all(p.parent == target for p in written)


def test_two_emissions_are_byte_identical(tmp_path):
    report = full_report(loss={500: 0.91, 1000: 0.42})
    first_dir, second_dir = tmp_path / "one", tmp_path / "two"
    emit_report(report, first_dir)
    emit_report(full_report(loss={500: 0.91, 1000: 0.42}), second_dir)
    for name in ("report.json", "checkpoints.csv", "behavior.csv", "table1.csv",
                 "records.jsonl"):
        assert (first_dir / name).read_bytes() == (second_dir / name).read_bytes(), name


def test_records_jsonl_carries_per_example_rows(tmp_path):
    emit_report(full_report(), tmp_path)
    rows = [json.loads(l) for l in (tmp_path / "records.jsonl").read_text().splitlines()]
    assert len(rows) == 8
    assert {r["step"] for r in rows} == {500, 1000}
    sample = rows[0]
    assert set(sample) == {
        "id", "step", "behavior", "exact", "edit_distance", "ned",
        "syntax_valid", "limit_exceeded", "near_copy", "pred_len",
    }


def test_unwritable_output_is_an_environment_failure(tmp_path):
    if os.geteuid() == 0:
        pytest.skip("running as root; directory permissions are not enforced")
    locked = tmp_path / "locked"
    locked.mkdir()
    locked.chmod(stat.S_IRUSR | stat.S_IXUSR)
    try:
        with pytest.raises(EnvironmentFailure):
            emit_report(full_report(), locked)
    finally:
        locked.chmod(stat.S_IRWXU)


def test_output_path_blocked_by_a_file_is_an_environment_failure(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    with pytest.raises(EnvironmentFailure, match="output directory"):
        emit_report(full_report(), blocker / "out")


def test_output_file_blocked_by_a_directory_leaves_no_temp_file(tmp_path):
    (tmp_path / "report.json").mkdir()
    with pytest.raises(EnvironmentFailure, match="cannot write"):
        emit_report(full_report(), tmp_path)
    assert not list(tmp_path.glob(".*.tmp"))


def test_file_digest_is_sha256(tmp_path):
    path = tmp_path / "x"
    path.write_bytes(b"abc")
    assert file_digest(path) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


FIXTURES = sorted((Path(__file__).parent / "data").glob("*.jsonl"))


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.name)
def test_digests_equal_hashlib_on_fixture_inputs(path):
    # The package hashes with the interpreter's built-in SHA-256 module,
    # not hashlib's OpenSSL one; the digests must be the same.
    assert file_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()
    for snippet_id, _code in load_snippets(path):
        for parts in [(42, snippet_id), (7, 500, snippet_id), (42, "case", snippet_id)]:
            key = ":".join(map(str, parts)).encode("utf-8")
            assert seeded_rank(*parts) == hashlib.sha256(key).hexdigest()


def test_file_digest_equals_hashlib_across_read_blocks(tmp_path):
    path = tmp_path / "big"
    path.write_bytes(bytes(range(256)) * 10_000)  # 2.4 MiB: three 1 MiB reads
    assert file_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()


# ----------------------------------------------------------------------
# cases


def case_inputs(step=500):
    series, records_by_step = tracked()
    return examples(), records_by_step[step]


def test_provenance_prints_its_fields():
    p = Provenance(seed=3, config={"command": "eval"})
    assert repr(p) == (
        "Provenance(seed=3, inputs={}, config={'command': 'eval'}, "
        f"tool='repairdx', version={p.version!r})"
    )


def test_extract_cases_is_deterministic_and_sorted():
    exs, records = case_inputs()
    one = extract_cases(exs, records, 3, seed=42)
    two = extract_cases(exs, records, 3, seed=42)
    assert one == two
    ids = [c.example_id for c in one.cases]
    assert ids == sorted(ids)
    assert isinstance(one, CaseBundle)


def test_extract_cases_seed_changes_the_draw():
    exs, records = case_inputs()
    draws = {
        tuple(c.example_id for c in extract_cases(exs, records, 2, seed=s).cases)
        for s in range(12)
    }
    assert len(draws) > 1


def test_case_carries_recomputed_diffs():
    exs, records = case_inputs()
    bundle = extract_cases(exs, records, 4, seed=42)
    by_id = {c.example_id: c for c in bundle.cases}
    copy_case = by_id["bug-001"]
    assert copy_case.diff_vs_buggy == ""  # prediction equals input
    assert "-" in copy_case.diff_vs_fixed and "+" in copy_case.diff_vs_fixed
    changed = by_id["bug-002"]
    assert "count = 1" in changed.diff_vs_buggy
    assert "count = 2" in changed.diff_vs_buggy


def test_extract_cases_validates_k():
    exs, records = case_inputs()
    with pytest.raises(InputError):
        extract_cases(exs, records, 0, seed=42)
    with pytest.raises(InputError):
        extract_cases(exs, records, 99, seed=42)


def test_extract_cases_names_an_example_it_lacks():
    exs, records = case_inputs()
    with pytest.raises(InputError, match="record references unknown example 'bug-001'"):
        extract_cases([ex for ex in exs if ex.id != "bug-001"], records, 4, seed=42)


def test_case_text_is_the_prediction_its_record_measured():
    exs, records = case_inputs()
    assert [r.prediction for r in records] == [
        p.prediction for p in sorted(predictions(), key=lambda p: p.id) if p.step == 500]
    records = [r._replace(prediction=r.prediction.replace("count", "total"))
               if r.example_id == "bug-002" else r for r in records]
    case = extract_cases(exs, records, 4, seed=42).cases[1]
    assert case.example_id == "bug-002"
    assert case.prediction == "void reset ( ) { total = 2 ; }"
    assert "+void reset ( ) { total = 2 ; }" in case.diff_vs_buggy


def test_build_report_needs_the_final_step_records():
    series, records_by_step = tracked()
    del records_by_step[series.final.step]
    with pytest.raises(InputError,
                       match=f"no per-example records for final step {series.final.step}"):
        build_report(corpus_stats(examples()), series, records_by_step, Provenance(seed=42))


def test_emit_cases_writes_json(tmp_path):
    exs, records = case_inputs()
    bundle = extract_cases(exs, records, 2, seed=42)
    path = emit_cases(bundle, tmp_path)
    obj = json.loads(path.read_text())
    assert obj["seed"] == 42
    assert obj["k"] == 2
    assert len(obj["cases"]) == 2
    for case in obj["cases"]:
        assert {"id", "behavior", "syntax_valid", "error_count", "buggy",
                "fixed", "prediction", "diff_vs_buggy", "diff_vs_fixed"} <= set(case)
