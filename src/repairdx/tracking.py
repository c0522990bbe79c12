"""Checkpoint-by-checkpoint evaluation of prediction dumps.

The harness is strictly post-hoc: it consumes predictions a training run
dumped at each checkpoint, never the model itself. The (step, example)
tasks of a run are measured in one pass. Each distinct prediction text
is judged once per run, and each distinct (prediction, fix) pair's edit
distance is computed once per run, all in the calling process: no
worker process or thread is started. Records are always reduced in
example-id order.
A prediction nested past the parser's depth guard is not valid, and
its record says ``limit_exceeded``; each checkpoint counts those.
Loss values are attached by step when a caller passes them, as read
from an auxiliary log by ``corpus.load_loss_log``: never computed. This
module reads no file.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from ._record import SlottedRecord
from .corpus import (
    Prediction,
    RepairExample,
    TrackingConfig,
    predictions_by_step,
    sample_validation,
)
from .errors import InputError
from .metrics import (
    BehaviorClass,
    EvalRecord,
    SummaryStats,
    aggregate,
    classify_behavior,
    exact_match,
    is_near_copy,
    levenshtein,
    normalized_edit_distance,
)
from .syntax import check_syntax


class _CheckpointFields(NamedTuple):
    step: int
    n: int
    valid_count: int
    exact_match_count: int
    copy_count: int
    modification_count: int
    ned_stats: SummaryStats
    eval_loss: float | None = None
    near_copy_count: int = 0
    limit_exceeded_count: int = 0


class CheckpointRecord(_CheckpointFields):
    """Aggregated metrics for one checkpoint.

    The counts are the reduction; the percentages are read from them.
    The three behavior-class counts partition the sample, so their
    percentages sum to 100; ``non_copy_pct`` is the complementary view
    (how often the model changed its input at all, exact fixes included).
    ``limit_exceeded_count`` counts the predictions that are not valid
    because the parser's depth guard stopped their parse; they stay in
    ``n``, the denominator of ``syntax_validity_pct``. A ``NamedTuple``
    checked once when built, like ``corpus.TrackingConfig``.
    """

    __slots__ = ()

    def __init__(self, *_args, **_kwargs):
        if self.n <= 0:
            raise InputError(f"checkpoint at step {self.step} has no examples")
        for name in ("valid_count", "exact_match_count", "copy_count",
                     "modification_count", "near_copy_count"):
            value = getattr(self, name)
            if not 0 <= value <= self.n:
                raise InputError(f"{name} out of range [0, {self.n}]: {value!r}")
        if not 0 <= self.limit_exceeded_count <= self.n - self.valid_count:
            raise InputError(
                f"limit_exceeded_count out of range [0, {self.n - self.valid_count}] "
                f"(n - valid_count): {self.limit_exceeded_count!r}"
            )
        total = self.exact_match_count + self.copy_count + self.modification_count
        if total != self.n:
            raise InputError(
                f"behavior counts must sum to n={self.n}, got {total} at step {self.step}"
            )

    syntax_validity_pct = property(lambda self: 100.0 * self.valid_count / self.n)
    exact_match_pct = property(lambda self: 100.0 * self.exact_match_count / self.n)
    copy_pct = property(lambda self: 100.0 * self.copy_count / self.n)
    modification_pct = property(lambda self: 100.0 * self.modification_count / self.n)

    @property
    def non_copy_pct(self) -> float:
        return self.exact_match_pct + self.modification_pct

    @property
    def behavior_counts(self) -> dict[BehaviorClass, int]:
        """Count per behavior class, in the class order the reports use."""
        counts = (self.exact_match_count, self.copy_count, self.modification_count)
        return dict(zip(BehaviorClass, counts))


class CheckpointSeries(SlottedRecord):
    """Checkpoint records in strictly increasing step order."""

    __slots__ = ("records",)

    def __init__(self, records: list[CheckpointRecord] | None = None):
        self.records = [] if records is None else records

    @property
    def steps(self) -> list[int]:
        return [r.step for r in self.records]

    @property
    def final(self) -> CheckpointRecord:
        if not self.records:
            raise InputError("series is empty")
        return self.records[-1]


# ----------------------------------------------------------------------
# per-example evaluation

def _distance(text: str, fixed: str, ned_tokens: bool) -> tuple[int, float]:
    """``(edit_distance, ned)`` of a prediction text against its fix."""
    distance = levenshtein(text, fixed)
    if ned_tokens:
        return distance, normalized_edit_distance(text, fixed, tokens=True)
    longer = max(len(text), len(fixed))  # character NED: this distance, scaled
    return distance, distance / longer if longer else 0.0


def _tasks(
    step: int | None,
    examples: list[RepairExample],
    predictions: dict[str, Prediction],
) -> list[tuple[RepairExample, Prediction]]:
    """One (example, prediction) pair per example; each needs a prediction."""
    tasks = []
    for ex in examples:
        pred = predictions.get(ex.id)
        if pred is None:
            raise InputError(
                f"no rank-0 prediction for sampled example {ex.id!r}"
                + (f" at step {step}" if step is not None else "")
            )
        tasks.append((ex, pred))
    return tasks


def _evaluate(groups: list[list[tuple[RepairExample, Prediction]]],
              em_normalize: str, ned_tokens: bool) -> list[list[EvalRecord]]:
    """Measure every (example, prediction) pair of a run.

    Each distinct prediction text is judged once, and each distinct
    (prediction, fix) pair's distance is computed once, for every record
    that holds the text or the pair; a copy repeats its pair at every
    step. Records come back per group of pairs, each group sorted by
    example id.
    """
    judge = cache(check_syntax)
    distance = cache(lambda text, fixed: _distance(text, fixed, ned_tokens))

    def measure(ex: RepairExample, pred: Prediction) -> EvalRecord:
        text, fixed = pred.prediction, ex.fixed
        verdict = judge(text)
        edit_distance, ned = distance(text, fixed)
        return EvalRecord(
            example_id=ex.id,
            step=pred.step,
            behavior=classify_behavior(ex.buggy, text, fixed),
            exact=exact_match(text, fixed, normalize=em_normalize),
            edit_distance=edit_distance,
            ned=ned,
            syntax_valid=verdict.valid,
            near_copy=is_near_copy(text, ex.buggy),
            pred_len=len(text),
            limit_exceeded=verdict.limit_exceeded,
        )

    return [sorted((measure(ex, pred) for ex, pred in group), key=lambda r: r.example_id)
            for group in groups]


def evaluate_examples(
    examples: list[RepairExample],
    predictions: dict[str, Prediction],
    step: int | None = None,
    em_normalize: str = "none",
    ned_tokens: bool = False,
) -> list[EvalRecord]:
    """Measure every example against its prediction.

    ``predictions`` maps example id to the rank-0 prediction for one
    step. Every example must be covered; a missing prediction is an input
    error naming the example. Records come back sorted by example id.
    """
    tasks = _tasks(step, examples, predictions)
    return _evaluate([tasks], em_normalize, ned_tokens)[0]


def summarize_records(
    records: list[EvalRecord],
    step: int | None = None,
    eval_loss: float | None = None,
) -> CheckpointRecord:
    """Reduce per-example records into one checkpoint record."""
    if not records:
        raise InputError("cannot summarize zero evaluation records")
    if step is None:
        step = records[0].step
    counts = {cls: 0 for cls in BehaviorClass}
    valid = 0
    near = 0
    cut = 0
    for r in records:
        counts[r.behavior] += 1
        if r.syntax_valid:
            valid += 1
        if r.near_copy:
            near += 1
        if r.limit_exceeded:
            cut += 1
    return CheckpointRecord(
        step=step,
        n=len(records),
        valid_count=valid,
        exact_match_count=counts[BehaviorClass.EXACT_MATCH],
        copy_count=counts[BehaviorClass.COPY],
        modification_count=counts[BehaviorClass.MODIFICATION],
        ned_stats=aggregate([r.ned for r in records]),
        eval_loss=eval_loss,
        near_copy_count=near,
        limit_exceeded_count=cut,
    )


# ----------------------------------------------------------------------
# series

def build_series(records: list[CheckpointRecord]) -> CheckpointSeries:
    """Order records by step; duplicate steps are input errors."""
    ordered = sorted(records, key=lambda r: r.step)
    for a, b in zip(ordered, ordered[1:]):
        if a.step == b.step:
            raise InputError(f"duplicate checkpoint at step {a.step}")
    return CheckpointSeries(records=ordered)


def run_tracking(
    examples: list[RepairExample],
    predictions: list[Prediction],
    config: TrackingConfig,
    loss_by_step: dict[int, float] | None = None,
    em_normalize: str = "none",
    ned_tokens: bool = False,
) -> tuple[CheckpointSeries, dict[int, list[EvalRecord]]]:
    """Evaluate every step present in a prediction dump.

    For each step, the validation sample is re-drawn deterministically
    from (seed, step) — or from the seed alone under ``fixed_sample`` —
    and each sampled example must have a rank-0 prediction at that step.
    """
    by_step = predictions_by_step(predictions)
    if not by_step:
        raise InputError("prediction set contains no rank-0 predictions")
    loss_by_step = loss_by_step or {}
    steps = sorted(by_step)
    groups = [
        _tasks(step, sample_validation(examples, config, step), by_step[step])
        for step in steps
    ]
    records_by_step = dict(zip(steps, _evaluate(groups, em_normalize, ned_tokens)))
    checkpoint_records = [
        summarize_records(records, step=step, eval_loss=loss_by_step.get(step))
        for step, records in records_by_step.items()
    ]
    return build_series(checkpoint_records), records_by_step
