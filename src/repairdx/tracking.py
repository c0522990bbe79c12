"""Checkpoint-by-checkpoint evaluation of prediction dumps.

The harness is strictly post-hoc: it consumes predictions a training run
dumped at each checkpoint, never the model itself. The (step, example)
tasks of a run are measured in one pass. Each distinct prediction text
is judged once per run, which can fan out to one pool of worker
processes for the whole run; records are built in the calling process
and always reduced in example-id order, so runs are deterministic
regardless of worker count.
Loss values are ingested from an auxiliary log when available — never
computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .corpus import (
    Prediction,
    RepairExample,
    TrackingConfig,
    _iter_jsonl,
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

_PCT_TOL = 1e-9


@dataclass(frozen=True)
class CheckpointRecord:
    """Aggregated metrics for one checkpoint.

    The three behavior-class percentages partition the sample and sum to
    100; ``non_copy_pct`` is the complementary view (how often the model
    changed its input at all, exact fixes included).
    """

    step: int
    n: int
    syntax_validity_pct: float
    exact_match_pct: float
    copy_pct: float
    modification_pct: float
    ned_stats: SummaryStats
    eval_loss: float | None = None
    near_copy_count: int = 0

    def __post_init__(self):
        for name in ("syntax_validity_pct", "exact_match_pct", "copy_pct", "modification_pct"):
            value = getattr(self, name)
            if not -_PCT_TOL <= value <= 100 + _PCT_TOL:
                raise InputError(f"{name} out of range [0, 100]: {value!r}")
        total = self.exact_match_pct + self.copy_pct + self.modification_pct
        if abs(total - 100.0) > _PCT_TOL:
            raise InputError(
                f"behavior percentages must sum to 100, got {total!r} at step {self.step}"
            )
        if self.n <= 0:
            raise InputError(f"checkpoint at step {self.step} has no examples")

    @property
    def non_copy_pct(self) -> float:
        return self.exact_match_pct + self.modification_pct


@dataclass
class CheckpointSeries:
    """Checkpoint records in strictly increasing step order."""

    records: list[CheckpointRecord] = field(default_factory=list)

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

def _measure(task: tuple, valid: bool) -> EvalRecord:
    """The record of one task, given the syntax verdict on its prediction."""
    example_id, buggy, fixed, pred_text, step, em_normalize, ned_tokens = task
    behavior = classify_behavior(buggy, pred_text, fixed)
    distance = levenshtein(pred_text, fixed)
    if ned_tokens:
        ned = normalized_edit_distance(pred_text, fixed, tokens=True)
    else:  # character NED is this same distance, scaled by the longer side
        longer = max(len(pred_text), len(fixed))
        ned = distance / longer if longer else 0.0
    return EvalRecord(
        example_id=example_id,
        step=step,
        behavior=behavior,
        exact=exact_match(pred_text, fixed, normalize=em_normalize),
        edit_distance=distance,
        ned=ned,
        syntax_valid=valid,
        near_copy=is_near_copy(pred_text, buggy),
        pred_len=len(pred_text),
    )


def _judge_in_worker(text: str) -> bool:
    return check_syntax(text).valid


def _tasks(
    step: int | None,
    examples: list[RepairExample],
    predictions: dict[str, Prediction],
    em_normalize: str,
    ned_tokens: bool,
) -> list[tuple]:
    """One measurement task per example; every example needs a prediction."""
    tasks = []
    for ex in examples:
        pred = predictions.get(ex.id)
        if pred is None:
            raise InputError(
                f"no rank-0 prediction for sampled example {ex.id!r}"
                + (f" at step {step}" if step is not None else "")
            )
        tasks.append(
            (ex.id, ex.buggy, ex.fixed, pred.prediction, pred.step, em_normalize, ned_tokens)
        )
    return tasks


def _evaluate(groups: list[list[tuple]], workers: int) -> list[list[EvalRecord]]:
    """Measure every task of a run.

    Each distinct prediction text is judged once, in one worker pool (or
    one serial loop); the records are then built here from those
    verdicts. Records come back per group of tasks, each group sorted by
    example id.
    """
    tasks = [t for group in groups for t in group]
    texts = list(dict.fromkeys(t[3] for t in tasks))
    workers = min(workers, len(texts))
    if workers > 1:
        import multiprocessing  # only a pooled run pays for the import

        ctx = multiprocessing.get_context()
        chunk = max(1, len(texts) // (workers * 4))
        with ctx.Pool(workers) as pool:
            verdicts = pool.map(_judge_in_worker, texts, chunksize=chunk)
    else:
        verdicts = [check_syntax(text).valid for text in texts]
    valid = dict(zip(texts, verdicts))
    done = (_measure(t, valid[t[3]]) for t in tasks)
    return [sorted((next(done) for _ in group), key=lambda r: r.example_id) for group in groups]


def evaluate_examples(
    examples: list[RepairExample],
    predictions: dict[str, Prediction],
    step: int | None = None,
    em_normalize: str = "none",
    ned_tokens: bool = False,
    workers: int = 1,
) -> list[EvalRecord]:
    """Measure every example against its prediction.

    ``predictions`` maps example id to the rank-0 prediction for one
    step. Every example must be covered; a missing prediction is an input
    error naming the example. Records come back sorted by example id.
    """
    tasks = _tasks(step, examples, predictions, em_normalize, ned_tokens)
    return _evaluate([tasks], workers)[0]


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
    n = len(records)
    counts = {cls: 0 for cls in BehaviorClass}
    valid = 0
    near = 0
    for r in records:
        counts[r.behavior] += 1
        if r.syntax_valid:
            valid += 1
        if r.near_copy:
            near += 1
    return CheckpointRecord(
        step=step,
        n=n,
        syntax_validity_pct=100.0 * valid / n,
        exact_match_pct=100.0 * counts[BehaviorClass.EXACT_MATCH] / n,
        copy_pct=100.0 * counts[BehaviorClass.COPY] / n,
        modification_pct=100.0 * counts[BehaviorClass.MODIFICATION] / n,
        ned_stats=aggregate([r.ned for r in records]),
        eval_loss=eval_loss,
        near_copy_count=near,
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
    workers: int = 1,
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
        _tasks(step, sample_validation(examples, config, step), by_step[step],
               em_normalize, ned_tokens)
        for step in steps
    ]
    records_by_step = dict(zip(steps, _evaluate(groups, workers)))
    checkpoint_records = [
        summarize_records(records, step=step, eval_loss=loss_by_step.get(step))
        for step, records in records_by_step.items()
    ]
    return build_series(checkpoint_records), records_by_step


def load_loss_log(path) -> dict[int, float]:
    """Read ``{"step": int, "train_loss"?: float, "eval_loss"?: float}``
    lines; return eval_loss by step. Loss is ingested, never computed."""
    path = Path(path)
    losses: dict[int, float] = {}
    for lineno, obj in _iter_jsonl(path):
        if "step" not in obj:
            raise InputError(f"{path}:{lineno}: expected an object with a 'step' field")
        step = obj["step"]
        if not isinstance(step, int) or isinstance(step, bool) or step < 0:
            raise InputError(f"{path}:{lineno}: 'step' must be a non-negative int")
        loss = obj.get("eval_loss")
        if loss is None:
            continue
        if not isinstance(loss, (int, float)) or isinstance(loss, bool):
            raise InputError(f"{path}:{lineno}: 'eval_loss' must be a number")
        losses[step] = float(loss)
    return losses
