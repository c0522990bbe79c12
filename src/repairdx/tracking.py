"""Checkpoint-by-checkpoint evaluation of prediction dumps.

The harness is strictly post-hoc: it consumes predictions a training run
dumped at each checkpoint, never the model itself. Per-example metric
computation can fan out to worker processes; results are always reduced
in example-id order, so runs are deterministic regardless of worker
count. Loss values are ingested from an auxiliary log when available —
never computed.
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import dataclass, field
from pathlib import Path

from .bindings import ParserContract, get_parser
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

_WORKER_PARSER: ParserContract | None = None


def _init_worker(parser_name: str) -> None:
    global _WORKER_PARSER
    _WORKER_PARSER = get_parser(parser_name)


def _measure(task: tuple) -> EvalRecord:
    example_id, buggy, fixed, pred_text, step, em_normalize, ned_tokens = task
    parser = _WORKER_PARSER
    verdict = check_syntax(pred_text, parser=parser)
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
        syntax_valid=verdict.valid,
        near_copy=is_near_copy(pred_text, buggy),
        pred_len=len(pred_text),
    )


def evaluate_examples(
    examples: list[RepairExample],
    predictions: dict[str, Prediction],
    parser: ParserContract | None = None,
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
    if parser is None:
        parser = get_parser()
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
    if workers > 1 and len(tasks) > 1:
        ctx = multiprocessing.get_context("fork")
        chunk = max(1, len(tasks) // (workers * 4))
        with ctx.Pool(workers, initializer=_init_worker, initargs=(parser.name,)) as pool:
            records = pool.map(_measure, tasks, chunksize=chunk)
    else:
        global _WORKER_PARSER
        previous = _WORKER_PARSER
        _WORKER_PARSER = parser
        try:
            records = [_measure(t) for t in tasks]
        finally:
            _WORKER_PARSER = previous
    records.sort(key=lambda r: r.example_id)
    return records


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


def evaluate_checkpoint(
    examples: list[RepairExample],
    predictions: list[Prediction],
    parser: ParserContract | None = None,
    step: int | None = None,
    eval_loss: float | None = None,
    em_normalize: str = "none",
    ned_tokens: bool = False,
    workers: int = 1,
) -> CheckpointRecord:
    """Evaluate one checkpoint: a sampled example list plus its predictions.

    Only rank-0 predictions participate. The step is taken from the
    predictions when not given; mixed steps in one call are rejected.
    """
    by_id: dict[str, Prediction] = {}
    for pred in predictions:
        if pred.rank != 0:
            continue
        if step is None:
            step = pred.step
        elif pred.step != step:
            raise InputError(
                f"predictions span multiple steps ({step} and {pred.step}); "
                "evaluate one checkpoint at a time"
            )
        by_id[pred.id] = pred
    records = evaluate_examples(
        examples,
        by_id,
        parser=parser,
        step=step,
        em_normalize=em_normalize,
        ned_tokens=ned_tokens,
        workers=workers,
    )
    return summarize_records(records, step=step, eval_loss=eval_loss)


# ----------------------------------------------------------------------
# series

def build_series(records: list[CheckpointRecord]) -> CheckpointSeries:
    """Order records by step; duplicate steps are input errors."""
    ordered = sorted(records, key=lambda r: r.step)
    for a, b in zip(ordered, ordered[1:]):
        if a.step == b.step:
            raise InputError(f"duplicate checkpoint at step {a.step}")
    return CheckpointSeries(records=ordered)


def series_stats(series: CheckpointSeries, from_step: int = 0) -> SummaryStats:
    """Summary of syntax validity from ``from_step`` onward."""
    window = [r.syntax_validity_pct for r in series.records if r.step >= from_step]
    if not window:
        raise InputError(f"no checkpoints at or after step {from_step}")
    return aggregate(window)


def run_tracking(
    examples: list[RepairExample],
    predictions: list[Prediction],
    config: TrackingConfig,
    parser: ParserContract | None = None,
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
    if parser is None:
        parser = get_parser()
    by_step = predictions_by_step(predictions)
    if not by_step:
        raise InputError("prediction set contains no rank-0 predictions")
    loss_by_step = loss_by_step or {}
    checkpoint_records: list[CheckpointRecord] = []
    records_by_step: dict[int, list[EvalRecord]] = {}
    for step in sorted(by_step):
        sampled = sample_validation(examples, config, step)
        records = evaluate_examples(
            sampled,
            by_step[step],
            parser=parser,
            step=step,
            em_normalize=em_normalize,
            ned_tokens=ned_tokens,
            workers=workers,
        )
        records_by_step[step] = records
        checkpoint_records.append(
            summarize_records(records, step=step, eval_loss=loss_by_step.get(step))
        )
    return build_series(checkpoint_records), records_by_step


def load_loss_log(path) -> dict[int, float]:
    """Read ``{"step": int, "train_loss"?: float, "eval_loss"?: float}``
    lines; return eval_loss by step. Loss is ingested, never computed."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    losses: dict[int, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from None
        if not isinstance(obj, dict) or "step" not in obj:
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
