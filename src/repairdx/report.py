"""Machine-readable result emission: JSON + CSV summaries and case bundles.

Everything written here is deterministic: equal inputs produce
byte-identical files. Reals are serialized with six decimal places
(round-half-even) so golden files survive platform changes, the files of
one command are written as a set (every temp file first, then the
renames), and per-example records are emitted alongside the aggregates
so every percentage in the report can be recomputed from the same
directory.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import __version__
from ._record import SlottedRecord
from .corpus import seeded_rank, sha256
from .errors import InputError
from .fileset import jsonl, write_files
from .metrics import aggregate
from .syntax import check_syntax

if TYPE_CHECKING:
    from .corpus import CorpusStats, RepairExample
    from .metrics import BehaviorClass, EvalRecord, SummaryStats
    from .syntax import SyntaxVerdict
    from .tracking import CheckpointRecord, CheckpointSeries

TOOL_NAME = "repairdx"

CHECKPOINTS_HEADER = (
    "step,n,syntax_validity,exact_match,copy_rate,modification_rate,"
    "ned_mean,ned_median,ned_std,eval_loss"
)
BEHAVIOR_HEADER = "class,count,percentage"
TABLE1_HEADER = "metric,mean,median,std"


def file_digest(path) -> str:
    """SHA-256 of a file's bytes (stable content hash for provenance)."""
    h = sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Provenance(SlottedRecord):
    """Everything needed to reproduce a report from scratch."""

    __slots__ = ("seed", "inputs", "config", "tool", "version")

    def __init__(self, seed: int, inputs: dict[str, str] | None = None,
                 config: dict | None = None, tool: str = TOOL_NAME,
                 version: str = __version__):
        self.seed = seed
        self.inputs = {} if inputs is None else inputs  # label -> sha256
        self.config = {} if config is None else config
        self.tool = tool
        self.version = version

    def to_obj(self) -> dict:
        return {
            "tool": self.tool,
            "version": self.version,
            "seed": self.seed,
            "parser": "builtin",
            "config": dict(sorted(self.config.items())),
            "inputs": dict(sorted(self.inputs.items())),
        }


class EvalReport(NamedTuple):
    """Full result of an evaluation or tracking run."""

    corpus_stats: CorpusStats
    series: CheckpointSeries
    table1: list[tuple[str, SummaryStats]]
    provenance: Provenance
    records_by_step: dict[int, list[EvalRecord]]


class Case(NamedTuple):
    """One qualitative inspection case with recomputed diffs."""

    example_id: str
    buggy: str
    fixed: str
    prediction: str
    behavior: BehaviorClass
    verdict: SyntaxVerdict
    diff_vs_buggy: str
    diff_vs_fixed: str


class CaseBundle(NamedTuple):
    seed: int
    cases: list[Case]


def _unified(a: str, b: str, a_name: str, b_name: str) -> str:
    import difflib  # only a case bundle renders diffs

    lines = difflib.unified_diff(
        a.splitlines(), b.splitlines(), fromfile=a_name, tofile=b_name, lineterm=""
    )
    return "\n".join(lines)


def extract_cases(
    examples: list[RepairExample],
    records: list[EvalRecord],
    k: int,
    seed: int,
) -> CaseBundle:
    """Seeded deterministic sample of k cases, with both diffs rendered.

    The k records with the lowest ``corpus.seeded_rank(seed, "case", id)``
    are chosen, and come back in example-id order. Each case's text is
    the prediction its record measured; diffs are recomputed here from
    that text, never copied from elsewhere.
    """
    if k <= 0:
        raise InputError(f"case count must be positive, got {k}")
    if k > len(records):
        raise InputError(f"asked for {k} cases but only {len(records)} records exist")
    by_id = {ex.id: ex for ex in examples}
    ranked = sorted(records, key=lambda r: seeded_rank(seed, "case", r.example_id))
    chosen = sorted(ranked[:k], key=lambda r: r.example_id)
    cases: list[Case] = []
    for record in chosen:
        ex = by_id.get(record.example_id)
        if ex is None:
            raise InputError(f"record references unknown example {record.example_id!r}")
        text = record.prediction
        cases.append(
            Case(
                example_id=ex.id,
                buggy=ex.buggy,
                fixed=ex.fixed,
                prediction=text,
                behavior=record.behavior,
                verdict=check_syntax(text),
                diff_vs_buggy=_unified(ex.buggy, text, "buggy", "prediction"),
                diff_vs_fixed=_unified(text, ex.fixed, "prediction", "fixed"),
            )
        )
    return CaseBundle(seed=seed, cases=cases)


def build_report(
    corpus_stats: CorpusStats,
    series: CheckpointSeries,
    records_by_step: dict[int, list[EvalRecord]],
    provenance: Provenance,
) -> EvalReport:
    """Assemble the full report from a tracking (or single-step) run.

    Behavior counts and NED come from the final checkpoint record. Only
    the Exact Match row of table1 is aggregated here, from the records'
    ``exact`` field, since it follows ``--em-normalize`` and the behavior
    class does not.
    """
    final = series.final
    final_records = records_by_step.get(final.step)
    if not final_records:
        raise InputError(f"no per-example records for final step {final.step}")
    exact = aggregate([1.0 if r.exact else 0.0 for r in final_records])
    return EvalReport(
        corpus_stats=corpus_stats,
        series=series,
        table1=[("Exact Match", exact), ("Normalized Edit Distance", final.ned_stats)],
        provenance=provenance,
        records_by_step=records_by_step,
    )


# ----------------------------------------------------------------------
# serialization helpers

def _f(x: float) -> str:
    """Fixed six-decimal CSV form (round-half-even via format)."""
    return f"{x:.6f}"


def _r(x: float | None):
    """JSON form: six decimals, or None."""
    return None if x is None else round(x, 6)


def _stats_obj(s: SummaryStats) -> dict:
    return {
        "mean": _r(s.mean),
        "median": _r(s.median),
        "std": _r(s.std),
        "min": _r(s.min),
        "max": _r(s.max),
        "n": s.n,
    }


def _checkpoint_obj(r: CheckpointRecord) -> dict:
    return {
        "step": r.step,
        "n": r.n,
        "syntax_validity_pct": _r(r.syntax_validity_pct),
        "limit_exceeded_count": r.limit_exceeded_count,
        "exact_match_pct": _r(r.exact_match_pct),
        "copy_pct": _r(r.copy_pct),
        "modification_pct": _r(r.modification_pct),
        "non_copy_pct": _r(r.non_copy_pct),
        "near_copy_count": r.near_copy_count,
        "ned": _stats_obj(r.ned_stats),
        "eval_loss": _r(r.eval_loss),
    }


def _record_obj(r: EvalRecord) -> dict:
    return {
        "id": r.example_id,
        "step": r.step,
        "behavior": r.behavior.value,
        "exact": r.exact,
        "edit_distance": r.edit_distance,
        "ned": _r(r.ned),
        "syntax_valid": r.syntax_valid,
        "limit_exceeded": r.limit_exceeded,
        "near_copy": r.near_copy,
        "pred_len": r.pred_len,
    }


def render_checkpoints_csv(series: CheckpointSeries) -> str:
    lines = [CHECKPOINTS_HEADER]
    for r in series.records:
        loss = "" if r.eval_loss is None else _f(r.eval_loss)
        lines.append(
            f"{r.step},{r.n},{_f(r.syntax_validity_pct)},{_f(r.exact_match_pct)},"
            f"{_f(r.copy_pct)},{_f(r.modification_pct)},{_f(r.ned_stats.mean)},"
            f"{_f(r.ned_stats.median)},{_f(r.ned_stats.std)},{loss}"
        )
    return "\n".join(lines) + "\n"


def render_behavior_csv(final: CheckpointRecord) -> str:
    lines = [BEHAVIOR_HEADER]
    for cls, count in final.behavior_counts.items():
        lines.append(f"{cls.value},{count},{_f(100.0 * count / final.n)}")
    return "\n".join(lines) + "\n"


def render_table1_csv(table1: list[tuple[str, SummaryStats]]) -> str:
    lines = [TABLE1_HEADER]
    for name, stats in table1:
        lines.append(f"{name},{_f(stats.mean)},{_f(stats.median)},{_f(stats.std)}")
    return "\n".join(lines) + "\n"


def render_report_json(report: EvalReport) -> str:
    obj = {
        "provenance": report.provenance.to_obj(),
        "corpus_stats": report.corpus_stats.to_obj(),
        "series": [_checkpoint_obj(r) for r in report.series.records],
        "final": _checkpoint_obj(report.series.final),
        "behavior_counts": {
            cls.value: count for cls, count in report.series.final.behavior_counts.items()
        },
        "table1": [
            {"metric": name, **_stats_obj(stats)} for name, stats in report.table1
        ],
    }
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def render_records_jsonl(records_by_step: dict[int, list[EvalRecord]]) -> str:
    return jsonl(
        _record_obj(r) for step in sorted(records_by_step) for r in records_by_step[step]
    )


def emit_report(report: EvalReport, out_dir, cases: CaseBundle | None = None) -> list[Path]:
    """Write report.json, checkpoints.csv, behavior.csv, table1.csv,
    records.jsonl and, given ``cases``, cases.json into ``out_dir`` as one
    set. Returns the written paths."""
    files = {
        "report.json": render_report_json(report),
        "checkpoints.csv": render_checkpoints_csv(report.series),
        "behavior.csv": render_behavior_csv(report.series.final),
        "table1.csv": render_table1_csv(report.table1),
    }
    records_text = render_records_jsonl(report.records_by_step)
    if records_text:
        files["records.jsonl"] = records_text
    if cases is not None:
        files["cases.json"] = render_cases_json(cases)
    return write_files(out_dir, files)


def _case_obj(case: Case) -> dict:
    return {
        "id": case.example_id,
        "behavior": case.behavior.value,
        "syntax_valid": case.verdict.valid,
        "limit_exceeded": case.verdict.limit_exceeded,
        "error_count": case.verdict.error_count,
        "buggy": case.buggy,
        "fixed": case.fixed,
        "prediction": case.prediction,
        "diff_vs_buggy": case.diff_vs_buggy,
        "diff_vs_fixed": case.diff_vs_fixed,
    }


def render_cases_json(bundle: CaseBundle) -> str:
    obj = {"seed": bundle.seed, "k": len(bundle.cases),
           "cases": [_case_obj(c) for c in bundle.cases]}
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def emit_cases(bundle: CaseBundle, out_dir) -> Path:
    """Write cases.json into ``out_dir``; returns the path."""
    return write_files(out_dir, {"cases.json": render_cases_json(bundle)})[0]
