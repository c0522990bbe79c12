"""repairdx: diagnostics for program-repair model outputs.

The toolkit answers, over dumped model predictions for buggy/fixed Java
method pairs: is the output grammatical Java (syntax validity), how close
is it to the reference fix (exact match, normalized edit distance), and
what did the model actually do (copy its input, modify it, or fix it) —
per training checkpoint, deterministically, with machine-readable
reports.
"""

from .abstraction import (
    AbstractionMapping,
    AbstractionReport,
    UnparseableCodeError,
    Violation,
    abstract_identifiers,
    check_conformance,
)
from .corpus import (
    CorpusStats,
    Prediction,
    RepairExample,
    TrackingConfig,
    corpus_stats,
    filter_split,
    load_examples,
    load_predictions,
    predictions_by_step,
    sample_validation,
)
from .errors import EnvironmentFailure, InputError, UsageError
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
from .report import (
    Case,
    CaseBundle,
    EvalReport,
    Provenance,
    behavior_distribution,
    build_report,
    emit_cases,
    emit_report,
    extract_cases,
    file_digest,
)
from .syntax import (
    SyntaxVerdict,
    check_syntax,
    syntax_validity,
    wrap_method,
)
from .tracking import (
    CheckpointRecord,
    CheckpointSeries,
    build_series,
    evaluate_examples,
    load_loss_log,
    run_tracking,
    summarize_records,
)

try:
    from importlib.metadata import version as _version

    __version__ = _version("repairdx")
except Exception:  # pragma: no cover - not installed
    __version__ = "0.0.0+unpackaged"

__all__ = [
    "AbstractionMapping",
    "AbstractionReport",
    "BehaviorClass",
    "Case",
    "CaseBundle",
    "CheckpointRecord",
    "CheckpointSeries",
    "CorpusStats",
    "EnvironmentFailure",
    "EvalRecord",
    "EvalReport",
    "InputError",
    "Prediction",
    "Provenance",
    "RepairExample",
    "SummaryStats",
    "SyntaxVerdict",
    "TrackingConfig",
    "UnparseableCodeError",
    "UsageError",
    "Violation",
    "abstract_identifiers",
    "aggregate",
    "behavior_distribution",
    "build_report",
    "build_series",
    "check_conformance",
    "check_syntax",
    "classify_behavior",
    "corpus_stats",
    "emit_cases",
    "emit_report",
    "evaluate_examples",
    "exact_match",
    "extract_cases",
    "file_digest",
    "filter_split",
    "is_near_copy",
    "levenshtein",
    "load_examples",
    "load_loss_log",
    "load_predictions",
    "normalized_edit_distance",
    "predictions_by_step",
    "run_tracking",
    "sample_validation",
    "summarize_records",
    "syntax_validity",
    "wrap_method",
]
