"""repairdx: diagnostics for program-repair model outputs.

The toolkit answers, over dumped model predictions for buggy/fixed Java
method pairs: is the output grammatical Java (syntax validity), how close
is it to the reference fix (exact match, normalized edit distance), and
what did the model actually do (copy its input, modify it, or fix it) —
per training checkpoint, deterministically, with machine-readable
reports.

Importing the package loads none of its modules. Each public name is
imported from its module on first access (PEP 562) and then kept here,
so a command or a script pays only for the modules it uses.
"""

from importlib import import_module as _import_module

# The one source of the version; report.json stamps it, and pyproject.toml
# states the same string.
__version__ = "0.1.0"

# Each public name -> the module that defines it.
_EXPORTS = {
    "AbstractionMapping": "abstraction",
    "AbstractionReport": "abstraction",
    "BehaviorClass": "metrics",
    "Case": "report",
    "CaseBundle": "report",
    "CheckpointRecord": "tracking",
    "CheckpointSeries": "tracking",
    "CorpusStats": "corpus",
    "EnvironmentFailure": "errors",
    "EvalRecord": "metrics",
    "EvalReport": "report",
    "InputError": "errors",
    "Prediction": "corpus",
    "Provenance": "report",
    "RepairExample": "corpus",
    "SummaryStats": "metrics",
    "SyntaxVerdict": "syntax",
    "TrackingConfig": "corpus",
    "UnparseableCodeError": "abstraction",
    "UsageError": "errors",
    "Violation": "abstraction",
    "abstract_identifiers": "abstraction",
    "aggregate": "metrics",
    "build_report": "report",
    "build_series": "tracking",
    "check_conformance": "abstraction",
    "check_syntax": "syntax",
    "classify_behavior": "metrics",
    "corpus_stats": "corpus",
    "emit_cases": "report",
    "emit_report": "report",
    "evaluate_examples": "tracking",
    "exact_match": "metrics",
    "extract_cases": "report",
    "file_digest": "report",
    "filter_split": "corpus",
    "is_near_copy": "metrics",
    "levenshtein": "metrics",
    "load_examples": "corpus",
    "load_loss_log": "corpus",
    "load_predictions": "corpus",
    "load_snippets": "corpus",
    "normalized_edit_distance": "metrics",
    "predictions_by_step": "corpus",
    "run_tracking": "tracking",
    "sample_validation": "corpus",
    "summarize_records": "tracking",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
