"""Command-line interface.

Subcommands:

* ``stats``    — corpus shape summary (JSON on stdout)
* ``check``    — syntax verdicts for a file of snippets (JSONL on stdout)
* ``abstract`` — identifier abstraction of a corpus (or conformance check)
* ``eval``     — evaluate one prediction set and emit a report
* ``track``    — evaluate a multi-checkpoint prediction dump
* ``inspect``  — emit a qualitative case bundle

Every input file is read and validated by ``corpus`` before a command
body judges, measures or writes anything, so a malformed input fails
the command with no output. Exit status: 0 success, 1 input/usage error,
2 environment failure, a closed stdout included (say, one piped to
``head``).
All flags are long-form; ``--help`` on any subcommand documents the file
schemas it consumes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache, partial
from importlib import import_module
from pathlib import Path

from . import _EXPORTS
from .errors import EnvironmentFailure, InputError, UsageError
from .fileset import jsonl, write_files

# A command binds the library names it calls into this module's globals
# when it runs (`_bind`), each imported from the module that the
# package's one name table, `repairdx._EXPORTS`, maps it to. So each
# command imports only the modules it needs. A name bound here already,
# such as a wrapper set on this module, is the one that runs.
# `__getattr__` serves the same names to `getattr(repairdx.cli, name)`.


def _bind(*names: str) -> None:
    """Bind each of ``names`` in this module's globals, imported from its
    module, unless it is bound already."""
    scope = globals()
    for name in names:
        if name not in scope:
            scope[name] = getattr(import_module(f".{_EXPORTS[name]}", __package__), name)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(name)
    return globals()[name]


_EXAMPLES_SCHEMA = (
    "examples file: JSON Lines, one object per line: "
    '{"id": str, "buggy": str, "fixed": str, "split"?: str}'
)
_PREDICTIONS_SCHEMA = (
    "predictions file: JSON Lines, one object per line: "
    '{"id": str, "step": int, "prediction": str, "rank"?: int (default 0)}'
)
_LOSS_SCHEMA = (
    "loss log: JSON Lines, one object per line: "
    '{"step": int, "train_loss"?: float, "eval_loss"?: float}'
)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exceptions, not exits."""

    def error(self, message):
        raise UsageError(message)


def _parent(*flags, **kwargs) -> argparse.ArgumentParser:
    """A parser holding one option, for subcommands to take in ``parents=``."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def build_arg_parser() -> _Parser:
    top = _Parser(
        prog="repairdx",
        description="Diagnostics for program-repair model outputs: syntax "
                    "validity, repair metrics, behavior tracking, reports.",
    )
    sub = top.add_subparsers(dest="command", metavar="command")
    sub.required = True
    # Options a subcommand does not declare, for the helpers that read them.
    top.set_defaults(split=None, seed=42, em_normalize="none",
                     ned_tokens=False, step=None, loss_log=None, cases=0)

    # Each option that several subcommands take is declared once, here;
    # --out and --split say per subcommand what they hold.
    corpus = _parent("--corpus", required=True, type=Path, help="examples JSONL file")
    out = partial(_parent, "--out", dest="out_dir", required=True, type=Path)
    split = partial(_parent, "--split", default=None)
    workers = _parent("--workers", type=int, default=1,
                      help="accepted and ignored (must be at least 1): every "
                           "command runs in this one process")
    inputs = [  # eval, track and inspect; each lists --out after them
        corpus,
        _parent("--preds", required=True, type=Path, help="predictions JSONL file"),
        split(help="restrict corpus to one split"),
        _parent("--seed", type=int, default=42,
                help="seed for all deterministic sampling (default: 42)"),
    ]
    metrics = [
        _parent("--em-normalize", choices=["none", "whitespace"], default="none",
                help="exact-match comparison mode for the records' 'exact' field and "
                     "table1's Exact Match row (default: none); the exact_match behavior "
                     "class, as in checkpoints.csv, behavior.csv and on stderr, always "
                     "compares bytes"),
        _parent("--ned-tokens", action="store_true",
                help="compute NED over whitespace tokens instead of characters"),
    ]

    sub.add_parser("stats", help="summarize a corpus",
                   parents=[corpus, split(help="restrict to one split label"), workers],
                   description=f"Summarize corpus shape. {_EXAMPLES_SCHEMA}")

    p = sub.add_parser(
        "check", help="syntax-check a file of snippets", parents=[workers],
        description="Emit one syntax verdict per snippet as JSONL on stdout. "
                    'Input: JSON Lines {"id": str, "<field>": str}; choose the '
                    "text field with --field (default: code).")
    p.add_argument("--in", dest="snippets", required=True, type=Path,
                   help="snippets JSONL file")
    p.add_argument("--field", dest="field_name", default="code",
                   help="name of the text field to check (default: code)")

    p = sub.add_parser(
        "abstract", help="abstract identifiers in a corpus",
        parents=[corpus, out(help="output directory"), workers],
        description="Rewrite identifiers to VAR_n/METHOD_n/TYPE_n placeholders. "
                    f"{_EXAMPLES_SCHEMA} Writes abstracted.jsonl plus "
                    "mappings.jsonl (one sidecar mapping per example) to --out. "
                    "With --verify-only, instead checks that the corpus is "
                    "already abstracted and writes conformance.jsonl.")
    p.add_argument("--verify-only", action="store_true",
                   help="check conformance instead of abstracting")
    p.add_argument("--strict-gaps", action="store_true",
                   help="flag placeholder index gaps (verify mode)")

    report_out = out(help="output directory for report files")
    p = sub.add_parser(
        "eval", help="evaluate one prediction set",
        parents=[*inputs, report_out, *metrics, workers],
        description=f"Evaluate a single-checkpoint prediction set. "
                    f"{_EXAMPLES_SCHEMA} {_PREDICTIONS_SCHEMA}")
    p.add_argument("--cases", type=int, default=0,
                   help="also emit a case bundle of this size")

    p = sub.add_parser(
        "track", help="evaluate a multi-checkpoint dump",
        parents=[*inputs, report_out, *metrics, workers],
        description=f"Evaluate every training step in a prediction dump, "
                    f"sampling the validation set per checkpoint. "
                    f"{_EXAMPLES_SCHEMA} {_PREDICTIONS_SCHEMA} {_LOSS_SCHEMA}")
    p.add_argument("--sample", dest="sample_size", type=int, default=100,
                   help="validation examples per checkpoint (default: 100)")
    p.add_argument("--interval", dest="interval_steps", type=int, default=500,
                   help="checkpoint step cadence: every step in the dump "
                        "must be a multiple of it, else the run fails with "
                        "an input error; also recorded in provenance "
                        "(default: 500)")
    p.add_argument("--fixed-sample", action="store_true",
                   help="reuse one sample across checkpoints instead of "
                        "re-drawing per step")
    p.add_argument("--loss-log", type=Path, default=None,
                   help="optional loss log to attach eval_loss by step")
    p.add_argument("--cases", type=int, default=0,
                   help="also emit a case bundle from the final checkpoint")

    p = sub.add_parser(
        "inspect", help="emit a qualitative case bundle",
        parents=[*inputs, out(help="output directory for cases.json"), workers],
        description=f"Sample cases with diffs for manual inspection. "
                    f"{_EXAMPLES_SCHEMA} {_PREDICTIONS_SCHEMA}")
    p.add_argument("--cases", type=int, default=10,
                   help="number of cases to sample (default: 10)")
    p.add_argument("--step", type=int, default=None,
                   help="checkpoint step to inspect (default: last step present)")
    return top


def parse_args(argv=None) -> argparse.Namespace:
    cfg = build_arg_parser().parse_args(argv)
    if cfg.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {cfg.workers}")
    if cfg.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {cfg.seed}")
    if cfg.cases < 0:
        raise UsageError(f"--cases must be non-negative, got {cfg.cases}")
    if cfg.command == "track":
        for flag, value in (("--sample", cfg.sample_size), ("--interval", cfg.interval_steps)):
            if value < 1:
                raise UsageError(f"{flag} must be positive, got {value}")
    if cfg.cases == 0 and cfg.command == "inspect":  # 0 means "no bundle" elsewhere
        raise UsageError("--cases must be positive for inspect, got 0")
    if cfg.command == "abstract" and cfg.strict_gaps and not cfg.verify_only:
        raise UsageError("--strict-gaps needs --verify-only")
    return cfg


def _check_cases(cfg: argparse.Namespace, records: int) -> None:
    """Refuse, before any prediction is evaluated, more cases than records."""
    if cfg.cases > records:
        raise InputError(f"asked for {cfg.cases} cases but only {records} records exist")


# ----------------------------------------------------------------------
# command bodies

def _load_corpus(cfg: argparse.Namespace):
    _bind("load_examples", "filter_split")
    examples = load_examples(cfg.corpus)
    if cfg.split is not None:
        examples = filter_split(examples, cfg.split)
    return examples


def _provenance(cfg: argparse.Namespace, **extra_config) -> Provenance:
    _bind("file_digest", "Provenance")
    inputs = {
        "corpus": file_digest(cfg.corpus),
        "predictions": file_digest(cfg.preds),
    }
    if cfg.loss_log is not None:
        inputs["loss_log"] = file_digest(cfg.loss_log)
    config = {
        "em_normalize": cfg.em_normalize,
        "ned_tokens": cfg.ned_tokens,
        "split": cfg.split,
        **extra_config,
    }
    return Provenance(seed=cfg.seed, inputs=inputs, config=config)


def _past_limit(count: int) -> str:
    """The stderr summary's note of predictions nested past the parser's
    depth guard; empty when there are none."""
    return f", {count} past the nesting limit" if count else ""


def _cmd_stats(cfg: argparse.Namespace) -> int:
    _bind("corpus_stats")
    print(json.dumps(corpus_stats(_load_corpus(cfg)).to_obj(), indent=2))
    return 0


def _cmd_check(cfg: argparse.Namespace) -> int:
    _bind("load_snippets", "check_syntax")
    snippets = load_snippets(cfg.snippets, cfg.field_name)
    judge = cache(check_syntax)  # each distinct text is judged once
    valid = 0
    cut = 0
    for snippet_id, code in snippets:
        verdict = judge(code)
        valid += 1 if verdict.valid else 0
        cut += 1 if verdict.limit_exceeded else 0
        print(json.dumps({
            "id": snippet_id,
            "valid": verdict.valid,
            "limit_exceeded": verdict.limit_exceeded,
            "error_count": verdict.error_count,
            "error_spans": [list(s) for s in verdict.error_spans],
        }))
    pct = 100.0 * valid / len(snippets)
    print(f"checked {len(snippets)} snippet(s): {valid} valid ({pct:.1f}%){_past_limit(cut)}",
          file=sys.stderr)
    return 0


def _cmd_abstract(cfg: argparse.Namespace) -> int:
    _bind("abstract_identifiers", "check_conformance")
    examples = _load_corpus(cfg)
    # Both modes do each distinct side once: a side repeats across
    # examples, and its result depends on its text alone.
    if cfg.verify_only:
        conformance = cache(
            lambda text: check_conformance(text, strict_gaps=cfg.strict_gaps))
        entries = []
        bad = 0
        for ex in examples:
            entry = {"id": ex.id}
            clean = True
            for fname in ("buggy", "fixed"):
                report = conformance(getattr(ex, fname))
                entry[fname] = [
                    {"span": list(v.span), "message": v.message}
                    for v in report.violations
                ]
                clean = clean and report.conformant
            entry["conformant"] = clean
            bad += 0 if clean else 1
            entries.append(entry)
        [path] = write_files(cfg.out_dir, {"conformance.jsonl": jsonl(entries)})
        print(f"checked {len(examples)} example(s): "
              f"{len(examples) - bad} conformant, {bad} with violations",
              file=sys.stderr)
        print(path)
        return 0
    abstract = cache(abstract_identifiers)
    records = []
    mappings = []
    for ex in examples:
        try:
            new_buggy, map_buggy = abstract(ex.buggy)
            new_fixed, map_fixed = abstract(ex.fixed)
        except InputError as exc:
            raise InputError(f"example {ex.id!r}: {exc}") from None
        records.append({
            "id": ex.id, "buggy": new_buggy, "fixed": new_fixed,
            "split": ex.split,
        })
        mappings.append(
            {"id": ex.id, "buggy": map_buggy.to_obj(), "fixed": map_fixed.to_obj()}
        )
    written = write_files(cfg.out_dir, {
        "abstracted.jsonl": jsonl(records),
        "mappings.jsonl": jsonl(mappings),
    })
    print(f"abstracted {len(examples)} example(s)", file=sys.stderr)
    print(written[0])
    return 0


def _evaluate_one_step(cfg: argparse.Namespace):
    """Load the inputs, pick one step, and evaluate the examples its
    predictions cover. ``eval`` takes a single-step dump only; ``inspect``
    takes ``--step`` or else the last step present."""
    _bind("load_predictions", "predictions_by_step", "evaluate_examples")
    examples = _load_corpus(cfg)
    by_step = predictions_by_step(load_predictions(cfg.preds, corpus=examples))
    if not by_step:
        raise InputError("prediction set contains no rank-0 predictions")
    steps = ", ".join(str(s) for s in sorted(by_step))
    if cfg.command == "eval" and len(by_step) > 1:
        raise InputError(
            f"eval expects a single-checkpoint prediction set but found "
            f"steps {steps}; use the track command for multi-step dumps"
        )
    step = max(by_step) if cfg.step is None else cfg.step
    if step not in by_step:
        raise InputError(f"no predictions at step {step}; steps present: {steps}")
    step_preds = by_step[step]
    covered = [ex for ex in examples if ex.id in step_preds]
    _check_cases(cfg, len(covered))  # one record per covered example
    records = evaluate_examples(
        covered, step_preds, step=step,
        em_normalize=cfg.em_normalize, ned_tokens=cfg.ned_tokens,
    )
    return examples, step, records


def _write_report(cfg: argparse.Namespace, examples, series, records_by_step,
                  summary: str, **extra_config) -> int:
    """Write the report of a run, with a case bundle from the final
    checkpoint under ``--cases``; then print ``summary`` to stderr and the
    written paths to stdout."""
    _bind("build_report", "corpus_stats", "extract_cases", "emit_report")
    report = build_report(
        corpus_stats(examples), series, records_by_step,
        _provenance(cfg, command=cfg.command, **extra_config),
    )
    bundle = None
    if cfg.cases:
        bundle = extract_cases(
            examples, records_by_step[series.final.step], cfg.cases, cfg.seed,
        )
    written = emit_report(report, cfg.out_dir, cases=bundle)
    print(summary, file=sys.stderr)
    for path in written:
        print(path)
    return 0


def _cmd_eval(cfg: argparse.Namespace) -> int:
    _bind("summarize_records", "build_series")
    examples, step, records = _evaluate_one_step(cfg)
    final = summarize_records(records, step=step)
    return _write_report(
        cfg, examples, build_series([final]), {step: records},
        f"evaluated {final.n} example(s) at step {step}: "
        f"syntax validity {final.syntax_validity_pct:.1f}%, "
        f"exact match {final.exact_match_pct:.1f}%, "
        f"copy {final.copy_pct:.1f}%{_past_limit(final.limit_exceeded_count)}",
    )


def _cmd_track(cfg: argparse.Namespace) -> int:
    _bind("load_predictions", "TrackingConfig", "load_loss_log", "run_tracking")
    examples = _load_corpus(cfg)
    predictions = load_predictions(cfg.preds, corpus=examples)
    # The sampling knobs; the report's provenance records them too.
    knobs = {k: getattr(cfg, k) for k in ("sample_size", "interval_steps", "fixed_sample")}
    config = TrackingConfig(seed=cfg.seed, **knobs)
    _check_cases(cfg, min(cfg.sample_size, len(examples)))  # one record per sampled example
    loss_by_step = load_loss_log(cfg.loss_log) if cfg.loss_log else None
    series, records_by_step = run_tracking(
        examples, predictions, config, loss_by_step=loss_by_step,
        em_normalize=cfg.em_normalize, ned_tokens=cfg.ned_tokens,
    )
    orphans = sorted(set(loss_by_step or ()) - set(series.steps))
    if orphans:
        print("warning: --loss-log has eval_loss at step(s) with no predictions, "
              f"ignored: {', '.join(str(s) for s in orphans)}", file=sys.stderr)
    final = series.final
    return _write_report(
        cfg, examples, series, records_by_step,
        f"tracked {len(series.records)} checkpoint(s) "
        f"(steps {series.steps[0]}..{series.steps[-1]}): "
        f"final syntax validity {final.syntax_validity_pct:.1f}%, "
        f"final copy rate {final.copy_pct:.1f}%"
        f"{_past_limit(sum(r.limit_exceeded_count for r in series.records))}",
        **knobs,
    )


def _cmd_inspect(cfg: argparse.Namespace) -> int:
    _bind("extract_cases", "emit_cases")
    examples, step, records = _evaluate_one_step(cfg)
    bundle = extract_cases(examples, records, cfg.cases, cfg.seed)
    path = emit_cases(bundle, cfg.out_dir)
    print(f"sampled {len(bundle.cases)} case(s) at step {step}", file=sys.stderr)
    print(path)
    return 0


_COMMANDS = {
    "stats": _cmd_stats,
    "check": _cmd_check,
    "abstract": _cmd_abstract,
    "eval": _cmd_eval,
    "track": _cmd_track,
    "inspect": _cmd_inspect,
}


def main(argv=None) -> int:
    try:
        cfg = parse_args(argv)
        code = _COMMANDS[cfg.command](cfg)
        sys.stdout.flush()  # so that a closed stdout is reported here
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EnvironmentFailure as exc:
        print(f"environment error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader of stdout, say `head`, closed it
        print("environment error: stdout closed before all output was written", file=sys.stderr)
        return 2


def main_entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # Drop what no reader took (the Python signal docs, "Note on SIGPIPE").
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    main_entry()
