"""Command-line interface.

Subcommands:

* ``stats``    — corpus shape summary (JSON on stdout)
* ``check``    — syntax verdicts for a file of snippets (JSONL on stdout)
* ``abstract`` — identifier abstraction of a corpus (or conformance check)
* ``eval``     — evaluate one prediction set and emit a report
* ``track``    — evaluate a multi-checkpoint prediction dump
* ``inspect``  — emit a qualitative case bundle

Exit status: 0 success, 1 input/usage error, 2 environment failure.
All flags are long-form; ``--help`` on any subcommand documents the file
schemas it consumes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .abstraction import abstract_identifiers, check_conformance
from .corpus import (
    _iter_jsonl,
    _require,
    corpus_stats,
    filter_split,
    load_examples,
    load_predictions,
    predictions_by_step,
    TrackingConfig,
)
from .errors import EnvironmentFailure, InputError, UsageError
from .report import (
    Provenance,
    _corpus_stats_obj,
    _jsonl,
    _write_files,
    build_report,
    emit_cases,
    emit_report,
    extract_cases,
    file_digest,
)
from .syntax import SyntaxVerdict, check_syntax
from .tracking import (
    build_series,
    evaluate_examples,
    load_loss_log,
    run_tracking,
    summarize_records,
)

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


def _add_common(sub: argparse.ArgumentParser, workers_default: int) -> None:
    sub.add_argument("--seed", type=int, default=42,
                     help="seed for all deterministic sampling (default: 42)")
    sub.add_argument("--workers", type=int, default=workers_default,
                     help="worker processes for per-example evaluation "
                          f"(default: {workers_default})")


def _add_inputs(sub: argparse.ArgumentParser, out_help: str) -> None:
    sub.add_argument("--corpus", required=True, type=Path, help="examples JSONL file")
    sub.add_argument("--preds", required=True, type=Path, help="predictions JSONL file")
    sub.add_argument("--out", dest="out_dir", required=True, type=Path, help=out_help)
    sub.add_argument("--split", default=None, help="restrict corpus to one split")


def build_arg_parser() -> _Parser:
    workers_default = os.cpu_count() or 1
    top = _Parser(
        prog="repairdx",
        description="Diagnostics for program-repair model outputs: syntax "
                    "validity, repair metrics, behavior tracking, reports.",
    )
    sub = top.add_subparsers(dest="command", metavar="command")
    sub.required = True
    # Options a subcommand does not declare, for the helpers that read them.
    top.set_defaults(split=None, seed=42, workers=1, em_normalize="none",
                     ned_tokens=False, step=None, loss_log=None, cases=0)

    p = sub.add_parser("stats", help="summarize a corpus",
                       description=f"Summarize corpus shape. {_EXAMPLES_SCHEMA}")
    p.add_argument("--corpus", required=True, type=Path, help="examples JSONL file")
    p.add_argument("--split", default=None, help="restrict to one split label")

    p = sub.add_parser(
        "check", help="syntax-check a file of snippets",
        description="Emit one syntax verdict per snippet as JSONL on stdout. "
                    'Input: JSON Lines {"id": str, "<field>": str}; choose the '
                    "text field with --field (default: code).")
    p.add_argument("--in", dest="snippets", required=True, type=Path,
                   help="snippets JSONL file")
    p.add_argument("--field", dest="field_name", default="code",
                   help="name of the text field to check (default: code)")
    _add_common(p, workers_default)

    p = sub.add_parser(
        "abstract", help="abstract identifiers in a corpus",
        description="Rewrite identifiers to VAR_n/METHOD_n/TYPE_n placeholders. "
                    f"{_EXAMPLES_SCHEMA} Writes abstracted.jsonl plus "
                    "mappings.jsonl (one sidecar mapping per example) to --out. "
                    "With --verify-only, instead checks that the corpus is "
                    "already abstracted and writes conformance.jsonl.")
    p.add_argument("--corpus", required=True, type=Path, help="examples JSONL file")
    p.add_argument("--out", dest="out_dir", required=True, type=Path,
                   help="output directory")
    p.add_argument("--verify-only", action="store_true",
                   help="check conformance instead of abstracting")
    p.add_argument("--strict-gaps", action="store_true",
                   help="flag placeholder index gaps (verify mode)")
    _add_common(p, workers_default)

    p = sub.add_parser(
        "eval", help="evaluate one prediction set",
        description=f"Evaluate a single-checkpoint prediction set. "
                    f"{_EXAMPLES_SCHEMA} {_PREDICTIONS_SCHEMA}")
    _add_inputs(p, "output directory for report files")
    p.add_argument("--cases", type=int, default=0,
                   help="also emit a case bundle of this size")
    p.add_argument("--em-normalize", choices=["none", "whitespace"], default="none",
                   help="exact-match comparison mode (default: none)")
    p.add_argument("--ned-tokens", action="store_true",
                   help="compute NED over whitespace tokens instead of characters")
    _add_common(p, workers_default)

    p = sub.add_parser(
        "track", help="evaluate a multi-checkpoint dump",
        description=f"Evaluate every training step in a prediction dump, "
                    f"sampling the validation set per checkpoint. "
                    f"{_EXAMPLES_SCHEMA} {_PREDICTIONS_SCHEMA} {_LOSS_SCHEMA}")
    _add_inputs(p, "output directory for report files")
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
    p.add_argument("--em-normalize", choices=["none", "whitespace"], default="none",
                   help="exact-match comparison mode (default: none)")
    p.add_argument("--ned-tokens", action="store_true",
                   help="compute NED over whitespace tokens instead of characters")
    _add_common(p, workers_default)

    p = sub.add_parser(
        "inspect", help="emit a qualitative case bundle",
        description=f"Sample cases with diffs for manual inspection. "
                    f"{_EXAMPLES_SCHEMA} {_PREDICTIONS_SCHEMA}")
    _add_inputs(p, "output directory for cases.json")
    p.add_argument("--cases", type=int, default=10,
                   help="number of cases to sample (default: 10)")
    p.add_argument("--step", type=int, default=None,
                   help="checkpoint step to inspect (default: last step present)")
    _add_common(p, workers_default)
    return top


def parse_args(argv=None) -> argparse.Namespace:
    cfg = build_arg_parser().parse_args(argv)
    if cfg.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {cfg.workers}")
    if cfg.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {cfg.seed}")
    if cfg.cases < 0:
        raise UsageError(f"--cases must be non-negative, got {cfg.cases}")
    if cfg.cases == 0 and cfg.command == "inspect":  # 0 means "no bundle" elsewhere
        raise UsageError("--cases must be positive for inspect, got 0")
    return cfg


# ----------------------------------------------------------------------
# command bodies

def _load_corpus(cfg: argparse.Namespace):
    examples = load_examples(cfg.corpus)
    if cfg.split is not None:
        examples = filter_split(examples, cfg.split)
    return examples


def _provenance(cfg: argparse.Namespace, **extra_config) -> Provenance:
    inputs = {}
    if cfg.corpus is not None:
        inputs["corpus"] = file_digest(cfg.corpus)
    if cfg.preds is not None:
        inputs["predictions"] = file_digest(cfg.preds)
    if cfg.loss_log is not None:
        inputs["loss_log"] = file_digest(cfg.loss_log)
    config = {
        "em_normalize": cfg.em_normalize,
        "ned_tokens": cfg.ned_tokens,
        "split": cfg.split,
        **extra_config,
    }
    return Provenance(seed=cfg.seed, inputs=inputs, config=config)


def _cmd_stats(cfg: argparse.Namespace) -> int:
    print(json.dumps(_corpus_stats_obj(corpus_stats(_load_corpus(cfg))), indent=2))
    return 0


def _cmd_check(cfg: argparse.Namespace) -> int:
    path = cfg.snippets
    verdicts: dict[str, SyntaxVerdict] = {}  # each distinct text is judged once
    total = 0
    valid = 0
    for lineno, obj in _iter_jsonl(path):
        snippet_id = _require(obj, "id", str, str(path), lineno)
        if cfg.field_name not in obj:
            raise InputError(
                f"{path}:{lineno}: no field {cfg.field_name!r} "
                f"(have: {', '.join(sorted(obj))})"
            )
        code = obj[cfg.field_name]
        if not isinstance(code, str):
            raise InputError(f"{path}:{lineno}: field {cfg.field_name!r} must be str")
        verdict = verdicts.get(code)
        if verdict is None:
            verdict = verdicts[code] = check_syntax(code)
        total += 1
        valid += 1 if verdict.valid else 0
        print(json.dumps({
            "id": snippet_id,
            "valid": verdict.valid,
            "error_count": verdict.error_count,
            "error_spans": [list(s) for s in verdict.error_spans],
        }))
    if total == 0:
        raise InputError(f"{path}: no snippets found")
    pct = 100.0 * valid / total
    print(f"checked {total} snippet(s): {valid} valid ({pct:.1f}%)", file=sys.stderr)
    return 0


def _cmd_abstract(cfg: argparse.Namespace) -> int:
    examples = _load_corpus(cfg)
    if cfg.verify_only:
        entries = []
        bad = 0
        for ex in examples:
            entry = {"id": ex.id}
            clean = True
            for fname in ("buggy", "fixed"):
                report = check_conformance(getattr(ex, fname), strict_gaps=cfg.strict_gaps)
                entry[fname] = [
                    {"span": list(v.span), "message": v.message}
                    for v in report.violations
                ]
                clean = clean and report.conformant
            entry["conformant"] = clean
            bad += 0 if clean else 1
            entries.append(entry)
        [path] = _write_files(cfg.out_dir, {"conformance.jsonl": _jsonl(entries)})
        print(f"checked {len(examples)} example(s): "
              f"{len(examples) - bad} conformant, {bad} with violations",
              file=sys.stderr)
        print(path)
        return 0
    records = []
    mappings = []
    for ex in examples:
        try:
            new_buggy, map_buggy = abstract_identifiers(ex.buggy)
            new_fixed, map_fixed = abstract_identifiers(ex.fixed)
        except InputError as exc:
            raise InputError(f"example {ex.id!r}: {exc}") from None
        records.append({
            "id": ex.id, "buggy": new_buggy, "fixed": new_fixed,
            "split": ex.split,
        })
        mappings.append(
            {"id": ex.id, "buggy": map_buggy.to_obj(), "fixed": map_fixed.to_obj()}
        )
    written = _write_files(cfg.out_dir, {
        "abstracted.jsonl": _jsonl(records),
        "mappings.jsonl": _jsonl(mappings),
    })
    print(f"abstracted {len(examples)} example(s)", file=sys.stderr)
    print(written[0])
    return 0


def _evaluate_one_step(cfg: argparse.Namespace):
    """Load the inputs, pick one step, and evaluate the examples its
    predictions cover. ``eval`` takes a single-step dump only; ``inspect``
    takes ``--step`` or else the last step present."""
    examples = _load_corpus(cfg)
    by_step = predictions_by_step(load_predictions(cfg.preds, corpus=examples))
    if not by_step:
        raise InputError("prediction set contains no rank-0 predictions")
    if cfg.command == "eval" and len(by_step) > 1:
        steps = ", ".join(str(s) for s in sorted(by_step))
        raise InputError(
            f"eval expects a single-checkpoint prediction set but found "
            f"steps {steps}; use the track command for multi-step dumps"
        )
    step = max(by_step) if cfg.step is None else cfg.step
    if step not in by_step:
        have = ", ".join(str(s) for s in sorted(by_step))
        raise InputError(f"no predictions at step {step}; steps present: {have}")
    step_preds = by_step[step]
    covered = [ex for ex in examples if ex.id in step_preds]
    if cfg.cases > len(covered):  # one record per covered example
        raise InputError(
            f"asked for {cfg.cases} cases but only {len(covered)} records exist"
        )
    records = evaluate_examples(
        covered, step_preds, step=step,
        em_normalize=cfg.em_normalize, ned_tokens=cfg.ned_tokens,
        workers=cfg.workers,
    )
    return examples, step, step_preds, records


def _cmd_eval(cfg: argparse.Namespace) -> int:
    examples, step, step_preds, records = _evaluate_one_step(cfg)
    series = build_series([summarize_records(records, step=step)])
    report = build_report(
        corpus_stats(examples), series, {step: records},
        _provenance(cfg, command="eval"),
    )
    bundle = None
    if cfg.cases:
        bundle = extract_cases(examples, step_preds, records, cfg.cases, cfg.seed)
    written = emit_report(report, cfg.out_dir, cases=bundle)
    final = series.final
    print(f"evaluated {final.n} example(s) at step {step}: "
          f"syntax validity {final.syntax_validity_pct:.1f}%, "
          f"exact match {final.exact_match_pct:.1f}%, "
          f"copy {final.copy_pct:.1f}%", file=sys.stderr)
    for path in written:
        print(path)
    return 0


def _cmd_track(cfg: argparse.Namespace) -> int:
    examples = _load_corpus(cfg)
    predictions = load_predictions(cfg.preds, corpus=examples)
    config = TrackingConfig(
        sample_size=cfg.sample_size,
        interval_steps=cfg.interval_steps,
        seed=cfg.seed,
        fixed_sample=cfg.fixed_sample,
    )
    loss_by_step = load_loss_log(cfg.loss_log) if cfg.loss_log else None
    series, records_by_step = run_tracking(
        examples, predictions, config, loss_by_step=loss_by_step,
        em_normalize=cfg.em_normalize, ned_tokens=cfg.ned_tokens,
        workers=cfg.workers,
    )
    orphans = sorted(set(loss_by_step or ()) - set(series.steps))
    if orphans:
        print("warning: --loss-log has eval_loss at step(s) with no predictions, "
              f"ignored: {', '.join(str(s) for s in orphans)}", file=sys.stderr)
    report = build_report(
        corpus_stats(examples), series, records_by_step,
        _provenance(
            cfg, command="track",
            sample_size=cfg.sample_size, interval_steps=cfg.interval_steps,
            fixed_sample=cfg.fixed_sample,
        ),
    )
    bundle = None
    if cfg.cases:
        final_step = series.final.step
        bundle = extract_cases(
            examples, predictions_by_step(predictions)[final_step],
            records_by_step[final_step], cfg.cases, cfg.seed,
        )
    written = emit_report(report, cfg.out_dir, cases=bundle)
    final = series.final
    print(f"tracked {len(series.records)} checkpoint(s) "
          f"(steps {series.steps[0]}..{series.steps[-1]}): "
          f"final syntax validity {final.syntax_validity_pct:.1f}%, "
          f"final copy rate {final.copy_pct:.1f}%", file=sys.stderr)
    for path in written:
        print(path)
    return 0


def _cmd_inspect(cfg: argparse.Namespace) -> int:
    examples, step, step_preds, records = _evaluate_one_step(cfg)
    bundle = extract_cases(examples, step_preds, records, cfg.cases, cfg.seed)
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
        return _COMMANDS[cfg.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except EnvironmentFailure as exc:
        print(f"environment error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
