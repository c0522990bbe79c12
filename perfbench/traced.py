"""Traced run: the workload's CLI commands, in-process, with layer spans.

    python3 perfbench/traced.py --root ROOT --spec SPEC --seconds S --out DIR

Calls `repairdx.cli.main(argv)` for each command of the workload, with
`--workers 1` so every span lands in this process. Repetitions alternate
between plain and traced; the difference of their median wall times is
the tracing overhead. Wrappers go on the names the callers look up (for
example `repairdx.tracking.levenshtein`, not only
`repairdx.metrics.levenshtein`) and are removed again after each traced
repetition.

Writes DIR/trace.json (per repetition: mode, wall time, exit codes and,
for traced ones, the layer metrics) and DIR/spans.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import sys
import time
import traceback
from pathlib import Path

from oracle import trimmed
from spans import Tracer, totals

# (module, attribute, span name, what to observe)
TARGETS = [
    ("repairdx.cli", "main", "cli", None),
    ("repairdx.cli", "load_examples", "corpus.load", "rows"),
    ("repairdx.cli", "load_predictions", "corpus.load", "rows"),
    ("repairdx.cli", "load_loss_log", "corpus.load", "rows"),
    ("repairdx.cli", "check_syntax", "syntax.check", "text"),
    ("repairdx.cli", "abstract_identifiers", "abstraction.abstract", None),
    ("repairdx.cli", "check_conformance", "abstraction.conformance", None),
    ("repairdx.cli", "evaluate_examples", "tracking.evaluate", None),
    ("repairdx.cli", "summarize_records", "tracking.summarize", None),
    ("repairdx.cli", "run_tracking", "tracking.run", None),
    ("repairdx.cli", "build_report", "report.build", None),
    ("repairdx.cli", "emit_report", "report.emit", "paths"),
    ("repairdx.cli", "emit_cases", "report.emit", "paths"),
    ("repairdx.cli", "extract_cases", "report.cases", None),
    ("repairdx.tracking", "evaluate_examples", "tracking.evaluate", None),
    ("repairdx.tracking", "summarize_records", "tracking.summarize", None),
    ("repairdx.tracking", "sample_validation", "corpus.sample", None),
    ("repairdx.tracking", "check_syntax", "syntax.check", "text"),
    ("repairdx.tracking", "levenshtein", "metrics.levenshtein", "pair"),
    ("repairdx.tracking", "normalized_edit_distance", "metrics.ned", None),
    ("repairdx.metrics", "levenshtein", "metrics.levenshtein", "pair"),
    ("repairdx.report", "check_syntax", "syntax.check", "text"),
    ("repairdx.abstraction", "check_syntax", "syntax.check", "text"),
    ("repairdx.abstraction", "parse_java", "javaparse.parse", None),
    ("repairdx.abstraction", "tokenize", "javaparse.tokenize", "tokens"),
    ("repairdx.bindings", "parse_java", "javaparse.parse", None),
    ("repairdx.javaparse.parser", "tokenize", "javaparse.tokenize", "tokens"),
]


class Observed:
    """What the wrappers saw during one repetition, kept as references and
    reduced to counts only after the repetition ends."""

    def __init__(self):
        self.rows = 0
        self.texts: list[str] = []
        self.pairs: list[tuple] = []
        self.tokens = 0
        self.paths: list[Path] = []

    def observer(self, kind: str | None):
        if kind is None:
            return None

        def observe(args, kwargs, result):
            if kind == "rows":
                self.rows += len(result)
            elif kind == "text":
                self.texts.append(args[0] if args else kwargs["code"])
            elif kind == "pair":
                self.pairs.append(args[:2])
            elif kind == "tokens":
                self.tokens += len(result)
            else:
                self.paths += result if isinstance(result, list) else [result]

        return observe


@contextlib.contextmanager
def installed(tracer: Tracer, seen: Observed):
    """Install the wrappers; restore every original on exit."""
    saved = []
    try:
        for mod_name, attr, span_name, kind in TARGETS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, tracer.wrap(original, span_name, seen.observer(kind)))
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def _dp_cells(a, b) -> int:
    a, b = trimmed(a, b)
    return len(a) * len(b)


def _pct_ms(durations: list[float], q: float) -> float:
    """Nearest-rank percentile, in milliseconds."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return 1000.0 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(spans, seen: Observed) -> dict:
    """The per-layer metrics of one traced repetition."""
    t = totals(spans)

    def get(name, key):
        return t.get(name, {}).get(key, 0)

    lev = [s.duration for s in spans if s.name == "metrics.levenshtein"]
    chk = [s.duration for s in spans if s.name == "syntax.check"]
    pairs = [tuple(tuple(x) if isinstance(x, list) else x for x in p) for p in seen.pairs]
    return {
        "metrics.levenshtein_calls": len(lev),
        "metrics.levenshtein_s": get("metrics.levenshtein", "total_s"),
        "metrics.levenshtein_ms_p50": _pct_ms(lev, 0.50),
        "metrics.levenshtein_ms_p99": _pct_ms(lev, 0.99),
        "metrics.dp_cells": sum(_dp_cells(a, b) for a, b in pairs),
        "metrics.ned_self_s": get("metrics.ned", "self_s"),
        "metrics.distinct_pair_ratio": len(set(pairs)) / len(pairs) if pairs else 0.0,
        "syntax.check_calls": len(chk),
        "syntax.check_s": get("syntax.check", "total_s"),
        "syntax.check_ms_p50": _pct_ms(chk, 0.50),
        "syntax.check_ms_p99": _pct_ms(chk, 0.99),
        "syntax.distinct_text_ratio": len(set(seen.texts)) / len(seen.texts) if seen.texts else 0.0,
        "javaparse.tokenize_s": get("javaparse.tokenize", "total_s"),
        "javaparse.parse_s": get("javaparse.parse", "self_s"),
        "javaparse.tokens": seen.tokens,
        "tracking.evaluate_s": get("tracking.evaluate", "total_s"),
        "tracking.self_s": get("tracking.evaluate", "self_s") + get("tracking.run", "self_s"),
        "tracking.summarize_s": get("tracking.summarize", "total_s"),
        "corpus.load_s": get("corpus.load", "total_s"),
        "corpus.rows": seen.rows,
        "corpus.sample_s": get("corpus.sample", "total_s"),
        "corpus.sample_calls": get("corpus.sample", "calls"),
        "report.build_s": get("report.build", "total_s"),
        "report.emit_s": get("report.emit", "total_s"),
        "report.bytes_written": sum(os.path.getsize(p) for p in seen.paths),
        "report.cases_s": get("report.cases", "total_s"),
        "abstraction.abstract_calls": get("abstraction.abstract", "calls"),
        "abstraction.abstract_s": get("abstraction.abstract", "total_s"),
        "abstraction.abstract_self_s": get("abstraction.abstract", "self_s"),
        "abstraction.conformance_s": get("abstraction.conformance", "total_s"),
        "cli.self_s": get("cli", "self_s"),
        "layers_total_s": get("cli", "total_s"),
    }


def run_commands(cli, commands: list[list[str]], in_dir: Path, out: Path) -> list[int]:
    """Run each command through `cli.main`, stdout to out/<n>.stdout."""
    out.mkdir(parents=True, exist_ok=True)
    codes = []
    for n, template in enumerate(commands):
        argv = [a.replace("{in}", str(in_dir)).replace("{out}", str(out)) for a in template]
        argv += ["--workers", "1"]
        name = "check" if argv[0] == "check" else str(n)
        with open(out / f"{name}.stdout", "w", encoding="utf-8") as so, \
                open(out / f"{n}.stderr", "w", encoding="utf-8") as se, \
                contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
            try:
                codes.append(cli.main(argv))
            except Exception:  # a crash fails this repetition, not the run
                traceback.print_exc()
                codes.append(3)
    return codes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--spec", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(args.root / "src"))
    import repairdx.cli as cli

    spec = json.loads(args.spec.read_text(encoding="utf-8"))
    tracer = Tracer()
    reps = []
    t0 = time.perf_counter()
    while len(reps) < 2 or time.perf_counter() - t0 < args.seconds:
        k = len(reps)
        mode = "traced" if k % 2 else "plain"
        out = args.out / f"rep-{k:03d}"
        seen = Observed()
        tracer.run = f"rep-{k:03d}"
        start = time.perf_counter()
        with installed(tracer, seen) if mode == "traced" else contextlib.nullcontext():
            codes = run_commands(cli, spec["commands"], Path(spec["in"]), out)
        rep = {"mode": mode, "wall_s": time.perf_counter() - start, "exit": codes,
               "out": str(out)}
        if mode == "traced":
            rep["metrics"] = layer_metrics(tracer.of_run(tracer.run), seen)
        reps.append(rep)
    tracer.write(args.out / "spans.jsonl")
    (args.out / "trace.json").write_text(json.dumps({"reps": reps}, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
