"""repairdx benchmark: three workloads, run-level metrics, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is track_mixed, eval_degenerate, abstract_corpus, or all (one row
per workload). Run it from anywhere inside a checkout of the repository;
it builds nothing and needs only the standard library.

--trace 0 runs the real CLI (`python -m repairdx.cli`, PYTHONPATH=src) as
a child process, repeatedly for S seconds, and reports medians over the
repetitions of: setup_s (a fresh interpreter imports repairdx and builds
the builtin parser; median of several), wall_s, cpu_s and peak_rss_mb of
the child tree (from os.wait4), items_per_s, and failed_frac.

--trace 1 runs the same commands in-process through repairdx.cli.main
with layer spans (see traced.py) and reports per-layer metrics.

Inputs come from tests/data fixtures and the seed (see workloads.py);
outputs are checked by an independent oracle (see oracle.py) outside
the timed region. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import oracle as oracle_mod
import workloads
from harness import ChildResult, run_child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"  # inputs and outputs, one directory per workload

SETUP_REPS = 11
SETUP_CODE = "import repairdx; from repairdx.bindings import get_parser; get_parser('builtin')"
CHILD_TIMEOUT_S = 60.0
MIN_REPS = 3        # repetitions wanted even past --seconds ...
MIN_REPS_CAP_S = 90.0  # ... unless the run has taken this long

END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB",
}
PER_LAYER = {  # name -> unit; the per_layer list of BENCHMARK.json
    "syntax.check_s": "s", "syntax.check_ms_p50": "ms", "syntax.check_ms_p99": "ms",
    "javaparse.tokenize_s": "s", "javaparse.parse_s": "s", "corpus.load_s": "s",
    "cli.self_s": "s",
    "metrics.levenshtein_calls": "count", "metrics.dp_cells": "count",
    "metrics.distinct_pair_ratio": "ratio", "syntax.check_calls": "count",
    "syntax.distinct_text_ratio": "ratio", "javaparse.tokens": "count",
    "corpus.rows": "count", "corpus.sample_calls": "count",
    "report.bytes_written": "bytes", "abstraction.abstract_calls": "count",
}
# Layer times that read exactly 0 on a workload where the layer does no
# work; printed where the layer works, left out of the result line.
LAYER_ONLY = {
    "metrics.levenshtein_s": "s", "metrics.levenshtein_ms_p50": "ms",
    "metrics.levenshtein_ms_p99": "ms", "metrics.ned_self_s": "s",
    "tracking.evaluate_s": "s", "tracking.self_s": "s", "tracking.summarize_s": "s",
    "corpus.sample_s": "s", "report.build_s": "s", "report.emit_s": "s",
    "report.cases_s": "s", "abstraction.abstract_s": "s",
    "abstraction.abstract_self_s": "s", "abstraction.conformance_s": "s",
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def output_files(wl, out: Path) -> list[Path]:
    """The files whose bytes must repeat in every run of a workload."""
    if wl.name == "abstract_corpus":
        return [out / "check.stdout", out / "abstract" / "abstracted.jsonl",
                out / "abstract" / "mappings.jsonl", out / "verify" / "conformance.jsonl"]
    sub = out / ("track" if wl.name == "track_mixed" else "eval")
    return [sub / "records.jsonl", sub / "report.json"]


class Checker:
    """Runs the oracle once per distinct output and requires every
    repetition's outputs to be byte-identical."""

    def __init__(self, wl):
        self.wl = wl
        self.oracle = oracle_mod.Oracle(wl)
        self.first_digest = None
        self.cache: dict[tuple, oracle_mod.Verdict] = {}
        self.attempted = self.failed = self.known = 0
        self.problems: list[str] = []

    def add(self, out: Path, ok: bool, why: str = "") -> None:
        n = self.wl.items_per_rep
        self.attempted += n
        if not ok:
            self.failed += n
            self.problems.append(why)
            return
        try:
            digest = tuple(oracle_mod.sha256(p) for p in output_files(self.wl, out))
        except OSError as exc:
            self.failed += n
            self.problems.append(f"missing output: {exc}")
            return
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            self.problems.append(f"{out.name}: outputs differ from the first repetition")
        if digest not in self.cache:
            self.cache[digest] = self.oracle.check(out)
            self.problems += self.cache[digest].problems
        v = self.cache[digest]
        self.failed += min(n, v.failed)
        self.known += v.known

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    @property
    def failed_frac(self) -> float:
        """Missing or wrong items, known mis-verdicts included."""
        return (self.failed + self.known) / max(1, self.attempted)


def _median(values):
    return statistics.median(values) if values else 0.0


def measure_setup(work: Path) -> float:
    """Median spawn-to-exit time of a fresh interpreter that imports
    repairdx and builds the builtin parser (after one warm-up that may
    write bytecode caches)."""
    times = []
    for k in range(SETUP_REPS + 1):
        res = run_child([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_env(),
                        stdout=work / "setup.out", stderr=work / "setup.err",
                        timeout_s=CHILD_TIMEOUT_S)
        if not res.ok:
            raise SystemExit(f"set-up failed: see {work / 'setup.err'}")
        if k:
            times.append(res.wall_s)
    return _median(times)


def run_commands(wl, in_dir: Path, out: Path) -> tuple[ChildResult, str]:
    """One repetition: every command of the workload as a child process."""
    out.mkdir(parents=True)
    wall = cpu = rss = 0.0
    for n, template in enumerate(wl.commands):
        argv = [a.replace("{in}", str(in_dir)).replace("{out}", str(out)) for a in template]
        name = "check" if argv[0] == "check" else str(n)
        res = run_child(
            [sys.executable, "-m", "repairdx.cli", *argv, "--workers", str(wl.workers)],
            cwd=ROOT, env=_env(), stdout=out / f"{name}.stdout", stderr=out / f"{n}.stderr",
            timeout_s=CHILD_TIMEOUT_S)
        wall, cpu, rss = wall + res.wall_s, cpu + res.cpu_s, max(rss, res.peak_rss_mb)
        if not res.ok:
            why = "timed out" if res.timed_out else f"exit {res.returncode}"
            return ChildResult(wall, cpu, rss, res.returncode, res.timed_out), f"{argv[0]} {why}"
    return ChildResult(wall, cpu, rss, 0, False), ""


def timed_run(wl, work: Path, seconds: float) -> tuple[dict, Checker, dict]:
    setup_s = measure_setup(work)
    checker = Checker(wl)
    reps: list[ChildResult] = []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and (len(reps) >= MIN_REPS or elapsed >= MIN_REPS_CAP_S):
            break
        out = work / f"rep-{len(reps):03d}"
        res, why = run_commands(wl, work / "in", out)
        reps.append(res)
        checker.add(out, res.ok, why)
        if res.timed_out:
            break
    n = wl.items_per_rep
    metrics = {
        "setup_s": setup_s,
        "wall_s": _median([r.wall_s for r in reps]),
        "cpu_s": _median([r.cpu_s for r in reps]),
        "items_per_s": _median([n / r.wall_s for r in reps]),
        "peak_rss_mb": _median([r.peak_rss_mb for r in reps]),
    }
    walls = sorted(r.wall_s for r in reps)
    extra = {"reps": len(reps), "items_per_rep": n, "wall_s_min": walls[0], "wall_s_max": walls[-1]}
    return metrics, checker, extra


def traced_run(wl, work: Path, seconds: float) -> tuple[dict, Checker, dict]:
    spec = work / "trace-spec.json"
    spec.write_text(json.dumps({"commands": wl.commands, "in": str(work / "in")}), encoding="utf-8")
    out = work / "trace"
    out.mkdir()
    res = run_child(
        [sys.executable, str(HERE / "traced.py"), "--root", str(ROOT), "--spec", str(spec),
         "--seconds", str(seconds), "--out", str(out)],
        cwd=ROOT, env=_env(), stdout=work / "trace.out", stderr=work / "trace.err",
        timeout_s=seconds + 2 * CHILD_TIMEOUT_S)
    checker = Checker(wl)
    if not res.ok:
        checker.add(out, False, "traced run " + ("timed out" if res.timed_out else f"exit {res.returncode}"))
        return {k: 0 for k in PER_LAYER}, checker, {}
    reps = json.loads((out / "trace.json").read_text(encoding="utf-8"))["reps"]
    for rep in reps:
        bad = [c for c in rep["exit"] if c != 0]
        checker.add(Path(rep["out"]), not bad, f"in-process exit {bad}")
    traced = [r for r in reps if r["mode"] == "traced"]
    plain = [r for r in reps if r["mode"] == "plain"]
    # Counts repeat exactly; median_low keeps them whole numbers.
    layers = {k: (statistics.median_low if isinstance(v, int) else _median)(
        [r["metrics"][k] for r in traced]) for k, v in traced[0]["metrics"].items()}
    extra = {
        "reps": len(traced),
        "trace_overhead_s": _median([r["wall_s"] for r in traced]) - _median([r["wall_s"] for r in plain]),
        **{k: v for k, v in layers.items() if k not in PER_LAYER},
    }
    return {k: layers[k] for k in PER_LAYER}, checker, extra


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Checker, dict]:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    wl = workloads.build(name, ROOT, seed)
    wl.write(work / "in")
    metrics, checker, extra = (traced_run if trace else timed_run)(wl, work, seconds)
    extra = {**extra, **{f"input.{k}": v for k, v in workloads.properties(wl).items()}}
    return metrics, checker, extra


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_rows(name: str, metrics: dict, checker: Checker, extra: dict, trace: bool) -> None:
    units = {**END_TO_END, **PER_LAYER, **LAYER_ONLY, "failed_frac": "ratio",
             "trace_overhead_s": "s", "layers_total_s": "s", "wall_s_min": "s", "wall_s_max": "s"}
    rows = dict(metrics)
    if not trace:
        rows["failed_frac"] = checker.failed_frac
    rows["known_misverdicts"] = checker.known
    rows.update(extra)
    print(f"== {name}" + (" (traced, in-process, --workers 1)" if trace else ""))
    for key, value in rows.items():
        if key in LAYER_ONLY and value == 0:
            continue  # the layer does no work on this workload
        print(f"  {key:32s} {_fmt(value):>14s} {units.get(key, '')}")
    for why in checker.problems[:10]:
        print(f"  problem: {why}")


def print_summary(rows: dict, units: dict) -> None:
    """One row per workload, one column per metric."""
    keys = list(units)
    print("\n" + " ".join([f"{'workload':16s}"] + [f"{k + ' [' + units[k] + ']':>22s}" for k in keys]))
    for name, metrics in rows.items():
        print(" ".join([f"{name:16s}"] + [f"{_fmt(metrics[k]):>22s}" for k in keys]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    needed = [ROOT / "src" / "repairdx" / "cli.py", ROOT / "tests" / "data" / "valid_methods.jsonl"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"run from a checkout of the repository; missing: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    units = PER_LAYER if args.trace else END_TO_END
    rows = {}
    for name in names:
        metrics, checker, extra = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_rows(name, metrics, checker, extra, bool(args.trace))
        result["correct"] = result["correct"] and checker.correct
        result["attempted"] += checker.attempted
        result["failed"] += checker.failed
        prefix = f"{name}." if len(names) > 1 else ""
        result["metrics"].update(
            {prefix + k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
        rows[name] = metrics if args.trace else {**metrics, "failed_frac": checker.failed_frac}
    if len(names) > 1:
        print_summary(rows, units if args.trace else {**units, "failed_frac": "ratio"})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
