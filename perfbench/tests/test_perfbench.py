"""Tests of the benchmark itself: generator, oracle, harness, tracing.

    python3 -m unittest discover -s perfbench/tests

Workloads here are scaled down; the traced-run tests import repairdx
from src/.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402
from harness import run_child  # noqa: E402
from run import output_files  # noqa: E402
from spans import Tracer, totals  # noqa: E402


def small(name: str, seed: int):
    if name == "track_mixed":
        return workloads.track_mixed(ROOT, seed, n_examples=14)
    if name == "eval_degenerate":
        return workloads.eval_degenerate(ROOT, seed, n_edits=6, depths=(40, 90), n_runaway=1)
    return workloads.abstract_corpus(ROOT, seed, copies=1, n_examples=6)


def digests(paths) -> list[str]:
    return [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for name in workloads.BUILDERS:
            a, b, c = (workloads.build(name, ROOT, s).files for s in (7, 7, 8))
            self.assertEqual(a, b, name)
            self.assertNotEqual(a, c, name)

    def test_swaps_preserve_the_fixture_verdict(self):
        from repairdx.syntax import check_syntax

        wl = small("abstract_corpus", 3)
        for it in wl.check_items:
            self.assertEqual(check_syntax(it.text).valid, it.valid, it.text)

    def test_track_mix_has_exact_shares_in_every_sample(self):
        wl = workloads.track_mixed(ROOT, 5)
        items = oracle.Oracle(wl).expected_items()
        kinds = [it.kind for it in items]
        self.assertEqual((kinds.count("copy"), kinds.count("edit"), kinds.count("fix")),
                         (360, 210, 30))

    def test_eval_degenerate_texts_are_distinct_and_never_copies(self):
        wl = workloads.eval_degenerate(ROOT, 2)
        texts = [it.text for it in wl.items]
        self.assertEqual(len(set(texts)), len(texts))
        for it in wl.items:
            self.assertNotIn(it.text, wl.examples[it.id])
        self.assertGreaterEqual(max(map(len, texts)), 10_000)


class OracleTest(unittest.TestCase):
    def test_dp_matches_hand_computed_distances(self):
        cases = [("", "", 0), ("", "abc", 3), ("kitten", "sitting", 3), ("flaw", "lawn", 2),
                 ("intention", "execution", 5), ("abc", "abc", 0), ("ab", "ba", 2),
                 (["int", "x", "=", "0"], ["int", "x", "=", "1"], 1)]
        for a, b, want in cases:
            self.assertEqual(oracle.levenshtein(a, b), want, (a, b))
            self.assertEqual(oracle.levenshtein(b, a), want, (b, a))

    def test_abstraction_check(self):
        src = "int f ( int a ) { return g ( a ) ; }"
        good = "int METHOD_1 ( int VAR_1 ) { return METHOD_2 ( VAR_1 ) ; }"
        mapping = {"variables": [["a", "VAR_1"]], "methods": [["f", "METHOD_1"], ["g", "METHOD_2"]]}
        self.assertIsNone(oracle.abstraction_error(src, good, mapping))
        for bad in ("int METHOD_1 ( int VAR_1 ) { return METHOD_2 ( a ) ; }",
                    "int METHOD_2 ( int VAR_1 ) { return METHOD_1 ( VAR_1 ) ; }",
                    "int METHOD_1 ( int VAR_1 ) { return METHOD_1 ( VAR_1 ) ; }",
                    "VAR_2 METHOD_1 ( int VAR_1 ) { return METHOD_2 ( VAR_1 ) ; }"):
            self.assertIsNotNone(oracle.abstraction_error(src, bad, mapping), bad)


class HarnessTest(unittest.TestCase):
    def test_a_child_past_its_limit_is_killed_and_reported(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            res = run_child([sys.executable, "-c", "import time; time.sleep(30)"], cwd=tmp,
                            env={}, stdout=tmp / "o", stderr=tmp / "e", timeout_s=0.5)
        self.assertTrue(res.timed_out)
        self.assertFalse(res.ok)
        self.assertLess(res.wall_s, 10)

    def test_cpu_and_rss_come_from_the_child(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            code = "x = bytearray(64 << 20); sum(range(3_000_000))"
            res = run_child([sys.executable, "-c", code], cwd=tmp, env={},
                            stdout=tmp / "o", stderr=tmp / "e", timeout_s=60)
        self.assertTrue(res.ok)
        self.assertGreater(res.cpu_s, 0.01)
        self.assertGreater(res.peak_rss_mb, 64)


class SpanTest(unittest.TestCase):
    def test_self_time_excludes_children(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: next(ticks))
        outer = tracer.begin("a")        # 0
        inner = tracer.begin("b")        # 1
        tracer.end(inner)                # 2
        tracer.end(outer)                # 3
        t = totals(tracer.spans)
        self.assertEqual(t["a"], {"calls": 1, "total_s": 3, "self_s": 2})
        self.assertEqual(t["b"], {"calls": 1, "total_s": 1, "self_s": 1})
        self.assertEqual(inner.parent, outer.id)


class TracedRunTest(unittest.TestCase):
    """In-process runs of scaled-down workloads, plain and traced."""

    def run_workload(self, wl, tmp: Path, label: str, trace: bool):
        import repairdx.cli as cli

        in_dir, out = tmp / "in", tmp / label
        wl.write(in_dir)
        seen = traced.Observed()
        tracer = Tracer()
        with traced.installed(tracer, seen) if trace else contextlib.nullcontext():
            codes = traced.run_commands(cli, wl.commands, in_dir, out)
        self.assertEqual(codes, [0] * len(wl.commands))
        return out, (traced.layer_metrics(tracer.spans, seen) if trace else None)

    def test_wrappers_are_removed_afterwards(self):
        before = [getattr(importlib.import_module(m), a) for m, a, _n, _k in traced.TARGETS]
        with traced.installed(Tracer(), traced.Observed()):
            during = [getattr(importlib.import_module(m), a) for m, a, _n, _k in traced.TARGETS]
        after = [getattr(importlib.import_module(m), a) for m, a, _n, _k in traced.TARGETS]
        self.assertEqual(before, after)
        self.assertTrue(all(d is not b for d, b in zip(during, before)))

    def test_traced_outputs_match_plain_and_counts_repeat(self):
        exact = ["metrics.levenshtein_calls", "metrics.dp_cells", "metrics.distinct_pair_ratio",
                 "syntax.check_calls", "syntax.distinct_text_ratio", "javaparse.tokens",
                 "corpus.rows", "abstraction.abstract_calls"]
        for name in workloads.BUILDERS:
            with self.subTest(name), tempfile.TemporaryDirectory() as tmp:
                tmp = Path(tmp)
                wl = small(name, 11)
                plain, _ = self.run_workload(wl, tmp, "plain", trace=False)
                first, m1 = self.run_workload(wl, tmp, "traced-1", trace=True)
                _second, m2 = self.run_workload(wl, tmp, "traced-2", trace=True)
                self.assertEqual(digests(output_files(wl, plain)), digests(output_files(wl, first)))
                self.assertEqual({k: m1[k] for k in exact}, {k: m2[k] for k in exact})
                self.assertGreater(m1["syntax.check_calls"], 0)
                self.assertGreater(m1["javaparse.tokens"], 0)
                verdict = oracle.Oracle(wl).check(first)
                self.assertEqual((verdict.failed, verdict.problems), (0, []))

    def test_oracle_catches_a_wrong_distance(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            wl = small("track_mixed", 4)
            out, _ = self.run_workload(wl, tmp, "plain", trace=False)
            records = out / "track" / "records.jsonl"
            rows = [json.loads(line) for line in records.read_text().splitlines()]
            rows[0]["edit_distance"] += 1
            records.write_text("".join(json.dumps(r) + "\n" for r in rows))
            verdict = oracle.Oracle(wl).check(out)
            self.assertEqual(verdict.failed, 1)


if __name__ == "__main__":
    unittest.main()
