"""Acceptance suite: one test per advertised criterion.

Each test prints a single ``ACCEPTANCE <n> <label>: PASS`` (or ``FAIL``)
line; run with ``pytest -s tests/test_acceptance.py`` to see them. Where
a criterion states a tolerance or a time budget, the assertion enforces
it literally: tolerance 0 means byte- or value-exact, and budgets are
wall-clock bounds on this machine.

Criterion 9 is deliberately not a reproduction: it records that the
externally reported trained-model results can only be checked against an
equivalent prediction dump, which this repository does not ship.
"""

import json
import math
import random
import time
from contextlib import contextmanager

from repairdx.abstraction import abstract_identifiers, check_conformance
from repairdx.cli import main
from repairdx.corpus import load_loss_log
from repairdx.metrics import (
    aggregate,
    exact_match,
    levenshtein,
    normalized_edit_distance,
)
from repairdx.syntax import check_syntax

from conftest import write_jsonl


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {label}: PASS")


# ---------------------------------------------------------------------------
# 1. behavior distribution on an engineered 10-triple corpus
# ---------------------------------------------------------------------------


def test_acceptance_1_behavior_distribution(tmp_path, capsys):
    with criterion(1, "behavior distribution on engineered triples "
                      "(copy 80%, modification 20%, exact match 0%)"):
        corpus = []
        preds = []
        for i in range(10):
            buggy = f"int m{i} ( ) {{ return {i} ; }}"
            fixed = f"int m{i} ( ) {{ return {i} + 1 ; }}"
            corpus.append({"id": f"acc1-{i:03d}", "buggy": buggy, "fixed": fixed})
            if i < 8:
                prediction = buggy  # verbatim copy
            else:
                prediction = f"int m{i} ( ) {{ return {i} - 1 ; }}"  # neither text
            preds.append({"id": f"acc1-{i:03d}", "step": 500,
                          "prediction": prediction})
        corpus_path = write_jsonl(tmp_path / "corpus.jsonl", corpus)
        preds_path = write_jsonl(tmp_path / "preds.jsonl", preds)
        out = tmp_path / "results"

        started = time.perf_counter()
        code = main(["eval", "--corpus", str(corpus_path),
                     "--preds", str(preds_path), "--out", str(out)])
        elapsed = time.perf_counter() - started
        capsys.readouterr()  # drop the CLI's own output

        assert code == 0
        lines = (out / "behavior.csv").read_text(encoding="utf-8").strip().splitlines()
        assert lines == [
            "class,count,percentage",
            "exact_match,0,0.000000",
            "copy,8,80.000000",
            "modification,2,20.000000",
        ]
        assert elapsed < 1.0, f"took {elapsed:.3f}s, budget is 1s"


# ---------------------------------------------------------------------------
# 2. syntax-validity arithmetic
# ---------------------------------------------------------------------------


def test_acceptance_2_syntax_validity_arithmetic():
    with criterion(2, "syntax validity arithmetic (94 valid of 100 -> 94.0)"):
        snippets = [f"int ok{i} ( ) {{ return {i} ; }}" for i in range(94)]
        snippets += [f"int bad{i} ( {{ return {i} ; }}" for i in range(6)]
        verdicts = [check_syntax(code) for code in snippets]
        valid = sum(1 for v in verdicts if v.valid)
        assert valid == 94
        assert sum(1 for v in verdicts if not v.valid) == 6
        assert 100.0 * valid / len(verdicts) == 94.0  # tolerance 0


# ---------------------------------------------------------------------------
# 3. checker agreement on the frozen 100-fragment fixture
# ---------------------------------------------------------------------------


def test_acceptance_3_checker_agreement(valid_methods, broken_methods):
    with criterion(3, "syntax checker agreement on 100 labeled fragments"):
        assert len(valid_methods) == 50
        assert len(broken_methods) == 50
        started = time.perf_counter()
        disagreements = []
        for row in valid_methods:
            if not check_syntax(row["code"]).valid:
                disagreements.append((row["id"], "expected valid"))
        for row in broken_methods:
            if check_syntax(row["code"]).valid:
                disagreements.append((row["id"], "expected invalid"))
        elapsed = time.perf_counter() - started
        assert not disagreements, disagreements
        assert elapsed < 2.0, f"took {elapsed:.3f}s, budget is 2s"


# ---------------------------------------------------------------------------
# 4. Levenshtein against a brute-force oracle, plus metric axioms
# ---------------------------------------------------------------------------


def _dp_levenshtein(a, b):
    """Textbook full-matrix dynamic program; the independent oracle."""
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1,
                          d[i][j - 1] + 1,
                          d[i - 1][j - 1] + cost)
    return d[m][n]


def _random_text(rng, max_len=30, alphabet="ab(){} ;x"):
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, max_len + 1)))


def test_acceptance_4_levenshtein_oracle_and_axioms():
    with criterion(4, "Levenshtein equals brute-force DP oracle on 1000 pairs; "
                      "metric axioms hold on 1000 triples"):
        rng = random.Random(20260817)
        started = time.perf_counter()
        for _ in range(1000):
            a = _random_text(rng)
            b = _random_text(rng)
            assert levenshtein(a, b) == _dp_levenshtein(a, b)  # tolerance 0
        for _ in range(1000):
            a = _random_text(rng)
            b = _random_text(rng)
            c = _random_text(rng)
            ab, ba = levenshtein(a, b), levenshtein(b, a)
            assert ab == ba  # symmetry
            assert levenshtein(a, a) == 0  # identity
            assert (ab == 0) == (a == b)  # separation
            assert levenshtein(a, c) <= ab + levenshtein(b, c)  # triangle
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.3f}s, budget is 5s"


# ---------------------------------------------------------------------------
# 5. normalized edit distance: range and boundary laws
# ---------------------------------------------------------------------------


def test_acceptance_5_ned_range_and_boundaries():
    with criterion(5, "normalized edit distance stays in [0, 1] with exact "
                      "boundary behavior"):
        rng = random.Random(20260818)
        pairs = []
        for _ in range(800):
            pairs.append((_random_text(rng), _random_text(rng)))
        for _ in range(100):  # engineered equal pairs
            text = _random_text(rng)
            pairs.append((text, text))
        for _ in range(100):  # engineered empty-vs-nonempty pairs
            text = ""
            while not text:
                text = _random_text(rng)
            pairs.append(("", text) if rng.random() < 0.5 else (text, ""))
        assert len(pairs) == 1000
        for a, b in pairs:
            ned = normalized_edit_distance(a, b)
            assert 0.0 <= ned <= 1.0
            if a or b:
                assert (ned == 0.0) == (a == b)
            if (a == "") != (b == ""):
                assert ned == 1.0


# ---------------------------------------------------------------------------
# 6. repeated track runs produce byte-identical outputs
# ---------------------------------------------------------------------------


def test_acceptance_6_track_is_byte_deterministic(valid_methods, tmp_path,
                                                  capsys):
    with criterion(6, "two identical track runs emit byte-identical "
                      "checkpoints.csv, behavior.csv, table1.csv, report.json"):
        methods = [row["code"] for row in valid_methods]
        corpus = []
        preds = []
        for i, code in enumerate(methods):
            example_id = f"acc6-{i:03d}"
            buggy = code
            fixed = methods[(i + 1) % len(methods)]
            corpus.append({"id": example_id, "buggy": buggy, "fixed": fixed})
            early = [buggy, fixed, methods[(i + 2) % len(methods)],
                     buggy[: len(buggy) // 2]][i % 4]
            preds.append({"id": example_id, "step": 500, "prediction": early})
            late = fixed if i % 2 == 0 else buggy
            preds.append({"id": example_id, "step": 1000, "prediction": late})
        corpus_path = write_jsonl(tmp_path / "corpus.jsonl", corpus)
        preds_path = write_jsonl(tmp_path / "preds.jsonl", preds)
        loss_path = write_jsonl(tmp_path / "loss.jsonl", [
            {"step": 500, "train_loss": 1.8, "eval_loss": 1.21},
            {"step": 1000, "train_loss": 0.9, "eval_loss": 0.64},
        ])

        outputs = []
        for run in (1, 2):
            out = tmp_path / f"run{run}"
            code = main(["track", "--corpus", str(corpus_path),
                         "--preds", str(preds_path), "--out", str(out),
                         "--sample", "20", "--interval", "500",
                         "--loss-log", str(loss_path)])
            capsys.readouterr()
            assert code == 0
            outputs.append(out)

        first, second = outputs
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        assert {"checkpoints.csv", "behavior.csv", "table1.csv",
                "report.json"} <= set(names)
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


# ---------------------------------------------------------------------------
# 7. aggregate summary statistics
# ---------------------------------------------------------------------------


def test_acceptance_7_aggregate_statistics():
    with criterion(7, "aggregate([0.2, 0.4, 0.6]) -> mean 0.4, median 0.4, "
                      "population std sqrt(2/75)"):
        stats = aggregate([0.2, 0.4, 0.6])
        assert abs(stats.mean - 0.4) <= 1e-9
        assert stats.median == 0.4
        assert abs(stats.std - math.sqrt(2.0 / 75.0)) <= 1e-9
        assert stats.min == 0.2
        assert stats.max == 0.6
        assert stats.n == 3


# ---------------------------------------------------------------------------
# 8. abstraction is idempotent and preserves validity
# ---------------------------------------------------------------------------


def test_acceptance_8_abstraction_idempotence(abstraction_methods):
    with criterion(8, "abstraction is idempotent on 20 methods and outputs "
                      "stay syntax-valid"):
        assert len(abstraction_methods) == 20
        for row in abstraction_methods:
            once, _ = abstract_identifiers(row["code"])
            twice, _ = abstract_identifiers(once)
            assert twice == once, row["id"]
            assert check_syntax(once).valid, row["id"]
            assert check_conformance(once).conformant, row["id"]


# ---------------------------------------------------------------------------
# 9. externally reported trained-model results are out of desk-scale reach
# ---------------------------------------------------------------------------


def test_acceptance_9_trained_model_results_not_reproduced():
    # The toolkit can verify numbers of this shape, but only against an
    # equivalent prediction dump produced by a trained model. No such dump
    # ships here, so the honest outcome is a stated limitation, not a
    # reproduction.
    for capability in (check_syntax, exact_match, normalized_edit_distance,
                       aggregate, load_loss_log):
        assert callable(capability)
    print(
        "ACCEPTANCE 9 externally reported trained-model results "
        "(~94% syntax validity, 0% exact match, NED mean 0.37 / median 0.41 "
        "/ std 0.18, eval loss 2.095 -> 0.126): NOT REPRODUCIBLE AT DESK "
        "SCALE — verifying them requires an equivalent trained-model "
        "prediction dump, which this repository does not ship; the pipeline "
        "accepts such a dump via the track command when one is available."
    )
