"""The benchmark's names for the package must keep resolving.

``perfbench/run.py`` times ``SETUP_CODE`` in a fresh interpreter with
``PYTHONPATH=src``, and ``perfbench/traced.py`` wraps every
``(module, attribute)`` in its ``TARGETS``. A library change that breaks
a name either uses would otherwise surface only when the benchmark runs.
Both are read by ``ast``, without importing the benchmark.

``repairdx.cli`` imports a command's library modules only when the
command runs, so the tracer's names on it must resolve on a fresh
import, and a wrapper set on it must be the function the command calls.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import SMALL_CORPUS, SMALL_PREDICTIONS, write_jsonl

ROOT = Path(__file__).resolve().parent.parent


def _literal(relpath: str, name: str):
    """The literal value assigned to ``name`` at the top of a benchmark file."""
    tree = ast.parse((ROOT / relpath).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{relpath} defines no {name}")


def _fresh(code: str, *args: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter with ``args``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    return res.stdout


RESOLVE_PROBE = """
import importlib, json, sys
missing = []
for module, attr in json.loads(sys.argv[1]):
    try:
        getattr(importlib.import_module(module), attr)
    except AttributeError:
        missing.append(module + "." + attr)
print(json.dumps(missing))
"""


def test_benchmark_setup_statement_runs():
    _fresh(_literal("perfbench/run.py", "SETUP_CODE"))


def test_every_name_the_benchmark_traces_exists():
    # In a fresh interpreter, and the `repairdx.cli` targets first, so
    # that they resolve on a module that has bound no library name yet.
    targets = [[module, attr] for module, attr, _span, _kind
               in _literal("perfbench/traced.py", "TARGETS")]
    assert targets[0][0] == "repairdx.cli"
    assert json.loads(_fresh(RESOLVE_PROBE, json.dumps(targets))) == []


WRAP_PROBE = """
import json, sys
import repairdx.cli as cli
from repairdx.syntax import check_syntax

judged = []
cli.check_syntax = lambda code: judged.append(code) or check_syntax(code)
print(json.dumps([cli.main(["check", "--in", sys.argv[1]]), judged]))
"""


def test_a_wrapper_set_on_cli_before_check_runs_is_what_check_calls(tmp_path):
    good, bad = "int f ( ) { return 1 ; }", "int f ( { return 1 ; }"
    snippets = write_jsonl(tmp_path / "snippets.jsonl", [
        {"id": f"s{i}", "code": code} for i, code in enumerate([good, bad, good])])
    last = _fresh(WRAP_PROBE, str(snippets)).splitlines()[-1]
    assert json.loads(last) == [0, [good, bad]]


TRACE_PROBE = """
import json, sys
import repairdx.cli as cli

called = set()
for attr in json.loads(sys.argv[1]):
    def wrapper(*args, _attr=attr, _real=getattr(cli, attr), **kwargs):
        called.add(_attr)
        return _real(*args, **kwargs)
    setattr(cli, attr, wrapper)
for argv in json.loads(sys.argv[2]):
    called.clear()
    code = cli.main(argv)
    print(json.dumps([code, sorted(called)]))
"""

# command -> the traced `repairdx.cli` names it calls
TRACED_CALLS = {
    "check": ["check_syntax"],
    "abstract": ["abstract_identifiers", "load_examples"],
    "verify": ["check_conformance", "load_examples"],
    "eval": ["build_report", "emit_report", "evaluate_examples", "extract_cases",
             "load_examples", "load_predictions", "summarize_records"],
    "track": ["build_report", "emit_report", "extract_cases", "load_examples",
              "load_loss_log", "load_predictions", "run_tracking"],
    "inspect": ["emit_cases", "evaluate_examples", "extract_cases", "load_examples",
                "load_predictions"],
}


def test_each_command_calls_the_traced_names_through_cli(tmp_path):
    corpus = write_jsonl(tmp_path / "corpus.jsonl", SMALL_CORPUS)
    preds = write_jsonl(tmp_path / "preds.jsonl", SMALL_PREDICTIONS)
    final = write_jsonl(tmp_path / "final.jsonl",
                        [p for p in SMALL_PREDICTIONS if p["step"] == 1000])
    loss = write_jsonl(tmp_path / "loss.jsonl", [{"step": 1000, "eval_loss": 0.5}])
    snippets = write_jsonl(tmp_path / "snippets.jsonl",
                           [{"id": ex["id"], "code": ex["buggy"]} for ex in SMALL_CORPUS])
    out = str(tmp_path / "out")
    argvs = {
        "check": ["check", "--in", str(snippets)],
        "abstract": ["abstract", "--corpus", str(corpus), "--out", out],
        "verify": ["abstract", "--verify-only", "--corpus", str(corpus), "--out", out],
        "eval": ["eval", "--corpus", str(corpus), "--preds", str(final), "--out", out,
                 "--cases", "2"],
        "track": ["track", "--corpus", str(corpus), "--preds", str(preds), "--out", out,
                  "--cases", "2", "--loss-log", str(loss)],
        "inspect": ["inspect", "--corpus", str(corpus), "--preds", str(preds), "--out", out,
                    "--cases", "2"],
    }
    traced = [attr for module, attr, _span, _kind in _literal("perfbench/traced.py", "TARGETS")
              if module == "repairdx.cli" and attr != "main"]
    stdout = _fresh(TRACE_PROBE, json.dumps(traced), json.dumps(list(argvs.values())))
    results = [json.loads(line) for line in stdout.splitlines() if line.startswith("[")]
    assert dict(zip(argvs, results)) == {name: [0, calls] for name, calls in TRACED_CALLS.items()}
