"""The benchmark's names for the package must keep resolving.

``perfbench/run.py`` times ``SETUP_CODE`` in a fresh interpreter with
``PYTHONPATH=src``, and ``perfbench/traced.py`` wraps every
``(module, attribute)`` in its ``TARGETS``. A library change that breaks
a name either uses would otherwise surface only when the benchmark runs.
Both are read by ``ast``, without importing the benchmark.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

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


def test_benchmark_setup_statement_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-c", _literal("perfbench/run.py", "SETUP_CODE")],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr


def test_every_name_the_benchmark_traces_exists():
    targets = _literal("perfbench/traced.py", "TARGETS")
    assert targets
    missing = [f"{module}.{attr}" for module, attr, _span, _kind in targets
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
