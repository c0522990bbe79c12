"""Importing the package stays cheap.

Every CLI start imports ``repairdx``. The version string needs a
distribution lookup through ``importlib.metadata``, and only a pooled
run needs ``multiprocessing``, so neither is imported up front. A run
too small to repay a pool never imports ``multiprocessing`` at all.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repairdx

from conftest import SMALL_CORPUS, SMALL_PREDICTIONS, write_jsonl

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import sys
import repairdx
print("importlib.metadata" in sys.modules, "multiprocessing" in sys.modules)
from repairdx.report import _tool_version
print(repairdx.__version__ == _tool_version())
"""


def test_import_leaves_metadata_and_multiprocessing_unloaded():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split("\n")[:2] == ["False False", "True"]


def test_unknown_attribute_is_still_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        repairdx.no_such_name


TRACK_PROBE = """
import sys
from repairdx.cli import main
code = main(sys.argv[1:])
print(code, "multiprocessing" in sys.modules)
"""


def test_small_track_run_leaves_multiprocessing_unloaded(tmp_path):
    corpus = write_jsonl(tmp_path / "corpus.jsonl", SMALL_CORPUS)
    preds = write_jsonl(tmp_path / "preds.jsonl", SMALL_PREDICTIONS)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, "-c", TRACK_PROBE, "track", "--corpus", str(corpus),
         "--preds", str(preds), "--out", str(tmp_path / "out"), "--workers", "2"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "0 False"
