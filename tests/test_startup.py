"""Importing the package stays cheap, and each command loads only what
it runs.

Every CLI start imports ``repairdx``, which loads none of its modules:
each public name is imported on first access. The version string needs a
distribution lookup through ``importlib.metadata``, and only a pooled
run needs ``multiprocessing``, so neither is imported up front. A run
too small to repay a pool never imports ``multiprocessing`` at all.
``check`` loads the parser but no metrics, report or abstraction code,
``stats`` no parser, and ``abstract`` no report.
"""

import json
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


def test_import_loads_no_module_of_the_package():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = "import sys, repairdx; print([m for m in sys.modules if m.startswith('repairdx.')])"
    res = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


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


LOADED_PROBE = """
import json
import sys
from repairdx.cli import main
code = main(sys.argv[1:])
watched = ("difflib", "statistics")
print(json.dumps([code, [m for m in sys.modules if m.startswith("repairdx.") or m in watched]]))
"""

# command line -> modules it must not load, each with its submodules
NOT_LOADED = {
    "stats --corpus {corpus}": [
        "repairdx.javaparse", "repairdx.syntax", "repairdx.abstraction",
        "repairdx.tracking", "repairdx.metrics", "repairdx.report", "difflib"],
    "check --in {snippets}": [
        "repairdx.abstraction", "repairdx.report", "repairdx.tracking",
        "repairdx.metrics", "difflib", "statistics"],
    "abstract --corpus {corpus} --out {out}": [
        "repairdx.report", "repairdx.tracking", "repairdx.metrics", "difflib"],
    "abstract --verify-only --corpus {corpus} --out {out}": [
        "repairdx.report", "repairdx.tracking", "repairdx.metrics", "difflib"],
    "eval --corpus {corpus} --preds {final} --out {out}": [
        "repairdx.abstraction", "difflib"],
}


@pytest.mark.parametrize("command", sorted(NOT_LOADED))
def test_command_loads_only_what_it_runs(command, tmp_path):
    files = {
        "corpus": write_jsonl(tmp_path / "corpus.jsonl", SMALL_CORPUS),
        "final": write_jsonl(tmp_path / "final.jsonl",
                             [p for p in SMALL_PREDICTIONS if p["step"] == 1000]),
        "snippets": write_jsonl(tmp_path / "snippets.jsonl",
                                [{"id": ex["id"], "code": ex["buggy"]} for ex in SMALL_CORPUS]),
        "out": tmp_path / "out",
    }
    argv = command.format(**files).split()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-c", LOADED_PROBE, *argv], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    code, loaded = json.loads(res.stdout.splitlines()[-1])
    assert code == 0, res.stderr
    assert [m for m in loaded
            if any(m == bad or m.startswith(bad + ".") for bad in NOT_LOADED[command])] == []
