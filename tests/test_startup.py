"""Importing the package stays cheap, and each command loads only what
it runs.

Every CLI start imports ``repairdx``, which loads none of its modules:
each public name is imported on first access. The version is a literal
in the package, so no command imports ``importlib.metadata``. No
command starts a worker process, so none imports ``multiprocessing``,
however much text it judges.
``check`` loads the parser but no metrics, report or abstraction code,
``stats`` no parser, and ``abstract`` no report. No command, and not the
benchmark's set-up statement, loads OpenSSL through ``hashlib``, or
``dataclasses`` with the ``inspect`` module it imports.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repairdx

from conftest import SMALL_CORPUS, SMALL_PREDICTIONS, write_jsonl
from threaded_caller import large_run

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import sys
import repairdx
print("importlib.metadata" in sys.modules, "multiprocessing" in sys.modules)
print("__version__" in vars(repairdx), [m for m in sys.modules if m.startswith("repairdx.")])
from repairdx.report import Provenance
print(Provenance(seed=0).version == repairdx.__version__)
"""


def test_import_leaves_metadata_and_multiprocessing_unloaded():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split("\n")[:3] == ["False False", "True []", "True"]


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


LOADED_PROBE = """
import json
import sys
from repairdx.cli import main
code = main(sys.argv[1:])
watched = ("difflib", "statistics", "importlib.metadata", "dataclasses", "inspect",
           "hashlib", "_hashlib", "multiprocessing")
print(json.dumps([code, [m for m in sys.modules if m.startswith("repairdx.") or m in watched]]))
"""

# Modules no command loads: the metadata reader, OpenSSL's binding, the
# dataclass machinery and process pools.
NEVER_LOADED = ["importlib.metadata", "dataclasses", "inspect", "hashlib", "_hashlib",
                "multiprocessing"]

# command line -> modules it must not load, each with its submodules
NOT_LOADED = {
    "stats --corpus {corpus}": [
        "repairdx.javaparse", "repairdx.syntax", "repairdx.abstraction",
        "repairdx.tracking", "repairdx.metrics", "repairdx.report", "difflib",
        *NEVER_LOADED],
    "check --in {snippets}": [
        "repairdx.abstraction", "repairdx.report", "repairdx.tracking",
        "repairdx.metrics", "difflib", "statistics", *NEVER_LOADED],
    "abstract --corpus {corpus} --out {out}": [
        "repairdx.report", "repairdx.tracking", "repairdx.metrics", "difflib",
        *NEVER_LOADED],
    "abstract --verify-only --corpus {corpus} --out {out}": [
        "repairdx.report", "repairdx.tracking", "repairdx.metrics", "difflib",
        *NEVER_LOADED],
    "eval --corpus {corpus} --preds {final} --out {out}": [
        "repairdx.abstraction", "difflib", *NEVER_LOADED],
    "track --corpus {corpus} --preds {preds} --out {out} --cases 2": [
        "repairdx.abstraction", *NEVER_LOADED],
    "inspect --corpus {corpus} --preds {preds} --out {out} --cases 2": [
        "repairdx.abstraction", *NEVER_LOADED],
}


@pytest.mark.parametrize("command", sorted(NOT_LOADED))
def test_command_loads_only_what_it_runs(command, tmp_path):
    files = {
        "corpus": write_jsonl(tmp_path / "corpus.jsonl", SMALL_CORPUS),
        "preds": write_jsonl(tmp_path / "preds.jsonl", SMALL_PREDICTIONS),
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


def test_large_track_run_leaves_multiprocessing_unloaded(tmp_path):
    corpus, preds = large_run()
    assert len({p["prediction"] for p in preds}) == 600
    assert sum(len(p["prediction"]) for p in preds) > 160_000
    argv = ["track", "--corpus", str(write_jsonl(tmp_path / "corpus.jsonl", corpus)),
            "--preds", str(write_jsonl(tmp_path / "preds.jsonl", preds)),
            "--out", str(tmp_path / "out"), "--sample", "600", "--workers", "2"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-c", LOADED_PROBE, *argv], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    code, loaded = json.loads(res.stdout.splitlines()[-1])
    assert code == 0, res.stderr
    assert "multiprocessing" not in loaded
    assert "tracked 1 checkpoint(s)" in res.stderr


def test_run_with_a_second_thread_alive_raises_no_deprecation_warning():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, str(ROOT / "tests" / "threaded_caller.py")],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "0 DeprecationWarning(s)" in res.stdout


def test_benchmark_setup_statement_loads_no_heavy_module():
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    [setup] = [ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == "SETUP_CODE" for t in node.targets)]
    probe = setup + f"; import sys; print([m for m in {NEVER_LOADED!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"
