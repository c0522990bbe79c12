"""Golden runs of every subcommand on the shared fixtures.

Each run pins the exit code, stdout, stderr and the sha256 of every file
the command writes, so a refactor of the command-line layer that moves a
single byte of any output fails here. Temporary paths in stdout read as
``<tmp>``, and the tool version in ``report.json`` as ``<version>``, so
the pins hold on any machine and for any installed version. Each command
is also run once as ``python -m repairdx.cli`` in a fresh interpreter,
where it must bind every name it calls itself.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repairdx.cli import main
from repairdx.report import _tool_version

from conftest import SMALL_PREDICTIONS, write_jsonl

SNIPPETS = [
    {"id": "s1", "code": "int f ( ) { return 1 ; }"},
    {"id": "s2", "code": "int f ( { return 1 ; }"},
    {"id": "s3", "code": "void g ( ) { if ( x ) { y ( ) ; } }"},
    {"id": "s4", "code": "void g ( ) { if ( x ) { y ( ) ; }"},
    {"id": "s5", "code": "   "},
]

VERIFY_CORPUS = [
    {"id": "ok", "buggy": "int METHOD_1 ( ) { return VAR_1 ; }",
     "fixed": "int METHOD_1 ( ) { return VAR_1 ; }"},
    {"id": "gap", "buggy": "int METHOD_1 ( ) { return VAR_2 ; }",
     "fixed": "int METHOD_1 ( ) { return VAR_1 + VAR_3 ; }"},
    {"id": "mixed", "buggy": "int METHOD_1 ( ) { return count ; }",
     "fixed": "int METHOD_1 ( ) { return VAR_0 ; }"},
]

COMMANDS = {
    "stats": ["stats", "--corpus", "{corpus}"],
    "check": ["check", "--in", "{snippets}"],
    "abstract": ["abstract", "--corpus", "{corpus}", "--out", "{out}"],
    "verify": ["abstract", "--corpus", "{verify}", "--out", "{out}",
               "--verify-only", "--strict-gaps"],
    "eval": ["eval", "--corpus", "{corpus}", "--preds", "{final}",
             "--out", "{out}", "--cases", "2"],
    "track": ["track", "--corpus", "{corpus}", "--preds", "{preds}",
              "--out", "{out}", "--cases", "2", "--loss-log", "{loss}"],
    "inspect": ["inspect", "--corpus", "{corpus}", "--preds", "{preds}",
                "--out", "{out}", "--cases", "2"],
}


ROOT = Path(__file__).resolve().parent.parent


def golden_argv(name, tmp_path, corpus_file, predictions_file, loss_file, extra=()):
    """The command line of one command, with ``extra`` arguments appended;
    its inputs are written under ``tmp_path``."""
    files = {
        "corpus": corpus_file,
        "preds": predictions_file,
        "loss": loss_file,
        "final": write_jsonl(tmp_path / "final.jsonl",
                             [p for p in SMALL_PREDICTIONS if p["step"] == 1000]),
        "snippets": write_jsonl(tmp_path / "snippets.jsonl", SNIPPETS),
        "verify": write_jsonl(tmp_path / "verify.jsonl", VERIFY_CORPUS),
        "out": tmp_path / "out",
    }
    return [arg.format(**{k: str(v) for k, v in files.items()})
            for arg in COMMANDS[name]] + list(extra)


def golden_result(tmp_path, code, out, err):
    """(exit code, stdout, stderr, {file: sha256}) of a run that wrote to
    ``tmp_path / "out"``."""
    version = json.dumps(_tool_version()).encode()
    digests = {}
    out_dir = tmp_path / "out"
    for path in sorted(out_dir.iterdir()) if out_dir.is_dir() else ():
        data = path.read_bytes().replace(version, b'"<version>"')
        digests[path.name] = hashlib.sha256(data).hexdigest()
    tmp = str(tmp_path)
    return code, out.replace(tmp, "<tmp>"), err.replace(tmp, "<tmp>"), digests


def golden_run(name, tmp_path, corpus_file, predictions_file, loss_file, capsys,
               extra=()):
    """Run one command in this interpreter, with ``extra`` arguments
    appended; return (exit code, stdout, stderr, {file: sha256})."""
    argv = golden_argv(name, tmp_path, corpus_file, predictions_file, loss_file, extra)
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    return golden_result(tmp_path, code, captured.out, captured.err)


EXPECTED = {
    "abstract": (
        0,
        "<tmp>/out/abstracted.jsonl\n",
        "abstracted 4 example(s)\n",
        {
            "abstracted.jsonl":
                "c8515dee3d36689585b59c4e1271597a3d778e9de2a52c86bda023a3793b514f",
            "mappings.jsonl":
                "07a317b0d95f5054c85603c76610c8a9db9364562a3c8daba14974627a929dca",
        },
    ),
    "check": (
        0,
        ('{"id": "s1", "valid": true, "limit_exceeded": false, "error_count": 0, '
         '"error_spans": []}\n'
         '{"id": "s2", "valid": false, "limit_exceeded": false, "error_count": 2, '
         '"error_spans": [[8, 8], [8, 8]]}\n'
         '{"id": "s3", "valid": true, "limit_exceeded": false, "error_count": 0, '
         '"error_spans": []}\n'
         '{"id": "s4", "valid": false, "limit_exceeded": false, "error_count": 1, '
         '"error_spans": [[33, 33]]}\n'
         '{"id": "s5", "valid": false, "limit_exceeded": false, "error_count": 1, '
         '"error_spans": [[0, 0]]}\n'),
        "checked 5 snippet(s): 2 valid (40.0%)\n",
        {},
    ),
    "eval": (
        0,
        ("<tmp>/out/report.json\n"
         "<tmp>/out/checkpoints.csv\n"
         "<tmp>/out/behavior.csv\n"
         "<tmp>/out/table1.csv\n"
         "<tmp>/out/records.jsonl\n"
         "<tmp>/out/cases.json\n"),
        ("evaluated 4 example(s) at step 1000: syntax validity 100.0%, "
         "exact match 100.0%, copy 0.0%\n"),
        {
            "behavior.csv":
                "0a92878008f6ef0372a99cee53c0a63ef37241e97a957da4ff85fb3e4bde6497",
            "cases.json":
                "39b44fb88a28bbae8e0b70a93bf84d396aeeb8a99b92910fb3eaa6ed15699655",
            "checkpoints.csv":
                "f958c7ba5e85b82996e42b820e035ef859295f94a93607d424d881b3601f8580",
            "records.jsonl":
                "21857ecb854f0c52bbfd819e7cb8f6b0eba3df909002aa3f782b6ff7af603192",
            "report.json":
                "3e84cead0a515dab27079f0c8e66b52b8cee2b2c0796fc5b0a7264a19bd9578f",
            "table1.csv":
                "adc86b16f445387c2ed6acf66748b1932980766c4b5d3fb4a7c3ec65b01a1d1a",
        },
    ),
    "inspect": (
        0,
        "<tmp>/out/cases.json\n",
        "sampled 2 case(s) at step 1000\n",
        {
            "cases.json":
                "39b44fb88a28bbae8e0b70a93bf84d396aeeb8a99b92910fb3eaa6ed15699655",
        },
    ),
    "stats": (
        0,
        ("{\n"
         '  "n_examples": 4,\n'
         '  "n_per_split": {\n'
         '    "test": 4\n'
         "  },\n"
         '  "mean_token_length": 12.25,\n'
         '  "median_token_length": 11.5,\n'
         '  "identity_pairs": 0,\n'
         '  "identity_pair_fraction": 0.0,\n'
         '  "duplicate_buggy": 0\n'
         "}\n"),
        "",
        {},
    ),
    "track": (
        0,
        ("<tmp>/out/report.json\n"
         "<tmp>/out/checkpoints.csv\n"
         "<tmp>/out/behavior.csv\n"
         "<tmp>/out/table1.csv\n"
         "<tmp>/out/records.jsonl\n"
         "<tmp>/out/cases.json\n"),
        ("tracked 2 checkpoint(s) (steps 500..1000): final syntax validity "
         "100.0%, final copy rate 0.0%\n"),
        {
            "behavior.csv":
                "0a92878008f6ef0372a99cee53c0a63ef37241e97a957da4ff85fb3e4bde6497",
            "cases.json":
                "39b44fb88a28bbae8e0b70a93bf84d396aeeb8a99b92910fb3eaa6ed15699655",
            "checkpoints.csv":
                "33b5fdaafc376101fad9d062f1635b4b77ad48b25e8e8fa36d5ae552e4bd11da",
            "records.jsonl":
                "f221bfc14c9a571b381528cba6d17b87cbea253d831139aca31b415e3dc08daf",
            "report.json":
                "f041a2afe353137b154ee68649804578e8bfedf86ecb5017eb31ea1c5d5bdc7d",
            "table1.csv":
                "adc86b16f445387c2ed6acf66748b1932980766c4b5d3fb4a7c3ec65b01a1d1a",
        },
    ),
    "verify": (
        0,
        "<tmp>/out/conformance.jsonl\n",
        "checked 3 example(s): 1 conformant, 2 with violations\n",
        {
            "conformance.jsonl":
                "50a08079a4b6247c07e23b262d75b6e70b7d637e92cf6dfa152934aa60369f6e",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_output_is_pinned(name, tmp_path, corpus_file, predictions_file,
                                  loss_file, capsys):
    got = golden_run(name, tmp_path, corpus_file, predictions_file, loss_file, capsys)
    assert got == EXPECTED[name]


@pytest.mark.parametrize("workers", ["1", "8"])
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_workers_moves_no_output_byte(name, workers, tmp_path, corpus_file,
                                      predictions_file, loss_file, capsys):
    # Every subcommand accepts --workers and ignores it.
    got = golden_run(name, tmp_path, corpus_file, predictions_file, loss_file, capsys,
                     extra=["--workers", workers])
    assert got == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_output_is_pinned_in_a_fresh_interpreter(name, tmp_path, corpus_file,
                                                         predictions_file, loss_file):
    # The in-process runs share one interpreter, in which a name that one
    # command forgot to bind may have been bound by another.
    argv = golden_argv(name, tmp_path, corpus_file, predictions_file, loss_file)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-m", "repairdx.cli", *argv], cwd=ROOT, env=env,
                         capture_output=True, encoding="utf-8", timeout=60)
    assert golden_result(tmp_path, res.returncode, res.stdout, res.stderr) == EXPECTED[name]
