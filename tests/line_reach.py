"""List the lines of ``src/repairdx`` that no test runs.

Runs ``pytest tests`` in this process under a ``sys.settrace`` line
tracer that records only frames of files under ``src/repairdx``, then
compares the lines it saw with each code object's line table
(``co_lines()``) and prints every line no test ran. It exits 1 when such
a line is not in ``ALLOWED``, or with pytest's status when a test fails;
else 0. It needs only the standard library and pytest:

    PYTHONPATH=src python3 tests/line_reach.py [extra pytest arguments]

A trace function that raises (say, at the recursion limit) is removed by
the interpreter, so the tracer is installed again as each test's call
phase starts. Threads a test starts are traced too; child processes are
not. Line tables differ between Python versions, and ``ALLOWED`` is
written for Python 3.11.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repairdx"

_FALLBACK_IMPORT = "the hashlib fallback, for an interpreter without _sha2 or _sha256"
_FRESH_IMPORT = ("cli.__getattr__ binds a name only on a fresh import of cli, before a "
                 "command has bound it; test_benchmark_setup checks it in a subprocess")
_MAIN = "the benchmark runs the CLI as `python -m repairdx.cli`, in a child process"
_TYPE_CHECKING = "imports for type checkers: typing.TYPE_CHECKING is False at run time"

# (file under src/repairdx, stripped line text) -> why no test runs it.
ALLOWED = {
    ("corpus.py", "except ImportError:  # an interpreter built without them"): _FALLBACK_IMPORT,
    ("corpus.py", "from hashlib import sha256"): _FALLBACK_IMPORT,
    ("cli.py", "_bind(name)"): _FRESH_IMPORT,
    ("cli.py", "return globals()[name]"): _FRESH_IMPORT,
    ("cli.py", "main_entry()"): _MAIN,
    ("report.py", "from .corpus import CorpusStats, RepairExample"): _TYPE_CHECKING,
    ("report.py", "from .metrics import BehaviorClass, EvalRecord, SummaryStats"): _TYPE_CHECKING,
    ("report.py", "from .syntax import SyntaxVerdict"): _TYPE_CHECKING,
    ("report.py", "from .tracking import CheckpointRecord, CheckpointSeries"): _TYPE_CHECKING,
}


def _code_lines(path: Path) -> set[int]:
    """Every line that a code object compiled from ``path`` has in its
    line table, nested functions, classes and comprehensions included."""
    lines = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        # A line of None or 0 marks instructions that belong to no source line.
        lines.update(line for _start, _end, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def main(argv: list[str]) -> int:
    # co_filename -> the lines run in it, for the files under SRC; None
    # for any other file.
    seen: dict[str, set[int] | None] = {}

    def trace_line(frame, event, _arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_line

    def trace_call(frame, _event, _arg):
        code = frame.f_code
        if code.co_filename not in seen:
            inside = Path(code.co_filename).resolve().is_relative_to(SRC)
            seen[code.co_filename] = set() if inside else None
        lines = seen[code.co_filename]
        if lines is None:
            return None
        lines.add(code.co_firstlineno)
        return trace_line

    class Reinstall:
        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_call(self, item):
            sys.settrace(trace_call)

    threading.settrace(trace_call)
    sys.settrace(trace_call)
    try:
        status = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider", *argv],
                             plugins=[Reinstall()])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    ran_in: dict[Path, set[int]] = {}
    for filename, lines in seen.items():
        if lines is not None:
            ran_in.setdefault(Path(filename).resolve(), set()).update(lines)
    missed = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        ran = ran_in.get(path, set())
        for line in sorted(_code_lines(path) - ran):
            key = (path.relative_to(SRC).as_posix(), text[line - 1].strip())
            reason = ALLOWED.get(key)
            print(f"{path.relative_to(ROOT)}:{line}: {key[1]}"
                  + (f"  [allowed: {reason}]" if reason else ""))
            if reason is None:
                missed.append(key)
    print(f"{len(missed)} line(s) that no test runs and ALLOWED does not name")
    if status != 0:
        return int(status)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
