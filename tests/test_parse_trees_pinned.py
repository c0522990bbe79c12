"""The parse tree and verdict of every fixture row, pinned by one hash.

The CLI goldens pin output bytes, but a front-end change can move a tree
without moving any output byte. This hash covers ``Node.sexp()`` of each
wrapped fixture row and its ``check_syntax`` verdict, so it moves only
when a tree or a verdict moves; a change that moves one must say which
rows moved and why.
"""

import hashlib

from repairdx.javaparse import parse_java
from repairdx.syntax import check_syntax, wrap_method

from conftest import DATA, load_jsonl

FIXTURES = [
    "abstraction_methods.jsonl",
    "broken_methods.jsonl",
    "flagged_constructs.jsonl",
    "valid_methods.jsonl",
]
ROWS = 127
EXPECTED_SHA256 = "be44745dc5dbc85b5420d073c513d0af1193788e779255e54e9ba1c4c2fd475b"


def test_every_fixture_tree_and_verdict_is_pinned():
    digest = hashlib.sha256()
    rows = 0
    for name in FIXTURES:
        for row in load_jsonl(DATA / name):
            code = row["code"]
            verdict = check_syntax(code)
            line = "\t".join([
                name, row["id"], parse_java(wrap_method(code)).sexp(),
                str(verdict.valid), str(verdict.error_count), repr(verdict.error_spans),
            ])
            digest.update(line.encode("utf-8") + b"\n")
            rows += 1
    assert rows == ROWS
    assert digest.hexdigest() == EXPECTED_SHA256
