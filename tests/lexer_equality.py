"""Randomized equality of the shipped lexer and ``reference_lexer``.

Builds ``--count`` random inputs from pieces that meet at literal and
comment boundaries (operators, both quotes, runs of `"`, backslashes,
`\\n`, `\\r`, comment openers, letters, digits and spaces), lexes each with
both lexers, and exits 1 on the first input whose `(kind, text, start,
end)` streams differ. Stdlib only; run from the repository root:

    PYTHONPATH=src python3 tests/lexer_equality.py --count 400000 --seed 1
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from reference_lexer import _OPERATORS  # noqa: E402
from reference_lexer import tokenize as reference_tokenize  # noqa: E402

from repairdx.javaparse.lexer import tokenize  # noqa: E402

PIECES = _OPERATORS + [
    '"', "'", '""', '"""', '""""', '"""""', "\\", "\\\\", "\\\n", "\\\r",
    "\\'", '\\"', "\n", "\r", "\r\n", "//", "/*", "*/", " ", "\t",
    "a", "x", "é", "0", "1", "int", "$", "_", "  ", "return", "L",
]


def _stream(src: str) -> list[tuple]:
    return [(t.kind, t.text, t.start, t.end) for t in tokenize(src)]


def _reference_stream(src: str) -> list[tuple]:
    return [(t.kind, t.text, t.start, t.end) for t in reference_tokenize(src)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=400_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--max-pieces", type=int, default=16)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    chars = 0
    for _ in range(args.count):
        src = "".join(rng.choices(PIECES, k=rng.randint(0, args.max_pieces)))
        chars += len(src)
        if _stream(src) != _reference_stream(src):
            print(f"differs on {src!r}:\n  shipped   {_stream(src)}\n"
                  f"  reference {_reference_stream(src)}")
            return 1
    print(f"{args.count} inputs ({chars} characters, seed {args.seed}): "
          f"tokens equal the reference's")
    return 0


if __name__ == "__main__":
    sys.exit(main())
