"""Randomized equality of the parser's error record and ``Node.error_nodes``.

Builds ``--count`` random token soups, some of them inside a nest of `(`,
`[` or `{` up to 300 deep, balanced or left open so that the depth guard
cuts some of them. Parses each raw and wrapped in the checker's synthetic
class, and exits 1 on the first parse whose recorded error nodes
(``parse_java(src, errors)``) are not the nodes of ``tree.error_nodes()``,
each once, in any order. Stdlib only; run from the repository root:

    PYTHONPATH=src python3 tests/parse_record_equality.py --count 200000 --seed 1
"""

from __future__ import annotations

import argparse
import random
import sys

from repairdx.javaparse import parse_java
from repairdx.syntax import wrap_method

ATOMS = [
    "{", "}", "(", ")", "[", "]", ";", ",", ".", "::", "->", "<", ">", ">>", ">>>",
    "=", "+=", "+", "++", "?", ":", "@", "#", "int", "void", "class", "enum",
    "interface", "new", "return", "if", "else", "for", "switch", "case",
    "default", "try", "catch", "finally", "final", "abstract", "static",
    "this", "extends", "yield", "a", "b", "Foo", "0", '"s"', "'c'",
    '"open', "/* open",
]
MAX_ATOMS = 40


def soup(rng: random.Random) -> str:
    """Random atoms, and one time in eight a nest around them."""
    text = " ".join(rng.choices(ATOMS, k=rng.randint(0, MAX_ATOMS)))
    if rng.randrange(8):
        return text
    opener = rng.choice("([{")
    depth = rng.randint(1, 300)
    closers = depth if rng.randrange(2) else rng.randint(0, depth - 1)
    closer = {"(": ")", "[": "]", "{": "}"}[opener]
    return "return " + f"{opener} " * depth + text + f" {closer}" * closers + " ;"


def differs(src: str) -> str | None:
    """What is wrong with the record of ``src``'s parse, or None."""
    errors = []
    tree = parse_java(src, errors)
    expected = tree.error_nodes()
    if sorted(map(id, errors)) == sorted(map(id, expected)):
        return None
    return (f"recorded {[(n.kind, n.start, n.end) for n in errors]}\n"
            f"  error_nodes {[(n.kind, n.start, n.end) for n in expected]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    for _ in range(args.count):
        text = soup(rng)
        for src in (text, wrap_method(text)):
            problem = differs(src)
            if problem is not None:
                print(f"differs on {src!r}:\n  {problem}")
                return 1
    print(f"{args.count} soups, parsed raw and wrapped (seed {args.seed}): "
          f"recorded error nodes are those of error_nodes()")
    return 0


if __name__ == "__main__":
    sys.exit(main())
