"""Repair metrics: exact match, edit distance, behavior classification.

All comparisons are raw-text by default; whitespace-insensitive variants
are explicit opt-ins. Behavior classes are mutually exclusive with a
fixed precedence (exact match wins over copy), so every prediction lands
in exactly one class and distributions always sum to the sample size.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence

from .errors import InputError


class BehaviorClass(Enum):
    """What a prediction did relative to its buggy/fixed pair."""

    EXACT_MATCH = "exact_match"
    COPY = "copy"
    MODIFICATION = "modification"

    def __str__(self) -> str:  # CSV-friendly
        return self.value


def normalize_whitespace(text: str) -> str:
    """Collapse all whitespace runs to single spaces and strip the ends."""
    return " ".join(text.split())


def exact_match(prediction: str, target: str, normalize: str = "none") -> bool:
    """Byte equality, or whitespace-insensitive equality when requested."""
    if normalize == "none":
        return prediction == target
    if normalize == "whitespace":
        return normalize_whitespace(prediction) == normalize_whitespace(target)
    raise InputError(f"unknown normalize mode {normalize!r}; use 'none' or 'whitespace'")


def _match_masks(a: Sequence, wanted: Sequence) -> dict:
    """``{x: mask}`` for each ``x`` in ``wanted``, with bit i of ``mask``
    set where ``a[i] == x``; 0 for an ``x`` absent from ``a``.

    OR-ing each bit into an int as long as ``a`` would cost O(len(a) / word
    size) per element of ``a``. Instead one pass over ``a`` sets the bits
    in a byte buffer per wanted element, and each buffer becomes one int.
    """
    width = (len(a) + 7) >> 3
    bufs = {x: bytearray(width) for x in set(wanted)}
    get = bufs.get
    for i, x in enumerate(a):
        buf = get(x)
        if buf is not None:
            buf[i >> 3] |= 1 << (i & 7)
    return {x: int.from_bytes(buf, "little") for x, buf in bufs.items()}


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Edit distance (insert/delete/substitute, unit costs).

    Works on strings or token lists; list elements must be hashable.
    Common prefixes and suffixes are trimmed, then the bit-parallel
    algorithm of Myers (1999), in Hyyrö's (2001) formulation for global
    edit distance, runs with Python ints as bit vectors: the longer side
    is the bit vector and the loop runs once per element of the shorter
    side, at O(len(longer) / word size) per element. The match masks are
    built by ``_match_masks`` in one pass over the longer side, plus one
    full-width int per distinct element of the shorter side, so the cost
    is O(len(longer) + len(shorter) * len(longer) / word size).
    """
    if a == b:
        return 0
    # Trim common prefix.
    lo = 0
    hi_a, hi_b = len(a), len(b)
    while lo < hi_a and lo < hi_b and a[lo] == b[lo]:
        lo += 1
    # Trim common suffix (never past the prefix).
    while hi_a > lo and hi_b > lo and a[hi_a - 1] == b[hi_b - 1]:
        hi_a -= 1
        hi_b -= 1
    a = a[lo:hi_a]
    b = b[lo:hi_b]
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):  # bit vector over the longer, loop over the shorter
        a, b = b, a
    peq = _match_masks(a, b)  # peq[y]: bit i set where a[i] == y
    bit = 1 << len(a)
    mask = bit - 1
    last = bit >> 1
    # Vertical deltas of the current DP column: +1 where vp, -1 where vn.
    # Column 0 is 0..len(a), all +1; dist tracks the bottom cell.
    vp, vn, dist = mask, 0, len(a)
    for y in b:
        eq = peq[y]
        d0 = ((((eq & vp) + vp) ^ vp) | eq | vn) & mask
        hp = vn | (mask ^ (d0 | vp))
        hn = d0 & vp
        if hp & last:
            dist += 1
        elif hn & last:
            dist -= 1
        hp = (hp << 1) | 1  # row 0 is 0..len(b): its horizontal delta is +1
        vp = ((hn << 1) | ~(d0 | hp)) & mask
        vn = d0 & hp
    return dist


def normalized_edit_distance(prediction: str, target: str, tokens: bool = False) -> float:
    """Levenshtein distance scaled to [0, 1] by the longer side.

    Character-level by default; ``tokens=True`` compares whitespace-split
    token sequences instead. Two empty inputs are at distance 0.
    """
    if tokens:
        p: Sequence = prediction.split()
        t: Sequence = target.split()
    else:
        p, t = prediction, target
    denom = max(len(p), len(t))
    if denom == 0:
        return 0.0
    return levenshtein(p, t) / denom


def classify_behavior(buggy: str, prediction: str, fixed: str) -> BehaviorClass:
    """Assign exactly one class; exact match outranks copy.

    The precedence matters for noisy pairs where buggy == fixed: a
    prediction equal to both is an exact match, not a copy.
    """
    if prediction == fixed:
        return BehaviorClass.EXACT_MATCH
    if prediction == buggy:
        return BehaviorClass.COPY
    return BehaviorClass.MODIFICATION


def is_near_copy(prediction: str, buggy: str) -> bool:
    """Equal to the input up to whitespace, but not byte-equal.

    Tracked separately from the copy class; never merged into it.
    """
    if prediction == buggy:
        return False
    return normalize_whitespace(prediction) == normalize_whitespace(buggy)


class SummaryStats(NamedTuple):
    """Five-number-ish summary of a metric sample."""

    mean: float
    median: float
    std: float
    min: float
    max: float
    n: int


def aggregate(values) -> SummaryStats:
    """Mean, median, population standard deviation, extrema, and count."""
    import statistics  # not on the path of check or abstract

    values = [float(v) for v in values]
    if not values:
        raise InputError("cannot aggregate an empty sequence of values")
    return SummaryStats(
        mean=statistics.fmean(values),
        median=float(statistics.median(values)),
        std=statistics.pstdev(values),
        min=min(values),
        max=max(values),
        n=len(values),
    )


class EvalRecord(NamedTuple):
    """Everything measured about one prediction at one checkpoint."""

    example_id: str
    step: int
    behavior: BehaviorClass
    exact: bool
    edit_distance: int
    ned: float
    syntax_valid: bool
    near_copy: bool
    prediction: str = ""  # the text measured
    limit_exceeded: bool = False  # not valid: nested past the parser's depth guard

    pred_len = property(lambda self: len(self.prediction))  # characters in the prediction
