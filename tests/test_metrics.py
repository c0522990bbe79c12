"""Metric correctness against an independent oracle and known values.

The edit-distance oracle here is a deliberately naive full-matrix
dynamic program, written separately from the library implementation so
the two can disagree. Known values (kitten/sitting, the population
standard deviation of [0.2, 0.4, 0.6]) were computed by hand.
"""

import math
import random
import statistics
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repairdx.errors import InputError
from repairdx.metrics import (
    BehaviorClass,
    SummaryStats,
    _match_masks,
    aggregate,
    classify_behavior,
    exact_match,
    is_near_copy,
    levenshtein,
    normalize_whitespace,
    normalized_edit_distance,
)


def oracle_levenshtein(a: str, b: str) -> int:
    """Textbook full-matrix edit distance; O(len(a)*len(b)) memory."""
    rows, cols = len(a) + 1, len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[len(a)][len(b)]


def random_text(rng, max_len=30, alphabet="abcXY {};()"):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


# ----------------------------------------------------------------------
# exact_match


def test_exact_match_identity():
    assert exact_match("int x ;", "int x ;")


def test_exact_match_is_character_strict():
    assert not exact_match("int x ;", "int x ; ")
    assert not exact_match("int x ;", "int  x ;")


def test_exact_match_whitespace_mode():
    assert exact_match("int  x ;", " int x ; ", normalize="whitespace")
    assert not exact_match("int y ;", "int x ;", normalize="whitespace")


def test_exact_match_unknown_mode_is_an_input_error():
    with pytest.raises(InputError):
        exact_match("a", "a", normalize="lowercase")


# ----------------------------------------------------------------------
# levenshtein


def test_kitten_sitting_is_three():
    assert levenshtein("kitten", "sitting") == 3


def test_distance_to_self_is_zero():
    for x in ("", "a", "int x = 1 ;", "🙂🙂"):
        assert levenshtein(x, x) == 0


def test_empty_versus_nonempty_is_the_length():
    assert levenshtein("", "abc") == 3
    assert levenshtein("abcd", "") == 4


def test_agrees_with_oracle_on_random_pairs():
    rng = random.Random(42)
    for _ in range(400):
        a, b = random_text(rng), random_text(rng)
        assert levenshtein(a, b) == oracle_levenshtein(a, b), (a, b)


def test_agrees_with_oracle_on_token_sequences():
    rng = random.Random(43)
    vocab = ["int", "x", "=", "1", ";", "{", "}", "f", "("]
    for _ in range(100):
        a = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        b = [rng.choice(vocab) for _ in range(rng.randint(0, 12))]
        assert levenshtein(a, b) == oracle_levenshtein(a, b), (a, b)


def untrimmable(rng, n, alphabet="ab(){} ;x"):
    """``n`` characters whose ends differ from any ``other_untrimmable``
    text, so prefix/suffix trimming leaves all ``n`` for the kernel."""
    return "<" + "".join(rng.choice(alphabet) for _ in range(n - 2)) + ">"


def other_untrimmable(rng, n, alphabet="ab(){} ;x"):
    return "[" + "".join(rng.choice(alphabet) for _ in range(n - 2)) + "]"


@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
def test_agrees_with_oracle_at_word_boundaries(n):
    rng = random.Random(n)
    for m in (2, n // 2, n - 1, n, n + 1):
        a, b = untrimmable(rng, n), other_untrimmable(rng, m)
        assert levenshtein(a, b) == oracle_levenshtein(a, b), (a, b)
        assert levenshtein(b, a) == oracle_levenshtein(a, b), (a, b)


def test_agrees_with_oracle_past_a_thousand():
    rng = random.Random(1000)
    a, b = untrimmable(rng, 1030), other_untrimmable(rng, 1001)
    assert levenshtein(a, b) == oracle_levenshtein(a, b)
    # A near-copy: a handful of edits spread over the whole length.
    c = list(a)
    for i in range(5, len(c), 97):
        c[i] = "#"
    c = "".join(c[:500] + c[503:])
    assert levenshtein(a, c) == oracle_levenshtein(a, c)


def test_agrees_with_oracle_on_very_uneven_lengths():
    rng = random.Random(12)
    runaway = "<" + "return x ; " * 1100 + ">"  # 12k chars of repetition
    short = other_untrimmable(rng, 50)
    assert len(runaway) > 12_000
    assert levenshtein(runaway, short) == oracle_levenshtein(runaway, short)
    assert levenshtein(short, runaway) == oracle_levenshtein(runaway, short)


def test_agrees_with_oracle_on_non_ascii_text():
    rng = random.Random(7)
    alphabet = "aé漢字🙂\u0301\u00a0 ;"
    for _ in range(200):
        a, b = random_text(rng, 90, alphabet), random_text(rng, 90, alphabet)
        assert levenshtein(a, b) == oracle_levenshtein(a, b), (a, b)


def test_repeated_characters():
    assert levenshtein("a" * 200, "a" * 70) == 130
    assert levenshtein("a" * 130, "b" * 65) == 130
    for a, b in [("ab" * 80, "ba" * 80), ("a" * 64 + "b", "b" + "a" * 64),
                 ("aab" * 50, "abb" * 45)]:
        assert levenshtein(a, b) == oracle_levenshtein(a, b), (a, b)


def test_token_lists_with_one_sided_tokens():
    rng = random.Random(44)
    shared = ["int", "x", "=", "1", ";", "{", "}"]
    for _ in range(100):
        a = [rng.choice(shared + ["only_a", "only_a2"]) for _ in range(rng.randint(0, 80))]
        b = [rng.choice(shared + ["only_b"]) for _ in range(rng.randint(0, 80))]
        assert levenshtein(a, b) == oracle_levenshtein(a, b), (a, b)
    # Elements need only be hashable: ints and tuples work as they are.
    assert levenshtein([1, 2, 3, 4], [1, 3, 4, 5]) == 2
    assert levenshtein([("a", 1), ("b", 2)], [("b", 2)]) == 1


# The longer side's match masks are built in byte buffers, 8 elements to
# a byte; these lengths end one short of, on and one past a byte edge.
@pytest.mark.parametrize("n", [511, 512, 513, 1023, 1024, 1025, 4097])
def test_agrees_with_oracle_at_mask_block_boundaries(n):
    rng = random.Random(n)
    for m in (2, 40) if n > 2000 else (2, 40, 300):
        a, b = untrimmable(rng, n), other_untrimmable(rng, m)
        expected = oracle_levenshtein(a, b)
        assert levenshtein(a, b) == levenshtein(b, a) == expected, (n, m)


@pytest.mark.parametrize("n", [513, 1025])
def test_token_lists_agree_with_oracle_across_mask_blocks(n):
    rng = random.Random(n)
    vocab = ["int", "x", "=", "1", ";", "{", "}", "f", "("]
    # One token only early, one only late: "late" is in b, so its mask is
    # zero in every byte but the last; "early" is not, so it gets no mask.
    a = (["early"] + [rng.choice(vocab) for _ in range(n - 2)] + ["late"])
    b = [rng.choice(vocab + ["late"]) for _ in range(60)]
    assert levenshtein(a, b) == levenshtein(b, a) == oracle_levenshtein(a, b)
    # Every element distinct, so every mask is one bit in one byte.
    a, b = list(range(n)), list(range(0, n, 7))
    assert levenshtein(a, b) == oracle_levenshtein(a, b)


def test_match_masks_cover_every_wanted_symbol_and_byte_edge():
    a = "abcdefgxyz"  # x, y and z at positions 7, 8 and 9
    assert _match_masks(a, "xyzq") == {"x": 1 << 7, "y": 1 << 8, "z": 1 << 9, "q": 0}
    assert _match_masks("abab", "a") == {"a": 0b0101}
    # Token lists work too, and only the wanted symbols get a mask.
    tokens = ["int", "x", "=", "x", ";"]
    assert _match_masks(tokens, ["x", ";", "y"]) == {"x": 0b01010, ";": 1 << 4, "y": 0}


def test_400k_side_against_300_chars_is_fast():
    # Too large for the oracle's matrix, so the answer is known instead:
    # b is 150 characters of a followed by 150 that a never holds. At most
    # 150 characters of a can match, so at least len(a) - 150 edits are
    # needed, and matching those 150, substituting the z's and deleting
    # the rest takes exactly that many.
    rng = random.Random(400_000)
    a = untrimmable(rng, 400_000)
    b = a[1000:1150] + "z" * 150
    started = time.perf_counter()
    assert levenshtein(a, b) == len(a) - 150
    assert levenshtein(b, a) == len(a) - 150
    elapsed = time.perf_counter() - started
    # A line tracer, such as tests/line_reach.py, calls back on every line
    # of the per-character mask loop, 400k times here.
    if sys.gettrace() is None:
        assert elapsed < 2.0, f"took {elapsed:.2f}s"


def test_twenty_thousand_char_pair_is_fast():
    rng = random.Random(20_000)
    a, b = untrimmable(rng, 20_000), other_untrimmable(rng, 20_000)
    started = time.perf_counter()
    d = levenshtein(a, b)
    elapsed = time.perf_counter() - started
    assert 0 < d <= 20_000
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=40), st.text(max_size=40))
def test_symmetry(a, b):
    assert levenshtein(a, b) == levenshtein(b, a)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=40), st.text(max_size=40))
def test_identity_of_indiscernibles(a, b):
    assert (levenshtein(a, b) == 0) == (a == b)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=25), st.text(max_size=25), st.text(max_size=25))
def test_triangle_inequality(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=40), st.text(max_size=40))
def test_distance_bounded_by_longer_length(a, b):
    assert levenshtein(a, b) <= max(len(a), len(b))


# ----------------------------------------------------------------------
# normalized_edit_distance


def test_ned_known_value():
    assert normalized_edit_distance("kitten", "sitting") == pytest.approx(3 / 7)


def test_ned_identical_texts():
    assert normalized_edit_distance("int x ;", "int x ;") == 0.0


def test_ned_empty_versus_nonempty_is_one():
    assert normalized_edit_distance("", "abc") == 1.0
    assert normalized_edit_distance("abc", "") == 1.0


def test_ned_both_empty_is_zero():
    assert normalized_edit_distance("", "") == 0.0


def test_ned_stays_in_unit_interval_and_zero_iff_equal():
    rng = random.Random(99)
    for _ in range(500):
        a, b = random_text(rng), random_text(rng)
        ned = normalized_edit_distance(a, b)
        assert 0.0 <= ned <= 1.0
        if a or b:
            assert (ned == 0.0) == (a == b)


def test_ned_token_mode():
    # one substitution over four tokens
    assert normalized_edit_distance("int x = 1", "int y = 1", tokens=True) == pytest.approx(1 / 4)
    # char mode sees a single character change over nine characters
    assert normalized_edit_distance("int x = 1", "int y = 1") == pytest.approx(1 / 9)


def test_exact_match_implies_zero_ned():
    rng = random.Random(5)
    for _ in range(100):
        a = random_text(rng)
        assert exact_match(a, a)
        assert normalized_edit_distance(a, a) == 0.0


# ----------------------------------------------------------------------
# classify_behavior


def test_copy_when_prediction_equals_buggy():
    assert classify_behavior("b", "b", "f") is BehaviorClass.COPY


def test_exact_match_when_prediction_equals_fixed():
    assert classify_behavior("b", "f", "f") is BehaviorClass.EXACT_MATCH


def test_modification_when_prediction_differs_from_both():
    assert classify_behavior("b", "p", "f") is BehaviorClass.MODIFICATION


def test_exact_match_outranks_copy_on_identity_pairs():
    assert classify_behavior("same", "same", "same") is BehaviorClass.EXACT_MATCH


def test_a_behavior_class_prints_as_its_value():
    assert [str(cls) for cls in BehaviorClass] == ["exact_match", "copy", "modification"]


def test_classification_is_total_and_single_valued():
    rng = random.Random(3)
    texts = ["", "a", "b", "ab", "ba"]
    for _ in range(200):
        b, p, f = (rng.choice(texts) for _ in range(3))
        cls = classify_behavior(b, p, f)
        assert cls in BehaviorClass


def test_engineered_distribution_80_20():
    triples = [("bug%d" % i, "bug%d" % i, "fix%d" % i) for i in range(8)]
    triples += [("bugA", "attempt1", "fixA"), ("bugB", "attempt2", "fixB")]
    classes = [classify_behavior(*t) for t in triples]
    assert classes.count(BehaviorClass.COPY) == 8
    assert classes.count(BehaviorClass.MODIFICATION) == 2
    assert classes.count(BehaviorClass.EXACT_MATCH) == 0


# ----------------------------------------------------------------------
# near-copy


def test_near_copy_requires_whitespace_difference():
    assert is_near_copy("int  x ;", "int x ;")
    assert is_near_copy("int x ;\n", "int x ;")


def test_verbatim_copy_is_not_a_near_copy():
    assert not is_near_copy("int x ;", "int x ;")


def test_real_change_is_not_a_near_copy():
    assert not is_near_copy("int y ;", "int x ;")


def test_normalize_whitespace_collapses_runs():
    assert normalize_whitespace("  a \t b\n\nc ") == "a b c"


# ----------------------------------------------------------------------
# aggregate


def test_aggregate_all_zero():
    stats = aggregate([0, 0, 0])
    assert stats.mean == 0 and stats.median == 0 and stats.std == 0


def test_aggregate_known_population_std():
    stats = aggregate([0.2, 0.4, 0.6])
    assert stats.mean == pytest.approx(0.4)
    assert stats.median == pytest.approx(0.4)
    assert stats.std == pytest.approx(math.sqrt(2 / 75), abs=1e-9)
    assert stats.n == 3


def test_aggregate_even_n_median_is_mean_of_central_pair():
    stats = aggregate([1.0, 10.0, 2.0, 20.0])
    assert stats.median == pytest.approx((2.0 + 10.0) / 2)


def test_aggregate_min_median_max_ordering():
    rng = random.Random(11)
    for _ in range(100):
        values = [rng.random() for _ in range(rng.randint(1, 17))]
        stats = aggregate(values)
        assert stats.min <= stats.median <= stats.max
        assert stats.std >= 0
        assert stats.n == len(values)


def test_aggregate_matches_statistics_module():
    values = [0.12, 0.5, 0.33, 0.91, 0.2]
    stats = aggregate(values)
    assert stats.mean == pytest.approx(statistics.fmean(values))
    assert stats.median == pytest.approx(statistics.median(values))
    assert stats.std == pytest.approx(statistics.pstdev(values))


def test_aggregate_empty_is_an_input_error():
    with pytest.raises(InputError):
        aggregate([])


def test_summary_stats_is_immutable():
    stats = aggregate([1.0])
    with pytest.raises(AttributeError):
        stats.mean = 2.0
    assert isinstance(stats, SummaryStats)
