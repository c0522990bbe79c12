"""Independent correctness oracle for the benchmark's outputs.

Nothing here imports repairdx. Distances come from a plain dynamic
program, behaviour classes from string equality against the generated
sides, the validation sample from the documented sha256 ranking, and
syntax verdicts only where the construction fixes them (see workloads).

An output that disagrees with the oracle is a failure, except where the
disagreement is on the list of known defects of the program below; those
are counted separately as known mis-verdicts, never dropped.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from workloads import sample_ids

# Known defects at the commit that defined the benchmark. Balanced
# parentheses nested more than about 75 deep are valid Java, but the
# builtin parser's depth guard judges them invalid.
KNOWN_DEFECTS = {
    ("nest", "syntax_valid"): "balanced parenthesis nesting past ~75 judged invalid",
}

def trimmed(a, b):
    """`a` and `b` without their common prefix and suffix."""
    lo = 0
    while lo < len(a) and lo < len(b) and a[lo] == b[lo]:
        lo += 1
    ha, hb = len(a), len(b)
    while ha > lo and hb > lo and a[ha - 1] == b[hb - 1]:
        ha -= 1
        hb -= 1
    return a[lo:ha], b[lo:hb]


def levenshtein(a, b) -> int:
    """Unit-cost edit distance by the textbook two-row dynamic program,
    after trimming the common prefix and suffix."""
    a, b = trimmed(a, b)
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def ned(a: str, b: str, dist: int) -> float:
    denom = max(len(a), len(b))
    return dist / denom if denom else 0.0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Verdict:
    """Oracle outcome for one repetition's outputs."""

    attempted: int = 0
    failed: int = 0                     # unexpected disagreements and missing outputs
    known: int = 0                      # disagreements listed in KNOWN_DEFECTS
    problems: list[str] = field(default_factory=list)

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(why)


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


class Oracle:
    """Checks one workload's outputs; distances are memoized per run."""

    def __init__(self, wl):
        self.wl = wl
        self._dist: dict[tuple[str, str], int] = {}

    def distance(self, a: str, b: str) -> int:
        key = (a, b)
        if key not in self._dist:
            self._dist[key] = levenshtein(a, b)
        return self._dist[key]

    def check(self, out: Path) -> Verdict:
        name = self.wl.name
        if name == "abstract_corpus":
            return self._check_abstract(out)
        return self._check_eval(out / ("track" if name == "track_mixed" else "eval"))

    # -- track / eval ---------------------------------------------------

    def expected_items(self):
        """The predictions the program must report on."""
        wl = self.wl
        if wl.name == "eval_degenerate":
            return list(wl.items)
        by_key = {(it.step, it.id): it for it in wl.items}
        out = []
        for step in sorted({it.step for it in wl.items}):
            out += [by_key[(step, i)] for i in sample_ids(list(wl.examples), wl.seed, step)]
        return out

    def _check_record(self, it, rec: dict | None, v: Verdict) -> None:
        if rec is None:
            v.fail(1, f"missing record {it.step}/{it.id}")
            return
        buggy, fixed = self.wl.examples[it.id]
        text = it.text
        behavior = "exact_match" if text == fixed else "copy" if text == buggy else "modification"
        dist = self.distance(text, fixed)
        want = {
            "behavior": behavior,
            "exact": text == fixed,
            "edit_distance": dist,
            "ned": round(ned(text, fixed, dist), 6),
            "near_copy": text != buggy and " ".join(text.split()) == " ".join(buggy.split()),
            "pred_len": len(text),
        }
        bad = [k for k, val in want.items() if rec.get(k) != val]
        if rec.get("syntax_valid") != it.valid:
            if (it.kind, "syntax_valid") in KNOWN_DEFECTS and not bad:
                v.known += 1
                return
            bad.append("syntax_valid")
        if bad:
            v.fail(1, f"{it.step}/{it.id} ({it.kind}): {', '.join(bad)}")

    def _check_eval(self, out: Path) -> Verdict:
        expected = self.expected_items()
        v = Verdict(attempted=len(expected))
        try:
            records = {(r["step"], r["id"]): r for r in _read_jsonl(out / "records.jsonl")}
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        except (OSError, ValueError, KeyError) as exc:
            v.fail(len(expected), f"unreadable output: {exc}")
            return v
        for it in expected:
            self._check_record(it, records.get((it.step, it.id)), v)
        extra = set(records) - {(it.step, it.id) for it in expected}
        if extra:
            v.fail(0, f"{len(extra)} records for predictions outside the sample")
        # The report's per-checkpoint shares must be those of the records.
        for row in report.get("series", []):
            recs = [r for (s, _i), r in records.items() if s == row["step"]]
            n = len(recs)
            want = {
                "n": n,
                "syntax_validity_pct": round(100.0 * sum(r["syntax_valid"] for r in recs) / n, 6),
                "exact_match_pct": round(100.0 * sum(r["behavior"] == "exact_match" for r in recs) / n, 6),
                "copy_pct": round(100.0 * sum(r["behavior"] == "copy" for r in recs) / n, 6),
            } if n else {"n": -1}
            bad = [k for k, val in want.items() if row.get(k) != val]
            if bad:
                v.fail(n or 1, f"report.json step {row.get('step')}: {', '.join(bad)}")
        if len(report.get("series", [])) != len({it.step for it in expected}):
            v.fail(1, "report.json has the wrong number of checkpoints")
        if self.wl.name == "track_mixed":
            self._check_cases(out, expected, v)
        return v

    def _check_cases(self, out: Path, expected, v: Verdict) -> None:
        final = max(it.step for it in expected)
        truth = {it.id: it for it in expected if it.step == final}
        try:
            cases = json.loads((out / "cases.json").read_text(encoding="utf-8"))["cases"]
        except (OSError, ValueError, KeyError) as exc:
            v.fail(1, f"cases.json unreadable: {exc}")
            return
        if len(cases) != 10:
            v.fail(1, f"cases.json has {len(cases)} cases, expected 10")
        for case in cases:
            it = truth.get(case.get("id"))
            if it is None or case.get("prediction") != it.text or case.get("syntax_valid") != it.valid:
                v.fail(1, f"case {case.get('id')} disagrees with the final checkpoint")

    # -- check / abstract / verify --------------------------------------

    def _check_abstract(self, out: Path) -> Verdict:
        wl = self.wl
        v = Verdict(attempted=wl.items_per_rep)
        try:
            verdicts = {r["id"]: r for r in _read_jsonl(out / "check.stdout")}
        except (OSError, ValueError, KeyError) as exc:
            verdicts = {}
            v.fail(0, f"check output unreadable: {exc}")
        for it in wl.check_items:
            got = verdicts.get(it.id)
            if got is None or got.get("valid") != it.valid:
                v.fail(1, f"check {it.id}: expected valid={it.valid}, got {got and got.get('valid')}")
        try:
            rows = {r["id"]: r for r in _read_jsonl(out / "abstract" / "abstracted.jsonl")}
            maps = {r["id"]: r for r in _read_jsonl(out / "abstract" / "mappings.jsonl")}
        except (OSError, ValueError, KeyError) as exc:
            rows, maps = {}, {}
            v.fail(0, f"abstract output unreadable: {exc}")
        for ex_id in wl.abstract_ids:
            for side, original in zip(("buggy", "fixed"), wl.examples[ex_id]):
                row, mp = rows.get(ex_id), maps.get(ex_id)
                if row is None or mp is None:
                    v.fail(1, f"abstract {ex_id}/{side}: missing")
                    continue
                why = abstraction_error(original, row.get(side, ""), mp.get(side, {}))
                if why:
                    v.fail(1, f"abstract {ex_id}/{side}: {why}")
        try:
            conf = {r["id"]: r for r in _read_jsonl(out / "verify" / "conformance.jsonl")}
        except (OSError, ValueError, KeyError) as exc:
            conf = {}
            v.fail(0, f"conformance output unreadable: {exc}")
        for ex_id in wl.abstract_ids:
            entry = conf.get(ex_id, {})
            for side in ("buggy", "fixed"):
                if entry.get(side) != []:
                    v.fail(1, f"verify {ex_id}/{side}: violations {entry.get(side)}")
        return v


# An independent lexer: literals whole, words, numbers, single characters.
_TOKEN = re.compile(r'"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])*\'|[A-Za-z_$][\w$]*|\d[\w.]*|\S')
_WORD = re.compile(r"[A-Za-z_$][\w$]*\Z")
_PLACEHOLDER = re.compile(r"(VAR|METHOD|TYPE)_([1-9][0-9]*)\Z")
_CATEGORY = {"VAR": "variables", "METHOD": "methods", "TYPE": "types"}
JAVA_KEYWORDS = frozenset("""
    abstract assert boolean break byte case catch char class const continue default do
    double else enum extends final finally float for goto if implements import instanceof
    int interface long native new package private protected public return short static
    strictfp super switch synchronized this throw throws transient try void volatile while
    true false null
""".split())


def abstraction_error(original: str, output: str, mapping: dict) -> str | None:
    """Why `output` is not a consistent identifier abstraction of
    `original`, or None. The output must keep every non-identifier token,
    replace each identifier everywhere or nowhere, use one placeholder per
    identifier, number each category 1, 2, ... in order of first use, and
    agree with the mapping file."""
    a, b = _TOKEN.findall(original), _TOKEN.findall(output)
    if len(a) != len(b):
        return f"token count {len(b)} != {len(a)}"
    forward: dict[str, str] = {}
    kept: set[str] = set()
    next_index = {"VAR": 1, "METHOD": 1, "TYPE": 1}
    for x, y in zip(a, b):
        if x == y:
            kept.add(x)
            continue
        m = _PLACEHOLDER.match(y)
        if not (_WORD.match(x) and x not in JAVA_KEYWORDS and m):
            return f"{x!r} became {y!r}"
        if forward.setdefault(x, y) != y:
            return f"{x!r} mapped to both {forward[x]!r} and {y!r}"
        if list(forward.values()).count(y) > 1:
            return f"{y!r} stands for more than one identifier"
        prefix, index = m.group(1), int(m.group(2))
        if index == next_index[prefix]:
            next_index[prefix] += 1
        elif index > next_index[prefix]:
            return f"{y!r} used before {prefix}_{next_index[prefix]}"
    if kept & forward.keys():
        return f"{sorted(kept & forward.keys())[0]!r} replaced only in places"
    listed = {}
    for prefix, key in _CATEGORY.items():
        for orig, ph in mapping.get(key, []):
            if not ph.startswith(prefix + "_"):
                return f"mapping lists {ph!r} under {key}"
            listed[orig] = ph
    if listed != forward:
        return "mapping file disagrees with the rewritten text"
    return None
