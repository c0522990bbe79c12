"""Seeded workload generator for the repairdx benchmark.

Every text comes from the frozen fixtures in ``tests/data``: fixture
methods are joined, edited with category-preserving token swaps, cut, or
wrapped in parentheses. The same seed gives byte-identical input files.

Alongside the files, each workload carries the truth the construction
fixes (behaviour class, expected syntax verdict). The
truth stays in the benchmark process; the program sees only the files.

Sizes are fixed by construction (deck-dealt fixtures, exact class
counts, fixed degenerate lengths and depths), so a different seed changes
the texts but hardly the amount of work. That keeps run-to-run spread
across seeds small.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Swaps that replace a token by one of the same syntactic category, so
# grammaticality is preserved in both directions. `<`/`>` is left out: it
# can turn a generic type argument list into a comparison.
SWAPS = {"+": "-", "-": "+", "0": "1", "1": "0", "==": "!=", "!=": "=="}

TRACK_EXAMPLES = 120          # corpus size ...
TRACK_SAMPLE = 100            # ... and the CLI's default --sample
TRACK_STEPS = (500, 1000, 1500, 2000, 2500, 3000)
TRACK_SHARES = (("copy", 0.60), ("edit", 0.35), ("fix", 0.05))
TRACK_CASES = 10

DEGEN_EDITS = 60
DEGEN_RUNAWAY = 2             # runaway outputs per run
RUNAWAY_EXTRA = 12_000        # characters of repetition after the copied prefix
RUNAWAY_TAIL = 60             # characters of the fixed side left after the cut
NEST_DEPTHS = (90, 250, 500, 1000, 2000)
EDIT_SPAN = 80                # characters between the bug and an edit ...
EDIT_SLACK = 10               # ... give or take this many
DEGEN_TRUNCATED = 10

CHECK_COPIES = 16             # each of the 100 check fixtures appears this often
ABSTRACT_EXAMPLES = 500

SIDE_TARGET = 250             # a joined side grows until it reaches this length
SIDE_MIN, SIDE_MAX = 2, 5     # ... using this many fixture methods


@dataclass
class Item:
    """One unit of work the oracle checks: a prediction or a fragment."""

    id: str
    kind: str                 # copy, edit, fix, runaway, nest, nest_open, truncated, fixture
    text: str
    valid: bool                # the syntax verdict the construction fixes
    step: int | None = None    # checkpoint, for predictions


@dataclass
class Workload:
    name: str
    seed: int
    workers: int                                # worker count of the untraced run
    files: dict[str, str] = field(default_factory=dict)        # input file name -> content
    commands: list[list[str]] = field(default_factory=list)    # CLI argv; {in}/{out} are dirs
    examples: dict[str, tuple[str, str]] = field(default_factory=dict)  # id -> (buggy, fixed)
    items: list[Item] = field(default_factory=list)
    check_items: list[Item] = field(default_factory=list)
    abstract_ids: list[str] = field(default_factory=list)

    @property
    def items_per_rep(self) -> int:
        if self.name == "track_mixed":
            return len(TRACK_STEPS) * min(TRACK_SAMPLE, len(self.examples))
        if self.name == "eval_degenerate":
            return len(self.items)
        # fragments checked, abstracted, then verified
        return len(self.check_items) + 4 * len(self.abstract_ids)

    def write(self, in_dir: Path) -> None:
        in_dir.mkdir(parents=True, exist_ok=True)
        for name, text in sorted(self.files.items()):
            (in_dir / name).write_text(text, encoding="utf-8")


def load_fixtures(root: Path) -> dict[str, list[str]]:
    data = root / "tests" / "data"
    out = {}
    for name in ("valid_methods", "broken_methods", "abstraction_methods"):
        lines = (data / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()
        out[name] = [json.loads(line)["code"] for line in lines if line.strip()]
    return out


def _jsonl(rows) -> str:
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows)


class _Deck:
    """Deals fixtures round-robin in seeded shuffled order, so every
    fixture is used about equally often whatever the seed."""

    def __init__(self, rng: random.Random, cards: list[str]):
        self.rng = rng
        self.cards = list(cards)
        self.hand: list[str] = []

    def draw(self) -> str:
        if not self.hand:
            self.hand = list(self.cards)
            self.rng.shuffle(self.hand)
        return self.hand.pop()


def join_side(deck: _Deck) -> str:
    """2-5 distinct fixture methods joined, grown until SIDE_TARGET chars."""
    parts: list[str] = []
    while len(parts) < SIDE_MIN or (
        len(" ".join(parts)) < SIDE_TARGET and len(parts) < SIDE_MAX
    ):
        card = deck.draw()
        if card not in parts:
            parts.append(card)
    return " ".join(parts)


def swap_positions(text: str) -> list[int]:
    return [i for i, tok in enumerate(text.split(" ")) if tok in SWAPS]


def apply_swap(text: str, pos: int) -> str:
    toks = text.split(" ")
    toks[pos] = SWAPS[toks[pos]]
    return " ".join(toks)


def _partners(text: str, pos: int) -> list[int]:
    """Swappable positions EDIT_SPAN +- EDIT_SLACK characters from `pos`."""
    toks = text.split(" ")
    starts = list(itertools.accumulate((len(t) + 1 for t in toks), initial=0))
    return [q for q in swap_positions(text)
            if abs(abs(starts[q] - starts[pos]) - EDIT_SPAN) <= EDIT_SLACK]


def _pair(rng: random.Random, deck: _Deck) -> tuple[str, str, int]:
    """(buggy, fixed, bug position): the bug is one swap in the fixed side,
    at a token that has an edit partner (see _edit)."""
    while True:
        fixed = join_side(deck)
        positions = [p for p in swap_positions(fixed) if _partners(fixed, p)]
        if positions:
            pos = rng.choice(positions)
            return apply_swap(fixed, pos), fixed, pos


def _edit(rng: random.Random, buggy: str, bug_pos: int) -> str:
    """A one-token edit of the buggy side about EDIT_SPAN characters from
    the bug: still valid, neither a copy nor the fix. The distance work of
    an edit grows with the square of that span, so holding it steady keeps
    the work per seed nearly the same."""
    return apply_swap(buggy, rng.choice(_partners(buggy, bug_pos)))


def sample_ids(ids, seed: int, step: int, size: int = TRACK_SAMPLE) -> list[str]:
    """The CLI's documented re-drawn sample: the `size` ids with the lowest
    sha256 of `seed:step:id`, in id order (all ids when there are fewer)."""
    if len(ids) <= size:
        return sorted(ids)
    key = lambda i: hashlib.sha256(f"{seed}:{step}:{i}".encode()).hexdigest()
    return sorted(sorted(ids, key=key)[:size])


def _class_plan(rng: random.Random, ids: list[str], sampled: list[str]) -> dict[str, str]:
    """Class per example for one checkpoint, with exact TRACK_SHARES both
    among the sampled examples and among the rest."""
    plan = {}
    chosen = set(sampled)
    for group in (sampled, [i for i in ids if i not in chosen]):
        kinds: list[str] = []
        for kind, share in TRACK_SHARES[1:]:
            kinds += [kind] * round(share * len(group))
        kinds += [TRACK_SHARES[0][0]] * (len(group) - len(kinds))
        rng.shuffle(kinds)
        plan.update(zip(group, kinds))
    return plan


def track_mixed(root: Path, seed: int, n_examples: int = TRACK_EXAMPLES) -> Workload:
    rng = random.Random(f"track_mixed:{seed}")
    deck = _Deck(rng, load_fixtures(root)["valid_methods"])
    wl = Workload("track_mixed", seed, workers=2)
    bug_pos = {}
    for i in range(n_examples):
        buggy, fixed, pos = _pair(rng, deck)
        ex_id = f"ex-{i:04d}"
        wl.examples[ex_id] = (buggy, fixed)
        bug_pos[ex_id] = pos
    preds, losses = [], []
    for step in TRACK_STEPS:
        plan = _class_plan(rng, list(wl.examples), sample_ids(wl.examples, seed, step))
        for ex_id, kind in sorted(plan.items()):
            buggy, fixed = wl.examples[ex_id]
            text = {"copy": buggy, "fix": fixed}.get(kind) or _edit(rng, buggy, bug_pos[ex_id])
            wl.items.append(Item(ex_id, kind, text, step=step, valid=True))
            preds.append({"id": ex_id, "step": step, "prediction": text})
        losses.append({"step": step, "train_loss": round(2.0 / (1 + step / 1000) + rng.random() / 10, 4),
                       "eval_loss": round(2.2 / (1 + step / 1000) + rng.random() / 10, 4)})
    wl.files = {
        "corpus.jsonl": _jsonl({"id": k, "buggy": b, "fixed": f} for k, (b, f) in wl.examples.items()),
        "preds.jsonl": _jsonl(preds),
        "loss.jsonl": _jsonl(losses),
    }
    wl.commands = [[
        "track", "--corpus", "{in}/corpus.jsonl", "--preds", "{in}/preds.jsonl",
        "--out", "{out}/track", "--loss-log", "{in}/loss.jsonl",
        "--cases", str(TRACK_CASES), "--seed", str(seed),
    ]]
    return wl


def _statement_chunks(text: str) -> list[str]:
    """Brace- and literal-free statements `... ;` of a fixture text: the
    loop body of a runaway output."""
    chunks, cur = [], []
    for tok in text.split(" "):
        cur.append(tok)
        if tok in ("{", "}") or tok[:1] in ('"', "'"):
            cur = []
        elif tok == ";":
            if len(cur) >= 3:
                chunks.append(" ".join(cur))
            cur = []
    return chunks


def _runaway(rng: random.Random, fixed: str, chunks: list[str]) -> str | None:
    """Copy the fixed side but its last RUNAWAY_TAIL characters, then repeat
    a statement for RUNAWAY_EXTRA characters. The cut must fall inside a
    method body (else None); no closing brace follows, so the output is
    invalid by construction."""
    prefix = fixed[: len(fixed) - RUNAWAY_TAIL]
    if brace_depth(prefix.split(" ")) < 1:
        return None
    chunk = rng.choice(chunks)
    loop = (" " + chunk) * (RUNAWAY_EXTRA // (len(chunk) + 1) + 1)
    return prefix + loop[:RUNAWAY_EXTRA]


def brace_depth(toks: list[str]) -> int:
    """Unclosed `{` at the end of a space-separated token list."""
    return toks.count("{") - toks.count("}")


def _truncate(rng: random.Random, fixed: str) -> str | None:
    """Drop the last 1-6 tokens; the cut must leave a `{` open (else None),
    so the output is invalid by construction."""
    toks = fixed.split(" ")[: -rng.randint(1, 6)]
    return " ".join(toks) if brace_depth(toks) >= 1 else None


def _nest(text: str, depth: int, balanced: bool) -> str | None:
    """Wrap the expression of the first `return EXPR ;` in `depth` pairs of
    parentheses; drop one `)` when unbalanced."""
    toks = text.split(" ")
    for i, tok in enumerate(toks):
        if tok != "return":
            continue
        j = i + 1
        level = 0
        while j < len(toks) and not (toks[j] == ";" and level == 0):
            if toks[j] in ("(", "[", "{"):
                level += 1
            elif toks[j] in (")", "]", "}"):
                level -= 1
            j += 1
        if j != i + 2 or toks[i + 1][:1] in "\"'":
            continue  # wrap only a one-token expression, so the DP work is fixed
        close = depth if balanced else depth - 1
        return " ".join(toks[: i + 1] + ["("] * depth + toks[i + 1:j] + [")"] * close + toks[j:])
    return None


def eval_degenerate(root: Path, seed: int, n_edits: int = DEGEN_EDITS,
                    depths: tuple[int, ...] = NEST_DEPTHS,
                    n_runaway: int = DEGEN_RUNAWAY) -> Workload:
    rng = random.Random(f"eval_degenerate:{seed}")
    valid = load_fixtures(root)["valid_methods"]
    deck = _Deck(rng, valid)
    chunks = sorted({c for text in valid for c in _statement_chunks(text)})
    wl = Workload("eval_degenerate", seed, workers=1)
    step = 4000
    plan = (["runaway"] * n_runaway
            + [f"nest:{d}" for d in depths] + [f"nest_open:{d}" for d in depths]
            + ["truncated"] * DEGEN_TRUNCATED + ["edit"] * n_edits)
    seen: set[str] = set()
    for i, entry in enumerate(plan):
        kind, _, depth = entry.partition(":")
        while True:
            buggy, fixed, pos = _pair(rng, deck)
            if kind == "runaway":
                text = _runaway(rng, fixed, chunks)
            elif kind.startswith("nest"):
                text = _nest(fixed, int(depth), balanced=kind == "nest")
            elif kind == "truncated":
                text = _truncate(rng, fixed)
            else:
                text = _edit(rng, buggy, pos)
            if text is not None and text not in seen and text not in (buggy, fixed):
                break
        seen.add(text)
        ex_id = f"dg-{i:04d}"
        wl.examples[ex_id] = (buggy, fixed)
        wl.items.append(Item(ex_id, kind, text, step=step, valid=kind in ("nest", "edit")))
    rng.shuffle(wl.items)
    wl.files = {
        "corpus.jsonl": _jsonl({"id": k, "buggy": b, "fixed": f} for k, (b, f) in wl.examples.items()),
        "preds.jsonl": _jsonl({"id": it.id, "step": step, "prediction": it.text} for it in wl.items),
    }
    wl.commands = [[
        "eval", "--corpus", "{in}/corpus.jsonl", "--preds", "{in}/preds.jsonl",
        "--out", "{out}/eval", "--seed", str(seed),
    ]]
    return wl


def abstract_corpus(root: Path, seed: int, copies: int = CHECK_COPIES,
                    n_examples: int = ABSTRACT_EXAMPLES) -> Workload:
    rng = random.Random(f"abstract_corpus:{seed}")
    fx = load_fixtures(root)
    wl = Workload("abstract_corpus", seed, workers=1)
    seen: set[str] = set()
    pool = [(c, True) for c in fx["valid_methods"]] + [(c, False) for c in fx["broken_methods"]]
    for n in range(copies):
        for code, valid in pool:
            # Swaps keep the fixture's verdict; after the first copy, add
            # swaps until the text is new, where the fixture allows it.
            text = code
            positions = swap_positions(code)
            rng.shuffle(positions)
            for pos in positions[: rng.randint(0, 2) if n else 0]:
                text = apply_swap(text, pos)
            for pos in positions:
                if text not in seen:
                    break
                text = apply_swap(text, pos)
            seen.add(text)
            wl.check_items.append(Item(f"sn-{len(wl.check_items):04d}", "fixture", text, valid=valid))
    rng.shuffle(wl.check_items)
    deck = _Deck(rng, sorted(set(fx["valid_methods"]) | set(fx["abstraction_methods"])))
    for i in range(n_examples):
        buggy, fixed, _pos = _pair(rng, deck)
        ex_id = f"ab-{i:04d}"
        wl.examples[ex_id] = (buggy, fixed)
        wl.abstract_ids.append(ex_id)
    wl.files = {
        "snippets.jsonl": _jsonl({"id": it.id, "code": it.text} for it in wl.check_items),
        "corpus.jsonl": _jsonl({"id": k, "buggy": b, "fixed": f} for k, (b, f) in wl.examples.items()),
    }
    wl.commands = [
        ["check", "--in", "{in}/snippets.jsonl"],
        ["abstract", "--corpus", "{in}/corpus.jsonl", "--out", "{out}/abstract"],
        ["abstract", "--corpus", "{out}/abstract/abstracted.jsonl", "--out", "{out}/verify",
         "--verify-only"],
    ]
    return wl


BUILDERS = {
    "track_mixed": track_mixed,
    "eval_degenerate": eval_degenerate,
    "abstract_corpus": abstract_corpus,
}


def build(name: str, root: Path, seed: int) -> Workload:
    return BUILDERS[name](root, seed)


def properties(wl: Workload) -> dict:
    """Measured input properties the workload was chosen for."""
    texts = [it.text for it in wl.items] or [it.text for it in wl.check_items] + [
        side for ex_id in wl.abstract_ids for side in wl.examples[ex_id]]
    lengths = sorted(len(t) for t in texts)

    def pct(q):
        return lengths[min(len(lengths) - 1, int(q * len(lengths)))]

    def depth(t):
        d = best = 0
        for tok in t.split(" "):
            if tok == "(":
                d += 1
                best = max(best, d)
            elif tok == ")":
                d -= 1
        return best

    kinds = [it.kind for it in wl.items]
    return {
        "texts": len(texts),
        "copy_share": round(kinds.count("copy") / len(kinds), 4) if kinds else 0.0,
        "distinct_text_ratio": round(len(set(texts)) / len(texts), 4),
        "len_p50": pct(0.50),
        "len_p99": pct(0.99),
        "len_max": lengths[-1],
        "max_paren_depth": max(depth(t) for t in texts),
    }
