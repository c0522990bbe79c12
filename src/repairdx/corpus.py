"""Bug-fix corpora and model prediction files.

On-disk formats are JSON Lines:

* examples — ``{"id": str, "buggy": str, "fixed": str, "split"?: str}``
* predictions — ``{"id": str, "step": int, "prediction": str, "rank"?: int}``

Loading validates eagerly and reports the first problem with its file,
1-based line number, and offending value, so a malformed corpus fails
loudly instead of skewing metrics downstream. Every JSON Lines input of
the package, the loss log and ``check`` snippets included, is read by
one reader here, which reports an unreadable file by its path.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InputError


@dataclass(frozen=True)
class RepairExample:
    """One buggy/fixed pair. Records without a split label default to
    test, the split predictions are usually evaluated against."""

    id: str
    buggy: str
    fixed: str
    split: str = "test"

    @property
    def is_identity(self) -> bool:
        return self.buggy == self.fixed


@dataclass(frozen=True)
class Prediction:
    """One model output for one example at one training step."""

    id: str
    step: int
    prediction: str
    rank: int = 0


@dataclass(frozen=True)
class TrackingConfig:
    """Knobs for checkpoint-by-checkpoint evaluation."""

    sample_size: int = 100
    interval_steps: int = 500
    seed: int = 42
    fixed_sample: bool = False

    def __post_init__(self):
        if self.sample_size <= 0:
            raise InputError(f"sample_size must be positive, got {self.sample_size}")
        if self.interval_steps <= 0:
            raise InputError(
                f"interval_steps must be positive, got {self.interval_steps}"
            )


@dataclass
class CorpusStats:
    """Shape of a corpus: sizes, lengths, and identity-pair noise.

    Token lengths are whitespace-token counts of the buggy side, the
    side a model conditions on. ``identity_pair_fraction`` is a fraction
    in [0, 1], not a percentage.
    """

    n_examples: int
    n_per_split: dict[str, int]
    mean_token_length: float
    median_token_length: float
    identity_pairs: int
    identity_pair_fraction: float
    duplicate_buggy: int = 0

    def to_obj(self) -> dict:
        """The ``stats`` output and report.json's ``corpus_stats``; reals
        rounded to six decimals."""
        return {
            "n_examples": self.n_examples,
            "n_per_split": self.n_per_split,
            "mean_token_length": round(self.mean_token_length, 6),
            "median_token_length": round(self.median_token_length, 6),
            "identity_pairs": self.identity_pairs,
            "identity_pair_fraction": round(self.identity_pair_fraction, 6),
            "duplicate_buggy": self.duplicate_buggy,
        }


def _require(obj: dict, key: str, kind, path: str, lineno: int):
    if key not in obj:
        raise InputError(f"{path}:{lineno}: missing required field {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InputError(
            f"{path}:{lineno}: field {key!r} must be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def _iter_jsonl(path: Path):
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not valid UTF-8: {exc}") from None
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc.strerror or exc}") from None
    # read_text has turned "\r\n" and "\r" into "\n". Split on that only:
    # str.splitlines() also breaks at U+2028 and other separators that a
    # JSON string may hold raw.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from None
        except ValueError:  # int() refuses a literal past the digit limit
            raise InputError(f"{path}:{lineno}: invalid JSON: an integer has more than "
                             f"{sys.get_int_max_str_digits()} digits") from None
        except RecursionError:
            raise InputError(f"{path}:{lineno}: invalid JSON: nested too deeply") from None
        if not isinstance(obj, dict):
            raise InputError(
                f"{path}:{lineno}: expected a JSON object, got "
                f"{type(obj).__name__}"
            )
        yield lineno, obj


def load_examples(path) -> list[RepairExample]:
    """Read and validate an examples JSONL file."""
    path = Path(path)
    examples: list[RepairExample] = []
    seen: dict[str, int] = {}
    for lineno, obj in _iter_jsonl(path):
        ex_id = _require(obj, "id", str, str(path), lineno)
        if not ex_id:
            raise InputError(f"{path}:{lineno}: field 'id' must be non-empty")
        buggy = _require(obj, "buggy", str, str(path), lineno)
        if not buggy.strip():
            raise InputError(
                f"{path}:{lineno}: field 'buggy' must contain code, "
                f"got {buggy!r}"
            )
        fixed = _require(obj, "fixed", str, str(path), lineno)
        if not fixed.strip():
            raise InputError(
                f"{path}:{lineno}: field 'fixed' must contain code, "
                f"got {fixed!r}"
            )
        split = obj.get("split", "test")
        if not isinstance(split, str) or not split:
            raise InputError(
                f"{path}:{lineno}: field 'split' must be a non-empty str, "
                f"got {split!r}"
            )
        if ex_id in seen:
            raise InputError(
                f"{path}:{lineno}: duplicate example id {ex_id!r} "
                f"(first seen on line {seen[ex_id]})"
            )
        seen[ex_id] = lineno
        examples.append(RepairExample(id=ex_id, buggy=buggy, fixed=fixed, split=split))
    if not examples:
        raise InputError(f"{path}: no examples found")
    return examples


def load_predictions(path, corpus=None) -> list[Prediction]:
    """Read and validate a predictions JSONL file.

    When ``corpus`` is given — either examples or bare example ids —
    every prediction must reference one of them; a stray id is reported
    by name.
    """
    path = Path(path)
    known_ids = None
    if corpus is not None:
        known_ids = {getattr(item, "id", item) for item in corpus}
    preds: list[Prediction] = []
    seen: dict[tuple[str, int, int], int] = {}
    for lineno, obj in _iter_jsonl(path):
        pid = _require(obj, "id", str, str(path), lineno)
        step = _require(obj, "step", int, str(path), lineno)
        if step < 0:
            raise InputError(f"{path}:{lineno}: field 'step' must be >= 0, got {step}")
        text = _require(obj, "prediction", str, str(path), lineno)
        rank = obj.get("rank", 0)
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
            raise InputError(
                f"{path}:{lineno}: field 'rank' must be a non-negative int, "
                f"got {rank!r}"
            )
        if known_ids is not None and pid not in known_ids:
            raise InputError(
                f"{path}:{lineno}: prediction references unknown example id {pid!r}"
            )
        key = (pid, step, rank)
        if key in seen:
            raise InputError(
                f"{path}:{lineno}: duplicate prediction for id={pid!r} "
                f"step={step} rank={rank} (first seen on line {seen[key]})"
            )
        seen[key] = lineno
        preds.append(Prediction(id=pid, step=step, prediction=text, rank=rank))
    if not preds:
        raise InputError(f"{path}: no predictions found")
    return preds


def corpus_stats(examples) -> CorpusStats:
    """Sizes, whitespace-token lengths, and identity-pair share."""
    import statistics  # only stats and a report need it

    examples = list(examples)
    if not examples:
        raise InputError("cannot summarize an empty corpus")
    n_per_split: dict[str, int] = {}
    buggy_lens: list[int] = []
    identity = 0
    buggy_seen: dict[str, int] = {}
    for ex in examples:
        n_per_split[ex.split] = n_per_split.get(ex.split, 0) + 1
        buggy_lens.append(len(ex.buggy.split()))
        if ex.is_identity:
            identity += 1
        buggy_seen[ex.buggy] = buggy_seen.get(ex.buggy, 0) + 1
    dup_buggy = sum(c - 1 for c in buggy_seen.values() if c > 1)
    n = len(examples)
    return CorpusStats(
        n_examples=n,
        n_per_split=dict(sorted(n_per_split.items())),
        mean_token_length=statistics.fmean(buggy_lens),
        median_token_length=float(statistics.median(buggy_lens)),
        identity_pairs=identity,
        identity_pair_fraction=identity / n,
        duplicate_buggy=dup_buggy,
    )


def _sample_rank(seed: int, step: int | None, example_id: str) -> str:
    import hashlib  # only track samples

    if step is None:
        key = f"{seed}:{example_id}"
    else:
        key = f"{seed}:{step}:{example_id}"
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


def sample_validation(examples, config: TrackingConfig, step: int) -> list[RepairExample]:
    """Deterministic sample of up to ``sample_size`` examples.

    Examples are ranked by the SHA-256 digest of ``seed:step:id`` (just
    ``seed:id`` when ``fixed_sample`` is set, so every checkpoint sees the
    same subset) and the lowest digests win. The result preserves corpus
    order. Equal inputs always produce the same sample — no RNG state is
    involved. When the corpus is smaller than the sample size, the whole
    corpus is returned.
    """
    examples = list(examples)
    if not examples:
        raise InputError("cannot sample from an empty corpus")
    if step < 0 or step % config.interval_steps != 0:
        raise InputError(
            f"step {step} is not a multiple of the checkpoint interval "
            f"({config.interval_steps})"
        )
    if len(examples) <= config.sample_size:
        return examples
    key_step = None if config.fixed_sample else step
    ranked = sorted(
        range(len(examples)),
        key=lambda i: _sample_rank(config.seed, key_step, examples[i].id),
    )
    chosen = sorted(ranked[: config.sample_size])
    return [examples[i] for i in chosen]


def predictions_by_step(predictions, rank: int = 0) -> dict[int, dict[str, Prediction]]:
    """Index predictions as step -> example id -> prediction.

    Only the requested beam rank (default 0, the top hypothesis) is kept.
    """
    table: dict[int, dict[str, Prediction]] = {}
    for pred in predictions:
        if pred.rank != rank:
            continue
        table.setdefault(pred.step, {})[pred.id] = pred
    return table


def filter_split(examples, split: str) -> list[RepairExample]:
    """Examples belonging to one split; errors if none do."""
    examples = list(examples)
    chosen = [ex for ex in examples if ex.split == split]
    if not chosen:
        have = sorted({ex.split for ex in examples})
        raise InputError(
            f"no examples in split {split!r}; corpus has splits: "
            + (", ".join(have) if have else "(none)")
        )
    return chosen
