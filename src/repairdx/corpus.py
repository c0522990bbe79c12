"""Bug-fix corpora and model prediction files.

On-disk formats are JSON Lines:

* examples — ``{"id": str, "buggy": str, "fixed": str, "split"?: str}``
* predictions — ``{"id": str, "step": int, "prediction": str, "rank"?: int}``
* loss log — ``{"step": int, "train_loss"?: float, "eval_loss"?: float}``
* snippets — ``{"id": str, "<field>": str}``, the text under a named field

Loading validates eagerly and reports the first problem with its file,
1-based line number, and offending value, so a malformed input fails
loudly instead of skewing metrics downstream. This module is the one
place that reads the records of input files (a report only hashes their
bytes): every loader here goes through one JSON Lines reader, which
reports an unreadable file by its path, and no other module calls it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import NamedTuple

from .errors import InputError

# hashlib loads OpenSSL's libcrypto, about 3.5 MB of peak memory and 5 ms
# per process; the interpreter's own SHA-256 module gives the same digests.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:  # an interpreter built without them
        from hashlib import sha256


class RepairExample(NamedTuple):
    """One buggy/fixed pair. Records without a split label default to
    test, the split predictions are usually evaluated against."""

    id: str
    buggy: str
    fixed: str
    split: str = "test"

    @property
    def is_identity(self) -> bool:
        return self.buggy == self.fixed


class Prediction(NamedTuple):
    """One model output for one example at one training step."""

    id: str
    step: int
    prediction: str
    rank: int = 0


class _TrackingFields(NamedTuple):
    sample_size: int = 100
    interval_steps: int = 500
    seed: int = 42
    fixed_sample: bool = False


class TrackingConfig(_TrackingFields):
    """Knobs for checkpoint-by-checkpoint evaluation.

    A ``NamedTuple`` checked once when built; a ``NamedTuple`` class body
    cannot define ``__init__``, hence the fields' base class.
    """

    __slots__ = ()

    def __init__(self, *_args, **_kwargs):
        if self.sample_size <= 0:
            raise InputError(f"sample_size must be positive, got {self.sample_size}")
        if self.interval_steps <= 0:
            raise InputError(f"interval_steps must be positive, got {self.interval_steps}")


class CorpusStats(NamedTuple):
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


def _first_seen(seen: dict, key: tuple, what: str, path: Path, lineno: int) -> None:
    """Note that ``key`` is on line ``lineno``. A key already in ``seen``
    is an input error naming both lines and the duplicate: ``what``, a
    template that the parts of ``key`` fill only then."""
    first = seen.setdefault(key, lineno)
    if first != lineno:
        raise InputError(f"{path}:{lineno}: duplicate {what.format(*key)} "
                         f"(first seen on line {first})")


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
    seen: dict[tuple[str], int] = {}
    for lineno, obj in _iter_jsonl(path):
        ex_id = _require(obj, "id", str, str(path), lineno)
        if not ex_id:
            raise InputError(f"{path}:{lineno}: field 'id' must be non-empty")
        for side in ("buggy", "fixed"):
            if not _require(obj, side, str, str(path), lineno).strip():
                raise InputError(f"{path}:{lineno}: field {side!r} must contain code, "
                                 f"got {obj[side]!r}")
        split = obj.get("split", "test")
        if not isinstance(split, str) or not split:
            raise InputError(
                f"{path}:{lineno}: field 'split' must be a non-empty str, "
                f"got {split!r}"
            )
        _first_seen(seen, (ex_id,), "example id {!r}", path, lineno)
        examples.append(RepairExample(ex_id, obj["buggy"], obj["fixed"], split))
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
        _first_seen(seen, (pid, step, rank), "prediction for id={!r} step={} rank={}",
                    path, lineno)
        preds.append(Prediction(id=pid, step=step, prediction=text, rank=rank))
    if not preds:
        raise InputError(f"{path}: no predictions found")
    return preds


def load_loss_log(path) -> dict[int, float]:
    """Read ``{"step": int, "train_loss"?: float, "eval_loss"?: float}``
    lines; return eval_loss by step. Loss is ingested, never computed. A
    repeated or non-finite eval_loss is an input error naming the line."""
    path = Path(path)
    losses: dict[int, float] = {}
    seen: dict[tuple[int], int] = {}
    for lineno, obj in _iter_jsonl(path):
        if "step" not in obj:
            raise InputError(f"{path}:{lineno}: expected an object with a 'step' field")
        step = obj["step"]
        if not isinstance(step, int) or isinstance(step, bool) or step < 0:
            raise InputError(f"{path}:{lineno}: 'step' must be a non-negative int")
        loss = obj.get("eval_loss")
        if loss is None:
            continue
        if not isinstance(loss, (int, float)) or isinstance(loss, bool):
            raise InputError(f"{path}:{lineno}: 'eval_loss' must be a number")
        if not abs(loss) <= sys.float_info.max:  # NaN, infinities, ints past float range
            raise InputError(f"{path}:{lineno}: 'eval_loss' must be finite, got {loss!r}")
        _first_seen(seen, (step,), "eval_loss for step={}", path, lineno)
        losses[step] = float(loss)
    return losses


def load_snippets(path, field: str = "code") -> list[tuple[str, str]]:
    """Read and validate a snippets JSONL file; return ``(id, code)``
    pairs in file order, the code taken from ``field``."""
    path = Path(path)
    snippets: list[tuple[str, str]] = []
    for lineno, obj in _iter_jsonl(path):
        snippet_id = _require(obj, "id", str, str(path), lineno)
        if field not in obj:
            raise InputError(
                f"{path}:{lineno}: no field {field!r} (have: {', '.join(sorted(obj))})"
            )
        code = obj[field]
        if not isinstance(code, str):
            raise InputError(f"{path}:{lineno}: field {field!r} must be str")
        snippets.append((snippet_id, code))
    if not snippets:
        raise InputError(f"{path}: no snippets found")
    return snippets


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


def seeded_rank(*parts) -> str:
    """The SHA-256 hex digest of ``parts`` joined by ``:``. Sorting by it
    orders items by a seed alone: no RNG state is involved."""
    return sha256(":".join(map(str, parts)).encode("utf-8")).hexdigest()


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
    key_step = () if config.fixed_sample else (step,)
    ranked = sorted(
        range(len(examples)),
        key=lambda i: seeded_rank(config.seed, *key_step, examples[i].id),
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
