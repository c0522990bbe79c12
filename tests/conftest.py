"""Shared fixtures: frozen data files and small corpus builders."""

import json
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"


def load_jsonl(path):
    text = Path(path).read_text(encoding="utf-8")
    return [json.loads(line) for line in text.split("\n") if line.strip()]


def write_jsonl(path, rows):
    path = Path(path)
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def valid_methods():
    """50 hand-written grammatical Java member fragments."""
    return load_jsonl(DATA / "valid_methods.jsonl")


@pytest.fixture(scope="session")
def broken_methods():
    """50 fragments derived by deleting one structural token each."""
    return load_jsonl(DATA / "broken_methods.jsonl")


@pytest.fixture(scope="session")
def flagged_constructs():
    """Legal-but-unusual constructs the checker is known to reject."""
    return load_jsonl(DATA / "flagged_constructs.jsonl")


@pytest.fixture(scope="session")
def abstraction_methods():
    """20 grammatical methods used for abstraction round-trips."""
    return load_jsonl(DATA / "abstraction_methods.jsonl")


SMALL_CORPUS = [
    {"id": "bug-001",
     "buggy": "public int add ( int a , int b ) { return a - b ; }",
     "fixed": "public int add ( int a , int b ) { return a + b ; }"},
    {"id": "bug-002",
     "buggy": "void reset ( ) { count = 1 ; }",
     "fixed": "void reset ( ) { count = 0 ; }"},
    {"id": "bug-003",
     "buggy": "boolean empty ( ) { return size ( ) > 0 ; }",
     "fixed": "boolean empty ( ) { return size ( ) == 0 ; }"},
    {"id": "bug-004",
     "buggy": "String name ( ) { return first ; }",
     "fixed": "String name ( ) { return first + last ; }"},
]

# step 500: one copy, one near-miss modification, one syntax break, one copy
# step 1000: all four exactly fixed
SMALL_PREDICTIONS = [
    {"id": "bug-001", "step": 500,
     "prediction": "public int add ( int a , int b ) { return a - b ; }"},
    {"id": "bug-002", "step": 500,
     "prediction": "void reset ( ) { count = 2 ; }"},
    {"id": "bug-003", "step": 500,
     "prediction": "boolean empty ( ) { return size ( ) > 0 ;"},
    {"id": "bug-004", "step": 500,
     "prediction": "String name ( ) { return first ; }"},
    {"id": "bug-001", "step": 1000,
     "prediction": "public int add ( int a , int b ) { return a + b ; }"},
    {"id": "bug-002", "step": 1000,
     "prediction": "void reset ( ) { count = 0 ; }"},
    {"id": "bug-003", "step": 1000,
     "prediction": "boolean empty ( ) { return size ( ) == 0 ; }"},
    {"id": "bug-004", "step": 1000,
     "prediction": "String name ( ) { return first + last ; }"},
]


@pytest.fixture
def corpus_file(tmp_path):
    return write_jsonl(tmp_path / "corpus.jsonl", SMALL_CORPUS)


@pytest.fixture
def predictions_file(tmp_path):
    return write_jsonl(tmp_path / "predictions.jsonl", SMALL_PREDICTIONS)


@pytest.fixture
def loss_file(tmp_path):
    return write_jsonl(tmp_path / "loss.jsonl", [
        {"step": 500, "train_loss": 1.4, "eval_loss": 0.91},
        {"step": 1000, "train_loss": 0.7, "eval_loss": 0.42},
    ])
