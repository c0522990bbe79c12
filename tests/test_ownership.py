"""Each decision has one owner, checked on the source by ``ast``.

``corpus`` is the one module that reads input files: its JSON Lines
reader and field check are used nowhere else. ``cli`` binds the library
names it calls from the package's one name table, ``repairdx._EXPORTS``,
and holds no table of its own.
"""

import ast
from pathlib import Path

import repairdx
from repairdx import cli
from repairdx.corpus import load_loss_log

SRC = Path(__file__).resolve().parent.parent / "src" / "repairdx"
CORPUS_PRIVATE = {"_iter_jsonl", "_require"}


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"))


def _names(tree: ast.AST) -> set[str]:
    """Every identifier a module refers to: names, attributes and imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_only_corpus_reads_json_lines():
    users = {path.relative_to(SRC).as_posix(): sorted(CORPUS_PRIVATE & _names(_tree(path)))
             for path in sorted(SRC.rglob("*.py"))}
    assert {path: names for path, names in users.items() if names} == {
        "corpus.py": sorted(CORPUS_PRIVATE)}


def test_every_name_cli_binds_is_in_the_package_table():
    # Every call of `_bind` names its library names literally, except the
    # one in `__getattr__`, which checks its name against the table first.
    bound = set()
    for func in _tree(SRC / "cli.py").body:
        if not isinstance(func, ast.FunctionDef) or func.name == "__getattr__":
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_bind":
                for arg in node.args:
                    assert isinstance(arg, ast.Constant), (func.name, ast.dump(arg))
                    bound.add(arg.value)
    assert "load_snippets" in bound
    assert sorted(bound - set(repairdx._EXPORTS)) == []


def test_cli_holds_no_name_table():
    # A dict literal keyed by library names would be a second table to
    # keep in step with `repairdx._EXPORTS`.
    for node in ast.walk(_tree(SRC / "cli.py")):
        if isinstance(node, ast.Dict):
            keys = {k.value for k in node.keys if isinstance(k, ast.Constant)}
            assert not keys & set(repairdx._EXPORTS), sorted(keys)


def test_cli_serves_each_exported_name_from_its_module():
    for name in ("load_loss_log", "load_snippets", "check_syntax"):
        assert getattr(cli, name) is getattr(repairdx, name)


def test_loss_log_is_read_by_corpus():
    assert load_loss_log.__module__ == "repairdx.corpus"
    assert repairdx._EXPORTS["load_loss_log"] == "corpus"
