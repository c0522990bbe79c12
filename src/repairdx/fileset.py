"""Write a command's output files as one set.

Every command that writes files writes them through ``write_files``:
``abstract`` its JSON Lines files, ``eval``, ``track`` and ``inspect``
their reports. The module needs only the standard library and
``errors``, so ``abstract`` writes without loading the report code.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
from pathlib import Path

from .errors import EnvironmentFailure


def write_files(out_dir, files: dict[str, str]) -> list[Path]:
    """Create ``out_dir`` and write the named texts into it as one set.

    Every text goes to a temp file first. Only when all of them are
    written, and no target is a directory, are they renamed into place;
    otherwise every temp file is removed and no target changes. A failure
    part-way through the renames is not covered: the targets renamed
    before it are then new and the rest old. Returns the written paths;
    any OS error is an environment failure.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise EnvironmentFailure(f"cannot create output directory {out}: {exc}") from None
    pending = [(out / f".{name}.tmp", out / name) for name in files]
    try:
        for tmp, path in pending:
            tmp.write_text(files[path.name], encoding="utf-8")
        for _tmp, path in pending:
            if path.is_dir() and not path.is_symlink():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for tmp, path in pending:
            os.replace(tmp, path)
    except OSError as exc:
        for tmp, _path in pending:
            with contextlib.suppress(OSError):
                tmp.unlink()
        raise EnvironmentFailure(f"cannot write {path}: {exc}") from None
    return [path for _tmp, path in pending]


# One encoder for every object: ``json.dumps`` with a non-default keyword
# builds a new ``JSONEncoder`` per call.
_encode = json.JSONEncoder(ensure_ascii=False).encode


def jsonl(objs) -> str:
    """JSON Lines text of ``objs``, one object per line; empty for none."""
    return "".join(_encode(obj) + "\n" for obj in objs)
