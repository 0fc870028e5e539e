"""Small shared helpers."""

from __future__ import annotations

import os
import tempfile

from .errors import RusentError


def atomic_write_text(path, text: str) -> None:
    """Write a file via temp + rename so readers never see partial output.

    An OSError, such as a missing directory or a directory at `path`,
    becomes a RusentError (exit 2) that names the path; no temporary file
    is left behind."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise RusentError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def make_dirs(path) -> None:
    """os.makedirs(path, exist_ok=True); an OSError, such as a file at
    `path` or at one of its parents, becomes a RusentError (exit 2) that
    names the path."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise RusentError(f"cannot write {os.fspath(path)!r}: {exc.strerror or exc}") from None
