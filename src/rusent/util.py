"""File I/O: the one module that opens files, and so decides how a file
is read or written and what each failure says. A reader raises the
caller's RusentError subclass with `cannot read '<path>': <strerror>` or
`'<path>' is not valid UTF-8: ...`; a writer raises RusentError with
`cannot write '<path>': <strerror>`. All of them exit 2.
"""

from __future__ import annotations

import os
import tempfile

from .errors import RusentError


def read_bytes(path, error: type[RusentError]) -> bytes:
    """The bytes of the file at `path`."""
    return _read(path, error, "rb")


def read_text(path, error: type[RusentError]) -> str:
    """The UTF-8 text of the file at `path`, read in text mode, so that
    "\\r\\n" and "\\r" line ends come back as "\\n"."""
    return _read(path, error, "r", encoding="utf-8")


def _read(path, error, mode, **options):
    try:
        with open(path, mode, **options) as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"cannot read {os.fspath(path)!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{os.fspath(path)!r} is not valid UTF-8: {exc}") from None


def atomic_write_text(path, text: str) -> None:
    """Write a file via temp + rename so readers never see partial output.

    The file gets the mode open() would give it, 0o666 less the umask.
    An OSError, such as a missing directory or a directory at `path`,
    becomes a RusentError (exit 2) that names the path; no temporary file
    is left behind."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                # mkstemp makes the file 0o600; the umask is read by setting it
                umask = os.umask(0o022)
                os.umask(umask)
                os.fchmod(fd, 0o666 & ~umask)
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
