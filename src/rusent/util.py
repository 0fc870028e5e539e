"""The one module that reaches the file system: it lists, reads and
writes, makes files as open() does, and words each failure. A reader
raises the caller's RusentError subclass with `cannot read '<path>':
<strerror>` or `'<path>' is not valid UTF-8: ...`; a writer raises
RusentError with `cannot write '<path>': <strerror>`. All of them exit 2.
"""

from __future__ import annotations

import os

from .errors import ArffError, RusentError


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


def parse_file(path, parse):
    """parse(the bytes of the ARFF file at `path`). A RusentError from parse
    is raised again with `'<path>': ` before its message."""
    source = read_bytes(path, ArffError)
    try:
        return parse(source)
    except RusentError as exc:
        exc.args = (f"{os.fspath(path)!r}: {exc}",)
        raise


def list_dir(path, error: type[RusentError]) -> tuple[list[str], list[str]]:
    """The sorted names of the subdirectories and of the files of the
    directory at `path`. Only an entry that is not a file is asked if it is
    a directory, so that a file costs one stat."""
    try:
        names = sorted(os.listdir(path))
    except OSError as exc:
        raise error(f"cannot read {os.fspath(path)!r}: {exc.strerror or exc}") from None
    files = [name for name in names if os.path.isfile(os.path.join(path, name))]
    others = sorted(set(names).difference(files))
    return [name for name in others if os.path.isdir(os.path.join(path, name))], files


def atomic_write_text(path, text: str) -> None:
    """Write a file via temp + rename so readers never see partial output.

    The file gets the mode open() would give it: the kernel narrows 0o666
    by the umask or by the directory's default ACL. An OSError, such as a
    missing directory or a directory at `path`, becomes a RusentError
    (exit 2) that names the path; no temporary file is left behind."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), ".tmp-" + os.urandom(8).hex())
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="\n")
        try:
            with fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
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
