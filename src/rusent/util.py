"""The one module that reaches the file system: it lists, reads and
writes, makes files as open() does, and words each failure. A reader
raises the caller's RusentError subclass with `cannot read '<path>':
<strerror>` or `'<path>' is not valid UTF-8: ...`; a writer raises
RusentError with `cannot write '<path>': <strerror>`. All of them exit 2.
read_lines and atomic_write_lines stream a file a line at a time, so
that a large one is never held whole.

It also owns the line rule that every reader of lines shares
(split_lines): a line ends at "\\n" alone. str.splitlines would also break
at "\\x0b", "\\x1c" or U+2028, which may occur inside a line, such as in a
quoted ARFF value or a class value. A file read in text mode has had its
"\\r\\n" and "\\r" line ends made into "\\n" first.
"""

from __future__ import annotations

import os
import stat
from collections.abc import Iterator
from contextlib import contextmanager

from .errors import ArffError, RusentError


@contextmanager
def _reading(path, error: type[RusentError]):
    """Raise `error`, worded with the path, for a failure to read in the block."""
    try:
        yield
    except OSError as exc:
        raise error(f"cannot read {os.fspath(path)!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{os.fspath(path)!r} is not valid UTF-8: {exc}") from None


def read_bytes(path, error: type[RusentError]) -> bytes:
    """The bytes of the file at `path`."""
    with _reading(path, error), open(path, "rb") as fh:
        return fh.read()


def read_text(path, error: type[RusentError]) -> str:
    """The UTF-8 text of the file at `path`, read in text mode, so that
    "\\r\\n" and "\\r" line ends come back as "\\n"."""
    with _reading(path, error), open(path, encoding="utf-8") as fh:
        return fh.read()


def split_lines(text: str) -> Iterator[str]:
    """The lines of text without their line ends: split at "\\n" only, with
    no "" after a final "\\n", each cut as it is reached, so that a reader
    never holds them all."""
    start = 0
    while (end := text.find("\n", start)) >= 0:
        yield text[start:end]
        start = end + 1
    if start < len(text):
        yield text[start:]


@contextmanager
def read_lines(path, error: type[RusentError]):
    """A with block over the UTF-8 text file at `path` that gives (size,
    lines): a bound of the characters of its lines, line ends included,
    and an iterator of its lines without their line ends, read in text
    mode, as read_text reads. A regular file is read a line at a time, and
    its size in bytes is the bound; anything else, such as a pipe, has no
    size, so it is read whole first. A failure to open or read raises
    `error`, worded as read_text words it; the file is closed when the
    block ends."""
    with _reading(path, error):
        fh = open(path, encoding="utf-8")
    with fh:
        with _reading(path, error):
            info = os.fstat(fh.fileno())
            text = None if stat.S_ISREG(info.st_mode) else fh.read()
        if text is None:
            yield info.st_size, _lines(fh, path, error)
        else:
            yield len(text), split_lines(text)


def _lines(fh, path, error):
    with _reading(path, error):
        try:
            for line in fh:
                yield line[:-1] if line.endswith("\n") else line
        except UnicodeDecodeError:
            # the decoder counts from the block it was given: decoding the
            # whole file names the byte's place in it, as read_text does
            fh.buffer.seek(0)
            fh.buffer.read().decode("utf-8")
            raise


@contextmanager
def named(path):
    """Put `'<path>': ` before the message of a RusentError raised in the
    block, which keeps its class."""
    try:
        yield
    except RusentError as exc:
        exc.args = (f"{os.fspath(path)!r}: {exc}",)
        raise


def parse_file(path, parse):
    """parse(the bytes of the ARFF file at `path`). A RusentError from parse
    is raised again with `'<path>': ` before its message."""
    source = read_bytes(path, ArffError)
    with named(path):
        return parse(source)


def list_dir(path, error: type[RusentError]) -> tuple[list[str], list[str]]:
    """The sorted names of the subdirectories and of the files of the
    directory at `path`. Only an entry that is not a file is asked if it is
    a directory, so that a file costs one stat."""
    with _reading(path, error):
        names = sorted(os.listdir(path))
    files = [name for name in names if os.path.isfile(os.path.join(path, name))]
    others = sorted(set(names).difference(files))
    return [name for name in others if os.path.isdir(os.path.join(path, name))], files


def atomic_write_text(path, text: str) -> None:
    """Write a file via temp + rename so readers never see partial output.

    The file gets the mode open() would give it: the kernel narrows 0o666
    by the umask or by the directory's default ACL. An OSError, such as a
    missing directory or a directory at `path`, becomes a RusentError
    (exit 2) that names the path; no temporary file is left behind."""
    _atomic_write(path, (text,))


def atomic_write_lines(path, lines) -> None:
    """atomic_write_text of each of `lines` followed by "\\n", written as
    they come, so that the whole text is never held. An exception raised
    by `lines` propagates and leaves the file at `path` as it was."""
    _atomic_write(path, (line + "\n" for line in lines))


def _atomic_write(path, chunks) -> None:
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), ".tmp-" + os.urandom(8).hex())
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="\n")
        try:
            with fh:
                fh.writelines(chunks)
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
