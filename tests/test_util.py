import ast
import errno
import os
import pathlib
import struct
from contextlib import nullcontext

import pytest

import rusent
from rusent.arff import parse_arff
from rusent.errors import ArffError, CorpusError, ModelError, RusentError
import rusent.util
from rusent.util import (atomic_write_lines, atomic_write_text, parse_file, read_bytes,
                         read_lines, read_text)


class TestReaders:
    @pytest.mark.parametrize("read", [read_bytes, read_text])
    @pytest.mark.parametrize("error", [ArffError, ModelError, CorpusError])
    def test_a_missing_file_raises_the_callers_error_naming_it(self, tmp_path, read, error):
        path = tmp_path / "nope.arff"
        with pytest.raises(error) as exc:
            read(path, error)
        assert str(exc.value) == f"cannot read {str(path)!r}: No such file or directory"

    @pytest.mark.parametrize("read", [read_bytes, read_text])
    def test_a_directory_cannot_be_read(self, tmp_path, read):
        with pytest.raises(CorpusError) as exc:
            read(tmp_path, CorpusError)
        assert str(exc.value) == f"cannot read {str(tmp_path)!r}: Is a directory"

    def test_text_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_bytes(b"rusent\xff\n")
        with pytest.raises(ModelError) as exc:
            read_text(path, ModelError)
        assert str(exc.value).startswith(f"{str(path)!r} is not valid UTF-8: ")
        assert read_bytes(path, ModelError) == b"rusent\xff\n"

    def test_text_mode_turns_line_ends_into_line_feeds(self, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes(b"a\r\nb\rc\x0bd\n")
        assert read_text(path, CorpusError) == "a\nb\nc\x0bd\n"


def read_all_lines(path, error):
    with read_lines(path, error) as (size, lines):
        return size, list(lines)


class TestReadLines:
    @pytest.mark.parametrize("error", [ModelError, CorpusError])
    def test_a_missing_file_or_a_directory_is_worded_as_read_text_words_it(self, tmp_path,
                                                                         error):
        for path in (tmp_path / "nope.model", tmp_path):
            with pytest.raises(error) as streamed:
                read_all_lines(path, error)
            with pytest.raises(error) as whole:
                read_text(path, error)
            assert str(streamed.value) == str(whole.value)

    def test_a_byte_that_is_not_utf8_past_the_first_block(self, tmp_path):
        # worded as read_text words it, with the byte's place in the file
        path = tmp_path / "bad.model"
        path.write_bytes(b"0.0\n" * 10_000 + b"\xff\n")
        with pytest.raises(ModelError) as streamed:
            read_all_lines(path, ModelError)
        with pytest.raises(ModelError) as whole:
            read_text(path, ModelError)
        assert str(streamed.value) == str(whole.value)
        assert "in position 40000" in str(streamed.value)

    def test_lines_break_as_read_text_breaks_them(self, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes("a\r\nb\rc\x0bd\u2028\n\ne".encode())
        assert read_all_lines(path, CorpusError) == (14, ["a", "b", "c\x0bd\u2028", "", "e"])
        assert read_text(path, CorpusError).split("\n") == ["a", "b", "c\x0bd\u2028", "", "e"]

    @pytest.mark.parametrize("stop", ["at the first line", "by an exception"])
    def test_the_file_is_closed_when_the_block_ends(self, tmp_path, monkeypatch, stop):
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(rusent.util, "open", recording_open, raising=False)
        path = tmp_path / "two.txt"
        path.write_text("one\ntwo\n", encoding="utf-8")
        with pytest.raises(ZeroDivisionError) if stop == "by an exception" else nullcontext():
            with read_lines(path, ModelError) as (_, lines):
                assert next(lines) == "one"
                if stop == "by an exception":
                    1 / 0
        assert len(opened) == 1 and opened[0].closed


class TestParseFile:
    def test_a_parse_error_keeps_its_class_and_gains_the_path(self, tmp_path):
        path = tmp_path / "bad.arff"
        path.write_bytes(b"@relation r\n@bogus\n")
        with pytest.raises(ArffError) as exc:
            parse_file(path, parse_arff)
        assert str(exc.value) == f"{str(path)!r}: line 2: unknown declaration '@bogus'"
        assert exc.value.line == 2


def _modes(directory, umask):
    """The modes of a file that open() makes in directory and of one that
    atomic_write_text makes there, under umask."""
    old = os.umask(umask)
    try:
        with open(directory / "by-open.txt", "w", encoding="utf-8"):
            pass
        atomic_write_text(directory / "out.txt", "x\n")
    finally:
        os.umask(old)
    assert (directory / "out.txt").read_bytes() == b"x\n"
    return [(directory / name).stat().st_mode & 0o777 for name in ("by-open.txt", "out.txt")]


def _acl_entry(tag, perm):
    # struct posix_acl_xattr_entry: tag, permissions, and an id that the
    # owner, group and other entries leave undefined
    return struct.pack("<HHI", tag, perm, 0xFFFFFFFF)


class TestAtomicWrite:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_the_file_gets_the_mode_open_would_give(self, tmp_path, umask, mode):
        assert _modes(tmp_path, umask) == [mode, mode]

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_under_a_default_acl_the_file_gets_the_mode_open_would_give(self, tmp_path, umask):
        # version 2; user::rwx, group::rwx, other::r-x, which replace the umask
        acl = struct.pack("<I", 2) + _acl_entry(0x01, 7) + _acl_entry(0x04, 7) + _acl_entry(0x20, 5)
        try:
            os.setxattr(tmp_path, "system.posix_acl_default", acl)
        except OSError as exc:
            if exc.errno in (errno.ENOTSUP, errno.EOPNOTSUPP):
                pytest.skip(f"the file system refuses a default ACL: {exc.strerror}")
            raise
        assert _modes(tmp_path, umask) == [0o664, 0o664]

    def test_lines_are_written_each_with_a_line_feed(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_lines(path, iter(["a", "", "b\r"]))
        assert path.read_bytes() == b"a\n\nb\r\n"

    def test_lines_that_fail_leave_the_earlier_file_and_no_temporary_file(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "before\n")

        def failing():
            yield "x" * 100_000
            raise ModelError("cannot write a non-finite model parameter")

        with pytest.raises(ModelError):
            atomic_write_lines(path, failing())
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        assert path.read_bytes() == b"before\n"

    def test_an_unwritable_path_names_it_and_leaves_no_temporary_file(self, tmp_path):
        path = tmp_path / "nodir" / "out.txt"
        with pytest.raises(RusentError) as exc:
            atomic_write_text(path, "x\n")
        assert str(exc.value) == f"cannot write {str(path)!r}: No such file or directory"
        assert list(tmp_path.rglob(".tmp-*")) == []


_FS_MODULES = {"os", "os.path", "tempfile", "shutil"}
_FS_NAMES = {"open", "fdopen", "mkstemp", "listdir", "scandir", "walk", "makedirs", "mkdir",
             "replace", "rename", "unlink", "remove", "rmdir", "umask", "chmod", "fchmod",
             "isdir", "isfile", "exists"}


def _file_calls(tree):
    """The calls in tree that reach the file system: open, fdopen or mkstemp,
    whatever owns it, and each of _FS_NAMES called on (or imported from) one
    of _FS_MODULES. For those the owning module is matched, so str.replace
    is not one of them."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("open", "fdopen", "mkstemp") or (
                    isinstance(func, ast.Attribute) and name in _FS_NAMES
                    and ast.unparse(func.value) in _FS_MODULES):
                yield f"line {node.lineno}: {ast.unparse(func)}"
        elif isinstance(node, ast.ImportFrom) and node.module in _FS_MODULES:
            for alias in node.names:
                if alias.name in _FS_NAMES:
                    yield f"line {node.lineno}: from {node.module} import {alias.name}"


def test_only_util_opens_files():
    package = pathlib.Path(rusent.__file__).parent
    found = {}
    for path in sorted(package.rglob("*.py")):
        calls = list(_file_calls(ast.parse(path.read_text(encoding="utf-8"))))
        if calls:
            found[path.relative_to(package).as_posix()] = calls
    assert set(found) == {"util.py"}, found
