import ast
import os
import pathlib

import pytest

import rusent
from rusent.errors import ArffError, CorpusError, ModelError, RusentError
from rusent.util import atomic_write_text, read_bytes, read_text


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


class TestAtomicWrite:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_the_file_gets_the_mode_open_would_give(self, tmp_path, umask, mode):
        path = tmp_path / "out.txt"
        old = os.umask(umask)
        try:
            atomic_write_text(path, "x\n")
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == mode
        assert path.read_bytes() == b"x\n"

    def test_an_unwritable_path_names_it_and_leaves_no_temporary_file(self, tmp_path):
        path = tmp_path / "nodir" / "out.txt"
        with pytest.raises(RusentError) as exc:
            atomic_write_text(path, "x\n")
        assert str(exc.value) == f"cannot write {str(path)!r}: No such file or directory"
        assert list(tmp_path.rglob(".tmp-*")) == []


def _file_calls(tree):
    """The names of the calls of open, os.fdopen or tempfile.mkstemp in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("open", "fdopen", "mkstemp"):
                yield f"line {node.lineno}: {name}"


def test_only_util_opens_files():
    package = pathlib.Path(rusent.__file__).parent
    found = {}
    for path in sorted(package.rglob("*.py")):
        calls = list(_file_calls(ast.parse(path.read_text(encoding="utf-8"))))
        if calls:
            found[path.relative_to(package).as_posix()] = calls
    assert set(found) == {"util.py"}, found
