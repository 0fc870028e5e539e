"""ARFF parsing, writing, and text-directory loading.

The ARFF dialect supported here covers what the rest of the pipeline
needs: `@relation` / `@attribute` / `@data` (case-insensitive), numeric,
nominal and string attributes, `%` comment lines, single-quoted tokens
(embedded quotes escaped by doubling; backslash escapes \\n \\r \\t \\\\
carry line breaks inside quoted values), dense and sparse `{index value}`
rows, and `?` as the missing-value marker.

Conventions fixed by this module:

* In a sparse row an omitted numeric entry is 0.0 and an omitted nominal
  entry is the attribute's FIRST declared value (the WEKA convention).
  An omitted string entry is a parse error because strings have no
  defaultable zero.
* The writer emits a single canonical form: lowercase keywords, minimal
  single-quoting, shortest round-trip float formatting. Output is
  byte-stable, so golden-file tests can compare exact text.
* Input must be valid UTF-8; decoding failures are parse errors.

All input goes through one line loop (_read): the header, then each data
row's given cells, {attribute index: value}. parse_arff fills in a sparse
row's omitted cells; rusent.vectorize.read_matrix puts the given cells
straight into CSR. Text with no quote is split with str methods, to the
fields that the character scanner gives it.

A Dataset is immutable once built and safe to share across threads.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from dataclasses import dataclass, field

from .errors import ArffError, CorpusError
from .util import list_dir, read_text, split_lines

NUMERIC = "numeric"
NOMINAL = "nominal"
STRING = "string"

#: Value used for `?` in parsed instances.
MISSING = None

_QUOTE_TRIGGERS = set(" \t,{}%'\"\\\n\r")
_ESCAPES = {"n": "\n", "r": "\r", "t": "\t", "\\": "\\", "'": "'"}


@dataclass(frozen=True)
class AttributeDecl:
    """One `@attribute` declaration."""

    name: str
    kind: str
    values: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.name:
            raise ValueError("attribute name must be non-empty")
        if self.kind not in (NUMERIC, NOMINAL, STRING):
            raise ValueError(f"unknown attribute kind: {self.kind!r}")
        if self.kind == NOMINAL:
            if not self.values:
                raise ValueError(f"nominal attribute {self.name!r} has no values")
            if len(set(self.values)) != len(self.values):
                raise ValueError(f"nominal attribute {self.name!r} has duplicate values")
        elif self.values:
            raise ValueError(f"{self.kind} attribute {self.name!r} cannot list values")


@dataclass(frozen=True)
class Dataset:
    """An in-memory ARFF relation.

    Instance rows are tuples with one slot per attribute: floats for
    numeric attributes, strings for nominal/string, None for missing.
    `class_index` points at the class attribute (always nominal); it is
    None for relations with no nominal attribute.

    Building one checks every row in order and raises ValueError at the
    first bad cell: a row whose length is not the attribute count, a
    numeric value that is not a finite float, or an undeclared nominal
    value. Missing values pass in any column.
    """

    relation_name: str
    attributes: tuple[AttributeDecl, ...]
    instances: tuple[tuple, ...]
    class_index: int | None = None

    def __post_init__(self):
        if self.class_index is not None:
            decl = self.attributes[self.class_index]
            if decl.kind != NOMINAL:
                raise ValueError("class_index must refer to a nominal attribute")
        for row in self.instances:
            self._check_row(row)

    def _check_row(self, row):
        if len(row) != len(self.attributes):
            raise ValueError(f"row has {len(row)} values for {len(self.attributes)} attributes")
        for decl, value in zip(self.attributes, row):
            if value is MISSING:
                continue
            if decl.kind == NUMERIC:
                if not isinstance(value, float) or not math.isfinite(value):
                    raise ValueError(f"non-finite numeric value in {decl.name!r}")
            elif decl.kind == NOMINAL and value not in decl.values:
                raise ValueError(f"undeclared nominal value {value!r} for {decl.name!r}")

    @property
    def class_values(self) -> tuple[str, ...]:
        if self.class_index is None:
            raise ValueError("dataset has no class attribute")
        return self.attributes[self.class_index].values

    def has_missing(self) -> bool:
        return any(MISSING in row for row in self.instances)


# ---------------------------------------------------------------------------
# parsing

def _scan_fields(line: str, lineno: int, sep: str | None, i: int,
                 n: int) -> list[tuple[str, bool, int, int]]:
    """Split line[i:n] on `sep` (or runs of spaces and tabs when sep is
    None), honoring single quotes with '' as the escaped quote. Quotes may
    open anywhere inside a field, so quoted text can contain the separator.

    Returns (text, was_quoted, 1-based column, end index) tuples; columns
    and indices count from the start of `line`. Text that holds no quote
    is split with str methods, to the fields _scan_chars gives it.
    """
    text = line[i:n]
    if "'" in text:
        return _scan_chars(line, lineno, sep, i, n)
    fields = []
    if sep is None:
        for piece in text.replace("\t", " ").split(" "):
            if field := piece.strip():
                fields.append((field, False, i + 1, i + len(piece)))
            i += len(piece) + 1
    else:
        for piece in text.split(sep):
            lead = len(piece) - len(piece.lstrip(" \t"))
            fields.append((piece.strip(), False, i + lead + 1, i + len(piece)))
            i += len(piece) + 1
    return fields


def _scan_chars(line: str, lineno: int, sep: str | None, i: int,
                n: int) -> list[tuple[str, bool, int, int]]:
    """_scan_fields' split, a character at a time."""
    fields = []
    while True:
        while i < n and line[i] in " \t":
            i += 1
        col = i + 1
        buf = []
        any_quoted = False
        while i < n:
            ch = line[i]
            if ch == "'":
                any_quoted = True
                i += 1
                while True:
                    if i >= n:
                        raise ArffError("unterminated quoted value", lineno, col)
                    if line[i] == "'":
                        if i + 1 < n and line[i + 1] == "'":
                            buf.append("'")
                            i += 2
                            continue
                        i += 1
                        break
                    if line[i] == "\\":
                        if i + 1 >= n or line[i + 1] not in _ESCAPES:
                            raise ArffError("bad escape sequence in quoted value", lineno, i + 1)
                        buf.append(_ESCAPES[line[i + 1]])
                        i += 2
                        continue
                    buf.append(line[i])
                    i += 1
            elif (sep is None and ch in " \t") or (sep is not None and ch == sep):
                break
            else:
                buf.append(ch)
                i += 1
        text = "".join(buf)
        if not any_quoted:
            text = text.strip()
        fields.append((text, any_quoted, col, i))
        if i >= n:
            break
        if sep is not None:
            i += 1  # consume the separator; whitespace runs re-skip above
    if sep is None:
        fields = [f for f in fields if f[0] or f[1]]
    return fields


def _stripped(line: str, i: int, n: int) -> tuple[int, int]:
    """The bounds of line[i:n].strip() in line."""
    text = line[i:n]
    i += len(text) - len(text.lstrip())
    return i, i + len(text.strip())


def _parse_attribute(line: str, i: int, n: int, lineno: int) -> AttributeDecl:
    """The declaration in line[i:n], the text after `@attribute`."""
    i, n = _stripped(line, i, n)
    name_fields = _scan_fields(line, lineno, None, i, n)
    if not name_fields:
        raise ArffError("@attribute needs a name and a type", lineno)
    name, quoted, col, end = name_fields[0]
    if not name:
        raise ArffError("empty attribute name", lineno, col)
    # everything after the name token is the type specification
    spec = line[end:n].strip()
    if not spec:
        raise ArffError(f"attribute {name!r} has no type", lineno)
    if spec.startswith("{"):
        if not spec.endswith("}"):
            raise ArffError("nominal specification missing closing '}'", lineno)
        values = []
        i = n - len(spec)
        for text, was_quoted, vcol, _ in _scan_fields(line, lineno, ",", i + 1, n - 1):
            if not text and not was_quoted:
                raise ArffError("empty nominal value", lineno, vcol)
            values.append(text)
        if not values:
            raise ArffError(f"nominal attribute {name!r} declares no values", lineno)
        if len(set(values)) != len(values):
            raise ArffError(f"duplicate nominal value in {name!r}", lineno)
        return AttributeDecl(name, NOMINAL, tuple(values))
    kind = spec.split()[0].lower()
    if kind in ("numeric", "real", "integer"):
        return AttributeDecl(name, NUMERIC)
    if kind == "string":
        return AttributeDecl(name, STRING)
    if kind in ("date", "relational"):
        raise ArffError(f"unsupported attribute type {kind!r}", lineno)
    raise ArffError(f"unknown attribute type {spec!r}", lineno)


def _convert(decl: AttributeDecl, text: str, quoted: bool, lineno: int, col: int):
    if text == "?" and not quoted:
        return MISSING
    if decl.kind == NUMERIC:
        try:
            value = float(text)
        except ValueError:
            raise ArffError(f"invalid numeric value {text!r}", lineno, col) from None
        if not math.isfinite(value):
            raise ArffError(f"non-finite numeric value {text!r}", lineno, col)
        return value
    if decl.kind == NOMINAL:
        if text not in decl.values:
            raise ArffError(
                f"value {text!r} not declared for nominal attribute {decl.name!r}",
                lineno,
                col,
            )
        return text
    return text


def _data_rows(lines, attributes) -> Iterator[dict]:
    """The cells that each data row of `lines`, (line number, line) pairs
    after `@data`, gives: {attribute index: value}, of every index for a
    dense row and of the entries written for a sparse one."""
    strings = [i for i, decl in enumerate(attributes) if decl.kind == STRING]
    for lineno, raw in lines:
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        start = len(raw) - len(raw.lstrip())  # columns count from the start of raw
        if line.startswith("{"):
            if not line.endswith("}"):
                raise ArffError("sparse row missing closing '}'", lineno)
            cells = _entry_cells(raw, start + 1, start + len(line) - 1, attributes, lineno)
            for idx in strings:
                if idx not in cells:
                    raise ArffError(f"sparse row omits string attribute {attributes[idx].name!r},"
                                    " which has no default", lineno)
            yield cells
            continue
        fields = _scan_fields(raw, lineno, ",", start, start + len(line))
        if len(fields) != len(attributes):
            raise ArffError(f"row has {len(fields)} values, expected {len(attributes)}", lineno)
        yield {
            idx: _convert(decl, text, quoted, lineno, col)
            for idx, (decl, (text, quoted, col, _)) in enumerate(zip(attributes, fields))
        }


def _entry_cells(line: str, i: int, n: int, attributes, lineno: int) -> dict:
    """The cells of the sparse row whose entries line[i:n] holds, read an
    entry at a time; raises the ArffError of the first bad entry."""
    cells = {}
    entries = _scan_fields(line, lineno, ",", i, n)
    if len(entries) == 1 and entries[0][0] == "" and not entries[0][1]:
        entries = []  # "{}" row: all defaults
    for text, was_quoted, col, end in entries:
        parts = _scan_fields(line, lineno, None, col - 1, end)
        if len(parts) != 2:
            raise ArffError(f"sparse entry {text!r} is not 'index value'", lineno, col)
        (idx_text, idx_quoted, _, _), (val_text, val_quoted, _, _) = parts
        if idx_quoted:
            raise ArffError("sparse entry index cannot be quoted", lineno, col)
        try:
            idx = int(idx_text)
        except ValueError:
            raise ArffError(f"invalid sparse index {idx_text!r}", lineno, col) from None
        if not 0 <= idx < len(attributes):
            raise ArffError(f"sparse index {idx} out of range", lineno, col)
        if idx in cells:
            raise ArffError(f"duplicate sparse index {idx}", lineno, col)
        cells[idx] = _convert(attributes[idx], val_text, val_quoted, lineno, col)
    return cells


def _read(source: str | bytes) -> tuple[str, tuple[AttributeDecl, ...], Iterator[dict]]:
    """The relation name and attributes of ARFF text, read up to its
    `@data` line, and its data rows' cells (see _data_rows), read as they
    are iterated. Raises the ArffError of a malformed header here, and
    that of a malformed row when the row is reached."""
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ArffError(f"input is not valid UTF-8: {exc}") from None

    relation = None
    attributes: list[AttributeDecl] = []
    names: set[str] = set()
    lines = enumerate(split_lines(source), start=1)
    for lineno, raw in lines:
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if not line.startswith("@"):
            raise ArffError(f"unexpected text before @data: {line!r}", lineno)
        word = line.split(None, 1)[0].lower()
        if word == "@attribute":
            if relation is None:
                raise ArffError("@attribute before @relation", lineno)
            start = len(raw) - len(raw.lstrip())  # columns count from the start of raw
            decl = _parse_attribute(raw, start + len(word), start + len(line), lineno)
            if decl.name in names:
                raise ArffError(f"duplicate attribute name {decl.name!r}", lineno)
            names.add(decl.name)
            attributes.append(decl)
        elif word == "@relation":
            if relation is not None:
                raise ArffError("duplicate @relation", lineno)
            if attributes:
                raise ArffError("@relation must come first", lineno)
            start = len(raw) - len(raw.lstrip())
            fields = _scan_fields(raw, lineno, None,
                                  *_stripped(raw, start + len(word), start + len(line)))
            if not fields:
                raise ArffError("@relation needs a name", lineno)
            relation = fields[0][0]
        elif word == "@data":
            if relation is None:
                raise ArffError("@data before @relation", lineno)
            if not attributes:
                raise ArffError("@data before any @attribute", lineno)
            return relation, tuple(attributes), _data_rows(lines, attributes)
        else:
            raise ArffError(f"unknown declaration {word!r}", lineno)
    if relation is None:
        raise ArffError("missing @relation declaration")
    raise ArffError("missing @data section")


def _class_index(attributes) -> int | None:
    """The index of the last nominal attribute, the class by default, or
    None when there is none."""
    for i in range(len(attributes) - 1, -1, -1):
        if attributes[i].kind == NOMINAL:
            return i
    return None


def parse_arff(source: str | bytes) -> Dataset:
    """Parse ARFF text into a Dataset.

    Raises ArffError with line (and usually column) information on any
    malformed input. The class index defaults to the last nominal
    attribute, or None when there is no nominal attribute.
    """
    relation, attributes, rows = _read(source)
    # a string attribute has none: _data_rows rejects a sparse row that omits one
    defaults = {
        idx: 0.0 if decl.kind == NUMERIC else decl.values[0] if decl.kind == NOMINAL else None
        for idx, decl in enumerate(attributes)
    }
    # a dict merge keeps the defaults' order of keys, with the cells' values
    instances = tuple(tuple({**defaults, **cells}.values()) for cells in rows)
    return Dataset(relation, attributes, instances, _class_index(attributes))


# ---------------------------------------------------------------------------
# writing

def _quote(text: str) -> str:
    # "?" must be quoted or it would read back as the missing marker;
    # any whitespace is quoted because unquoted fields are stripped.
    if text in ("", "?") or any(ch in _QUOTE_TRIGGERS or ch.isspace() for ch in text):
        body = (
            text.replace("\\", "\\\\")
            .replace("'", "''")
            .replace("\n", "\\n")
            .replace("\r", "\\r")
        )
        return "'" + body + "'"
    return text


def _format_value(decl: AttributeDecl, value) -> str:
    if value is MISSING:
        return "?"
    if decl.kind == NUMERIC:
        return repr(value)
    return _quote(value)


def write_arff(dataset: Dataset) -> str:
    """Serialize a Dataset to canonical ARFF text, with dense data rows.

    parse_arff(write_arff(d)) reproduces d exactly; the output is
    byte-stable.
    """
    lines = [f"@relation {_quote(dataset.relation_name)}"]
    for decl in dataset.attributes:
        if decl.kind == NOMINAL:
            spec = "{" + ",".join(_quote(v) for v in decl.values) + "}"
        else:
            spec = decl.kind
        lines.append(f"@attribute {_quote(decl.name)} {spec}")
    lines.append("@data")
    for row in dataset.instances:
        lines.append(
            ",".join(
                _format_value(decl, value)
                for decl, value in zip(dataset.attributes, row)
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# text-directory loading

def load_text_directory(root: str | os.PathLike) -> Dataset:
    """Load a `root/<class>/<file>.txt` corpus into a two-attribute Dataset.

    Attribute 0 is the string attribute `text` holding each file verbatim;
    attribute 1 is the nominal class, with values taken from the
    subdirectory names in sorted order (so the result is independent of
    filesystem enumeration order). Empty class subdirectories still
    contribute their class value.
    """
    root = os.fspath(root)
    class_names = list_dir(root, CorpusError)[0]
    if not class_names:
        raise CorpusError(f"no class subdirectories under {root!r}")

    instances = []
    for name in class_names:
        class_dir = os.path.join(root, name)
        for fname in list_dir(class_dir, CorpusError)[1]:
            instances.append((read_text(os.path.join(class_dir, fname), CorpusError), name))
    if not instances:
        raise CorpusError(f"no documents found under {root!r}")

    attributes = (
        AttributeDecl("text", STRING),
        AttributeDecl("class", NOMINAL, tuple(class_names)),
    )
    return Dataset(os.path.basename(root) or "corpus", attributes, tuple(instances), 1)
