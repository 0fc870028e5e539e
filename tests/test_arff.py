import glob
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rusent.arff import (
    MISSING,
    AttributeDecl,
    Dataset,
    load_text_directory,
    parse_arff,
    write_arff,
)
from rusent.classifiers import train_dtree
from rusent.cli import main
from rusent.errors import ArffError, CorpusError

from conftest import make_matrix

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

MINIMAL = "@relation r\n@attribute a numeric\n@attribute c {pos,neg}\n@data\n1,pos\n"


class TestParse:
    def test_minimal_file(self):
        d = parse_arff(MINIMAL)
        assert d.relation_name == "r"
        assert len(d.attributes) == 2
        assert d.instances == ((1.0, "pos"),)
        assert d.class_index == 1

    def test_keywords_case_insensitive(self):
        d = parse_arff(MINIMAL.upper().replace("POS,NEG", "pos,neg").replace("POS", "pos"))
        assert len(d.instances) == 1

    def test_data_before_attribute_is_syntax_error(self):
        with pytest.raises(ArffError):
            parse_arff("@relation r\n@data\n1\n")

    def test_sparse_row_expansion(self):
        # matches WEKA's sparse expansion: omitted numerics are 0
        text = (
            "@relation s\n@attribute a numeric\n@attribute b numeric\n"
            "@attribute c {pos,neg}\n@data\n{0 3, 2 neg}\n"
        )
        d = parse_arff(text)
        assert d.instances == ((3.0, 0.0, "neg"),)

    def test_sparse_omitted_nominal_defaults_to_first_value(self):
        text = (
            "@relation s\n@attribute k {zero,one}\n@attribute a numeric\n"
            "@data\n{1 5}\n"
        )
        d = parse_arff(text)
        assert d.instances == (("zero", 5.0),)

    def test_sparse_omitted_string_is_error(self):
        text = "@relation s\n@attribute t string\n@attribute a numeric\n@data\n{1 5}\n"
        with pytest.raises(ArffError, match="string"):
            parse_arff(text)

    def test_missing_marker(self):
        d = parse_arff("@relation m\n@attribute a numeric\n@attribute c {p,n}\n@data\n?,p\n")
        assert d.instances[0][0] is MISSING
        assert d.has_missing()

    def test_quoted_value_with_spaces(self):
        d = parse_arff(
            "@relation q\n@attribute t string\n@attribute c {p,n}\n@data\n'acha hai',p\n"
        )
        assert d.instances[0][0] == "acha hai"

    def test_duplicate_attribute_name_reports_its_line(self):
        text = (
            "@relation r\n@attribute a numeric\n@attribute b numeric\n"
            "% a comment line\n@attribute a numeric\n@attribute c {pos,neg}\n@data\n"
        )
        with pytest.raises(ArffError, match="duplicate attribute name 'a'") as info:
            parse_arff(text)
        assert info.value.line == 5

    def test_sparse_row_omitting_a_string_names_the_first_one(self):
        text = (
            "@relation r\n@attribute a numeric\n@attribute s string\n"
            "@attribute t string\n@attribute c {pos,neg}\n@data\n{2 x}\n{1 y}\n"
        )
        with pytest.raises(ArffError, match="omits string attribute 's'") as info:
            parse_arff(text)
        assert info.value.line == 7

    def test_arity_error_reports_line(self):
        with pytest.raises(ArffError) as exc:
            parse_arff(MINIMAL + "1,pos,extra\n")
        assert exc.value.line == 6

    def test_undeclared_nominal_value(self):
        with pytest.raises(ArffError, match="not declared"):
            parse_arff(MINIMAL.replace("1,pos", "1,meh"))

    def test_non_finite_numeric_rejected(self):
        with pytest.raises(ArffError):
            parse_arff(MINIMAL.replace("1,pos", "inf,pos"))

    def test_invalid_utf8_bytes(self):
        with pytest.raises(ArffError, match="UTF-8"):
            parse_arff(b"@relation r\n@attribute a numeric\xff\n@data\n")

    def test_comments_ignored(self):
        d = parse_arff("% c\n" + MINIMAL + "% tail\n")
        assert len(d.instances) == 1

    def test_class_index_is_last_nominal(self):
        d = parse_arff(
            "@relation r\n@attribute k {a,b}\n@attribute x numeric\n@data\na,1\n"
        )
        assert d.class_index == 0

    def test_no_nominal_attribute_means_no_class(self):
        d = parse_arff("@relation r\n@attribute x numeric\n@data\n1\n")
        assert d.class_index is None


class TestDatasetChecks:
    ATTRS = (
        AttributeDecl("a", "numeric"),
        AttributeDecl("b", "numeric"),
        AttributeDecl("t", "string"),
        AttributeDecl("c", "nominal", ("neg", "pos")),
    )

    def make(self, *rows):
        return Dataset("r", self.ATTRS, tuple(rows), 3)

    @pytest.mark.parametrize("bad", [1, True, float("nan"), float("inf"), float("-inf")])
    def test_non_float_or_non_finite_numeric_rejected(self, bad):
        ok = (0.5, 1.0, "x", "pos")
        with pytest.raises(ValueError, match="^non-finite numeric value in 'b'$"):
            self.make(ok, (0.5, bad, "x", "neg"))

    def test_undeclared_nominal_rejected(self):
        with pytest.raises(ValueError, match="^undeclared nominal value 'meh' for 'c'$"):
            self.make((0.5, 1.0, "x", "meh"))

    def test_first_bad_cell_of_a_row_is_named(self):
        with pytest.raises(ValueError, match="^non-finite numeric value in 'a'$"):
            self.make((float("nan"), 1, "x", "meh"))

    def test_missing_values_accepted(self):
        d = self.make((MISSING, 1.0, MISSING, "neg"), (0.0, 2.0, "y", MISSING))
        assert d.has_missing()

    def test_finite_values_whose_sum_overflows_accepted(self):
        d = self.make((1e308, 1e308, "x", "pos"), (-1e308, -1e308, "y", "neg"))
        assert len(d.instances) == 2

    def test_first_bad_row_is_named(self):
        # a missing value, then a bad cell, then a short row
        rows = ((MISSING, 1.0, "x", "pos"), (0.5, 1.0, "x", "meh"), (0.5, 1.0, "x"))
        with pytest.raises(ValueError, match="^undeclared nominal value 'meh' for 'c'$"):
            self.make(*rows)

    def test_short_row_rejected(self):
        with pytest.raises(ValueError, match="^row has 3 values for 4 attributes$"):
            self.make((0.5, 1.0, "x"))

    def test_single_numeric_column(self):
        attrs = (AttributeDecl("a", "numeric"), AttributeDecl("c", "nominal", ("n", "p")))
        Dataset("r", attrs, ((1.0, "n"), (MISSING, "p")), 1)
        with pytest.raises(ValueError, match="^non-finite numeric value in 'a'$"):
            Dataset("r", attrs, ((1.0, "n"), (float("inf"), "p")), 1)


class TestWrite:
    def test_round_trip_minimal(self):
        d = parse_arff(MINIMAL)
        assert parse_arff(write_arff(d)) == d

    def test_empty_instance_list(self):
        d = Dataset("e", (AttributeDecl("a", "numeric"),), ())
        assert write_arff(d) == "@relation e\n@attribute a numeric\n@data\n"

    def test_value_with_space_is_quoted_once(self):
        d = Dataset("s", (AttributeDecl("t", "string"),), (("acha hai",),))
        text = write_arff(d)
        assert "'acha hai'" in text
        assert parse_arff(text).instances == (("acha hai",),)

    def test_sparse_writing_round_trips(self):
        d = parse_arff(MINIMAL)
        assert parse_arff(write_arff(d, sparse=True)) == d

    def test_newlines_survive_quoting(self):
        d = Dataset("nl", (AttributeDecl("t", "string"),), (("line one\nline two\n",),))
        assert parse_arff(write_arff(d)) == d


class TestGoldenFiles:
    def test_twenty_golden_files_exist(self):
        assert len(glob.glob(os.path.join(GOLDEN_DIR, "*.arff"))) == 20

    @pytest.mark.parametrize(
        "path", sorted(glob.glob(os.path.join(GOLDEN_DIR, "*.arff"))),
        ids=lambda p: os.path.basename(p),
    )
    def test_round_trip_and_byte_stability(self, path):
        with open(path, "rb") as fh:
            original = parse_arff(fh.read())
        text = write_arff(original)
        assert parse_arff(text) == original
        assert write_arff(parse_arff(text)) == text


def golden_mutants():
    """(name, text) for six edits of every line of every golden file: the
    line dropped, cut at half its length, doubled, with ",nan" appended,
    with "{" prefixed, and with "'" appended. The lines are those of
    text.split("\\n"), so the empty one after the final newline counts."""
    for path in sorted(glob.glob(os.path.join(GOLDEN_DIR, "*.arff"))):
        with open(path, "rb") as fh:
            lines = fh.read().decode("utf-8").split("\n")
        for i, line in enumerate(lines):
            edits = {
                "drop": [],
                "cut": [line[: len(line) // 2]],
                "duplicate": [line, line],
                "nan": [line + ",nan"],
                "brace": ["{" + line],
                "quote": [line + "'"],
            }
            for edit, new in edits.items():
                name = f"{os.path.basename(path)} line {i + 1} {edit}"
                yield name, "\n".join(lines[:i] + new + lines[i + 1:])


class TestGoldenMutants:
    def test_every_mutant_parses_or_raises_arff_error(self):
        count = 0
        for name, text in golden_mutants():
            count += 1
            try:
                parse_arff(text)
            except ArffError:
                pass
        assert count == 1008

    def test_evaluate_on_a_mutant_exits_0_or_2(self, tmp_path, capsys):
        # a model over one numeric feature, the schema of most golden files
        model = tmp_path / "one.model"
        train_dtree(make_matrix([[0.0], [1.0], [2.0]], ["p", "n", "p"], ("p", "n"))).save(model)
        test = tmp_path / "mutant.arff"
        for name, text in list(golden_mutants())[::25]:
            test.write_text(text, encoding="utf-8", newline="")
            code = main(["evaluate", "--model", str(model), "--test", str(test)])
            assert code in (0, 2), (name, capsys.readouterr().err)
            capsys.readouterr()


# strategy for arbitrary valid datasets, used by the round-trip property
_name = st.text(min_size=1, max_size=8).filter(lambda s: "\x00" not in s)
_value_text = st.text(max_size=10).filter(lambda s: "\x00" not in s)
_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def datasets(draw):
    n_attrs = draw(st.integers(1, 4))
    names = draw(
        st.lists(_name, min_size=n_attrs, max_size=n_attrs, unique=True)
    )
    attrs = []
    for name in names:
        kind = draw(st.sampled_from(["numeric", "nominal", "string"]))
        if kind == "nominal":
            values = draw(st.lists(_value_text, min_size=1, max_size=3, unique=True))
            attrs.append(AttributeDecl(name, kind, tuple(values)))
        else:
            attrs.append(AttributeDecl(name, kind))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        row = []
        for a in attrs:
            if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
                row.append(MISSING)
            elif a.kind == "numeric":
                row.append(draw(_finite))
            elif a.kind == "nominal":
                row.append(draw(st.sampled_from(list(a.values))))
            else:
                row.append(draw(_value_text))
        rows.append(tuple(row))
    nominal_idx = [i for i, a in enumerate(attrs) if a.kind == "nominal"]
    class_index = nominal_idx[-1] if nominal_idx else None
    return Dataset(draw(_name), tuple(attrs), tuple(rows), class_index)


class TestProperties:
    @given(datasets())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_any_valid_dataset(self, d):
        assert parse_arff(write_arff(d)) == d

    @given(datasets())
    @settings(max_examples=60, deadline=None)
    def test_sparse_round_trip_any_valid_dataset(self, d):
        assert parse_arff(write_arff(d, sparse=True)) == d

    @given(st.text(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_parser_total_on_text(self, s):
        try:
            parse_arff(s)
        except ArffError:
            pass

    @given(st.binary(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_parser_total_on_bytes(self, b):
        try:
            parse_arff(b)
        except ArffError:
            pass


class TestTextDirectoryLoader:
    def _make(self, tmp_path, layout):
        for cls, files in layout.items():
            (tmp_path / cls).mkdir()
            for fname, text in files.items():
                (tmp_path / cls / fname).write_text(text, encoding="utf-8")

    def test_one_file_per_class(self, tmp_path):
        self._make(tmp_path, {
            "pos": {"a.txt": "gari achi hai"},
            "neg": {"b.txt": "engine kharab hai"},
        })
        d = load_text_directory(tmp_path)
        assert d.attributes[0].kind == "string"
        assert d.class_index == 1
        assert d.class_values == ("neg", "pos")  # sorted directory names
        assert sorted(row[1] for row in d.instances) == ["neg", "pos"]
        assert ("gari achi hai", "pos") in d.instances

    def test_empty_class_dir_still_declared(self, tmp_path):
        self._make(tmp_path, {"pos": {"a.txt": "acha"}, "neg": {}})
        d = load_text_directory(tmp_path)
        assert d.class_values == ("neg", "pos")
        assert len(d.instances) == 1

    def test_no_subdirectories_is_error(self, tmp_path):
        with pytest.raises(CorpusError):
            load_text_directory(tmp_path)

    def test_no_files_anywhere_is_error(self, tmp_path):
        self._make(tmp_path, {"pos": {}, "neg": {}})
        with pytest.raises(CorpusError):
            load_text_directory(tmp_path)

    def test_missing_root_is_error(self, tmp_path):
        with pytest.raises(CorpusError):
            load_text_directory(tmp_path / "nope")

    def test_content_stored_verbatim(self, tmp_path):
        self._make(tmp_path, {"pos": {"a.txt": "Acha Hai!\n"}})
        d = load_text_directory(tmp_path)
        assert d.instances[0][0] == "Acha Hai!\n"
