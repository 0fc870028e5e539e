import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rusent.arff import AttributeDecl, Dataset, parse_arff
from rusent.corpus import StopWordList
from rusent.errors import ConfigError, VectorizeError
from rusent.vectorize import (
    FeatureMatrix,
    VectorSpace,
    _read_sparse,
    fit,
    matrix_from_dataset,
    read_matrix,
    to_arff,
    transform,
)

from conftest import full_read, read_outcome, write_sparse_arff
from test_arff import line_mutants


def text_dataset(docs, class_values=("neg", "pos")):
    attrs = (
        AttributeDecl("text", "string"),
        AttributeDecl("class", "nominal", tuple(class_values)),
    )
    return Dataset("docs", attrs, tuple(docs), 1)


class TestFit:
    def test_vocabulary_sorted(self):
        d = text_dataset([("gari achi", "pos"), ("gari kharab", "neg")])
        space = fit(d)
        assert space.vocabulary == ("achi", "gari", "kharab")

    def test_all_stopwords_is_empty_vocab_error(self):
        d = text_dataset([("ka hai", "pos"), ("x", "neg")], ("neg", "pos"))
        stops = StopWordList(frozenset({"ka", "hai", "x"}))
        with pytest.raises(VectorizeError):
            fit(d, stopwords=stops)

    def test_fit_deterministic(self):
        d = text_dataset([("gari achi hai", "pos"), ("bakwas gari", "neg")])
        assert fit(d, weighting="tfidf") == fit(d, weighting="tfidf")

    def test_fit_independent_of_document_order(self):
        docs = [("gari achi", "pos"), ("engine kharab", "neg"), ("achi seat", "pos")]
        a = fit(text_dataset(docs))
        b = fit(text_dataset(list(reversed(docs))))
        assert a.vocabulary == b.vocabulary

    def test_min_term_freq_prunes(self):
        d = text_dataset([("gari gari achi", "pos"), ("gari kharab", "neg")])
        space = fit(d, min_term_freq=2)
        assert space.vocabulary == ("gari",)

    def test_vocabulary_is_lowercased(self):
        d = text_dataset([("Gari ACHI", "pos"), ("x", "neg")])
        assert fit(d).vocabulary == ("achi", "gari", "x")

    def test_bad_weighting_rejected(self):
        d = text_dataset([("gari", "pos"), ("x", "neg")])
        with pytest.raises(ConfigError):
            fit(d, weighting="log")

    def test_term_named_like_the_class_attribute_rejected(self):
        d = text_dataset([("world class gari", "pos"), ("bekar gari", "neg")])
        with pytest.raises(VectorizeError, match="'class'.*--stopwords"):
            fit(d)
        stops = StopWordList(frozenset({"class"}))
        assert "class" not in fit(d, stopwords=stops).vocabulary

    def test_two_string_attributes_rejected(self):
        attrs = (
            AttributeDecl("a", "string"),
            AttributeDecl("b", "string"),
            AttributeDecl("class", "nominal", ("p", "n")),
        )
        d = Dataset("d", attrs, (), 2)
        with pytest.raises(VectorizeError):
            fit(d)


class TestTransform:
    def fitted(self):
        return fit(text_dataset([("gari achi", "pos"), ("gari kharab", "neg")]))

    def test_count_mode(self):
        space = self.fitted()
        m = transform(space, text_dataset([("gari gari achi", "pos")]))
        assert m.rows.tolist() == [[1.0, 2.0, 0.0]]

    def test_binary_mode(self):
        d = text_dataset([("gari achi", "pos"), ("gari kharab", "neg")])
        space = fit(d, weighting="binary")
        m = transform(space, text_dataset([("gari gari achi", "pos")]))
        assert m.rows.tolist() == [[1.0, 1.0, 0.0]]

    def test_fully_oov_doc_is_zero_vector(self):
        space = self.fitted()
        m = transform(space, text_dataset([("jahaaz tez", "pos")]))
        assert m.rows.tolist() == [[0.0, 0.0, 0.0]]

    def test_schema_mismatch_rejected(self):
        space = self.fitted()
        other = text_dataset([("gari", "up")], ("up", "down"))
        with pytest.raises(VectorizeError):
            transform(space, other)

    def test_tfidf_ubiquitous_term_weighs_zero(self):
        d = text_dataset([("gari achi", "pos"), ("gari kharab", "neg")])
        space = fit(d, weighting="tfidf")
        m = transform(space, d)
        gari = space.vocabulary.index("gari")
        achi = space.vocabulary.index("achi")
        assert np.all(m.rows[:, gari] == 0.0)
        assert m.rows[0, achi] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_training_transform_has_no_zero_column(self):
        d = text_dataset(
            [("gari achi hai", "pos"), ("engine kharab", "neg"), ("achi seat", "pos")]
        )
        space = fit(d)
        m = transform(space, d)
        assert np.all(m.rows.sum(axis=0) > 0)

    def test_count_monotone_in_duplication(self):
        space = self.fitted()
        base = transform(space, text_dataset([("gari achi", "pos")])).rows[0]
        more = transform(space, text_dataset([("gari achi gari", "pos")])).rows[0]
        diff = more - base
        assert diff.sum() == 1.0 and np.count_nonzero(diff) == 1


class TestToArff:
    def test_shape(self):
        d = text_dataset([("gari achi", "pos"), ("gari kharab", "neg")])
        space = fit(d)
        out = parse_arff(to_arff(space, transform(space, d)))
        assert len(out.attributes) == 4
        assert out.class_index == 3
        assert len(out.instances) == 2

    def test_empty_matrix(self):
        d = text_dataset([("gari achi", "pos"), ("x", "neg")])
        space = fit(d)
        matrix = FeatureMatrix(np.zeros((0, space.width)), [], space.class_values)
        out = parse_arff(to_arff(space, matrix))
        assert len(out.attributes) == space.width + 1
        assert out.instances == ()

    def test_round_trip_preserves_weights(self):
        d = text_dataset([("gari gari achi hai", "pos"), ("bakwas engine", "neg")])
        space = fit(d, weighting="tfidf")
        matrix = transform(space, d)
        reparsed = parse_arff(to_arff(space, matrix))
        back = matrix_from_dataset(reparsed)
        assert back.rows.tolist() == matrix.rows.tolist()
        assert back.labels == matrix.labels


# vectorized relations for the writer and reader properties: terms and
# class values that need quoting, and values at the edges of the doubles
_names = st.sampled_from(["gari", "achi", "a b", "?", "%x", "{", "x'y", "c,d", "é", "0"]) | (
    st.text(min_size=1, max_size=4).filter(lambda s: "\x00" not in s))
_edge_values = st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072e-308, 1e308, -1e308, 1.7976931348623157e308, -2.5, 1 / 3])
_cells = st.one_of(st.just(0.0), st.just(0.0), _edge_values,  # half the cells are zeros
                   st.floats(allow_nan=False, allow_infinity=False, width=64))


@st.composite
def vectorized(draw, classes=st.lists(_names, min_size=1, max_size=3, unique=True)):
    """(space, matrix) of up to 5 rows over up to 6 terms."""
    names = draw(st.lists(_names, min_size=1, max_size=7, unique=True))
    class_attr, terms = names[0], tuple(names[1:])
    class_values = tuple(draw(classes))
    n = draw(st.integers(0, 5))
    rows = np.array(draw(st.lists(st.lists(_cells, min_size=len(terms), max_size=len(terms)),
                                  min_size=n, max_size=n)), dtype=np.float64).reshape(n, len(terms))
    labels = draw(st.lists(st.sampled_from(class_values), min_size=n, max_size=n))
    space = VectorSpace(terms, "count", 1, None, StopWordList(),
                        "text", class_attr, class_values)
    return space, FeatureMatrix(rows, labels, class_values)


class TestToArffText:
    @given(vectorized())
    @settings(max_examples=300)
    def test_equals_write_arff_of_the_same_relation(self, case):
        space, matrix = case
        attributes = tuple(AttributeDecl(t, "numeric") for t in space.vocabulary) + (
            AttributeDecl(space.class_attr, "nominal", space.class_values),)
        instances = tuple(tuple(float(v) for v in row) + (label,)
                          for row, label in zip(matrix.rows, matrix.labels))
        oracle = Dataset("vectorized", attributes, instances, space.width)
        assert to_arff(space, matrix) == write_sparse_arff(oracle)

    def test_negative_zero_is_omitted_and_edge_values_round_trip(self):
        space = VectorSpace(("a b", "?"), "count", 1, None, StopWordList(),
                            "text", "class", ("neg", "pos x"))
        rows = [[-0.0, 5e-324], [-1e308, 0.0]]
        text = to_arff(space, FeatureMatrix(rows, ["pos x", "neg"], space.class_values))
        assert text.endswith("@data\n{1 5e-324,2 'pos x'}\n{0 -1e+308}\n")
        assert "@attribute 'a b' numeric\n@attribute '?' numeric\n" in text


class TestFeatureMatrix:
    def test_y_indexes_each_label_among_the_class_values(self):
        matrix = FeatureMatrix(np.zeros((3, 1)), ["pos", "neg", "pos"], ("neg", "pos"))
        assert matrix.y.dtype == np.intp and matrix.y.tolist() == [1, 0, 1]
        assert not matrix.y.flags.writeable

    def test_an_undeclared_label_is_rejected_at_construction(self):
        with pytest.raises(VectorizeError, match="'typo' not among class values"):
            FeatureMatrix(np.zeros((2, 1)), ["neg", "typo"], ("neg", "pos"))


class TestNonzeros:
    @given(vectorized())
    @settings(max_examples=200)
    def test_is_the_np_nonzero_triple(self, case):
        # in column order: by column, then value, ties in np.nonzero's row order
        matrix = case[1]
        rows, cols = np.nonzero(matrix.rows)
        values = matrix.rows[rows, cols]
        order = np.lexsort((values, cols))
        for got, want in zip(matrix.columns, (rows[order], cols[order], values[order]),
                             strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_drops_both_zeros_and_keeps_negative_values(self):
        matrix = FeatureMatrix([[0.0, -0.0, -2.5], [3.0, -0.0, 0.0], [-0.0, 0.0, -2.5]],
                               ["neg", "pos", "neg"], ("neg", "pos"))
        rows, cols, values = matrix.columns
        assert (rows.tolist(), cols.tolist(), values.tolist()) == (
            [1, 0, 2], [0, 2, 2], [3.0, -2.5, -2.5])

    def test_a_second_access_returns_the_same_object(self):
        matrix = FeatureMatrix([[1.0, 0.0]], ["pos"], ("neg", "pos"))
        assert matrix.columns is matrix.columns


def _entries(text):
    """(line number, entries) of every non-empty data row."""
    lines = text.split("\n")
    start = lines.index("@data") + 1
    return [(i, lines[i][1:-1].split(",")) for i in range(start, len(lines))
            if lines[i].startswith("{") and len(lines[i]) > 2]


def _edit_row(text, pick, edit):
    """text with one data row's entries replaced by edit(entries), or
    text itself when it has no non-empty row."""
    rows = _entries(text)
    if not rows:
        return text
    i, entries = rows[pick % len(rows)]
    lines = text.split("\n")
    lines[i] = "{" + ",".join(edit(entries)) + "}"
    return "\n".join(lines)


def _set_value(text, pick, value):
    return _edit_row(text, pick, lambda e: [e[0].split(" ")[0] + " " + value] + e[1:])


def _insert_data_line(text, pick, line):
    lines = text.split("\n")
    at = lines.index("@data") + 1 + pick % (len(lines) - lines.index("@data"))
    return "\n".join(lines[:at] + [line] + lines[at:])


def _edit_header(text, edit):
    """text with its lines before `@data` replaced by edit(lines): the
    relation line, the term lines, then the class line."""
    lines = text.split("\n")
    at = lines.index("@data")
    return "\n".join(edit(lines[:at]) + lines[at:])


def _repeat_attribute(header, k):
    """header with one of its attribute lines written twice."""
    i = 1 + k % (len(header) - 1)
    return header[:i + 1] + header[i:]


def _term_named_like_the_class(header):
    """header with a first term named like the class attribute, when that
    name is unquoted: read_matrix reads the term by regex and the class
    through parse_arff, so only its own name check sees the clash."""
    name = header[-1][len("@attribute "):].split(" ", 1)[0]
    if name.startswith("'"):
        return header
    return header[:1] + [f"@attribute {name} numeric"] + header[1:]


MUTATIONS = {
    "none": lambda t, k: t,
    "nan": lambda t, k: _set_value(t, k, "nan"),
    "inf": lambda t, k: _set_value(t, k, "-inf"),
    "overflow": lambda t, k: _set_value(t, k, "1e400"),
    "missing": lambda t, k: _set_value(t, k, "?"),
    "quoted": lambda t, k: _set_value(t, k, "'1.5'"),
    "underscore": lambda t, k: _set_value(t, k, "1_0.5"),
    "not a number": lambda t, k: _set_value(t, k, "1e"),
    "crlf": lambda t, k: t.replace("\n", "\r\n"),
    "blank line": lambda t, k: _insert_data_line(t, k, ""),
    "comment line": lambda t, k: _insert_data_line(t, k, "% note"),
    "empty row": lambda t, k: _insert_data_line(t, k, "{}"),
    "dense row": lambda t, k: _insert_data_line(t, k, "0"),
    "reversed": lambda t, k: _edit_row(t, k, lambda e: e[::-1]),
    "duplicate": lambda t, k: _edit_row(t, k, lambda e: e + e[-1:]),
    "class first": lambda t, k: _edit_row(t, k, lambda e: e[-1:] + e[:-1]),
    "out of range": lambda t, k: _edit_row(
        t, k, lambda e: e + [f"{t.count('@attribute')} 1"]),
    "huge index": lambda t, k: _edit_row(t, k, lambda e: ["99999999999999999999 1"] + e),
    "padded": lambda t, k: _edit_row(t, k, lambda e: [" " + e[0]] + e[1:]),
    "tab": lambda t, k: _edit_row(t, k, lambda e: [e[0].replace(" ", "\t", 1)] + e[1:]),
    "undeclared class": lambda t, k: _edit_row(
        t, k, lambda e: e + [f"{t.count('@attribute') - 1} nope"]),
    "space in value": lambda t, k: _set_value(t, k, "1 5"),
    "trailing space": lambda t, k: _edit_row(t, k, lambda e: e[:-1] + [e[-1] + " "]),
    "missing class": lambda t, k: _edit_row(
        t, k, lambda e: e + [f"{t.count('@attribute') - 1} ?"]),
    "nominal feature": lambda t, k: t.replace(" numeric\n", " {x,y}\n", 1),
    "string feature": lambda t, k: t.replace(" numeric\n", " string\n", 1),
    "class after class": lambda t, k: t.replace("@data\n", "@attribute zz numeric\n@data\n", 1),
    "upper data": lambda t, k: t.replace("\n@data\n", "\n@DATA\n", 1),
    "repeated attribute": lambda t, k: _edit_header(t, lambda h: _repeat_attribute(h, k)),
    "term named like the class": lambda t, k: _edit_header(t, _term_named_like_the_class),
    "relation after the terms": lambda t, k: _edit_header(
        t, lambda h: ["% note"] + h[1:-1] + h[:1] + h[-1:]),
    "tab in a name": lambda t, k: t.replace(" numeric\n", "\tx numeric\n", 1),
    # the name reads back without the empty quoted part: a duplicate
    "quoted twin": lambda t, k: _edit_header(
        t, lambda h: h[:2] + [h[1].replace(" numeric", "'' numeric")] + h[2:]),
    "no final newline": lambda t, k: t[:-1],
    "truncated": lambda t, k: t[: len(t) - 1 - k % 7],
}


SMALL = (
    VectorSpace(("achi", "gari", "kharab"), "count", 1, None, StopWordList(),
                "text", "class", ("neg", "pos")),
    FeatureMatrix([[1.0, 2.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]], ["pos", "neg", "pos"],
                  ("neg", "pos")),
)


class TestReadMatrix:
    @given(vectorized(), st.sampled_from(sorted(MUTATIONS)), st.integers(0, 50), st.booleans())
    @settings(max_examples=600)
    def test_agrees_with_parse_arff_and_matrix_from_dataset(self, case, mutation, pick, as_bytes):
        text = MUTATIONS[mutation](to_arff(*case), pick)
        source = text.encode("utf-8") if as_bytes else text
        assert read_outcome(read_matrix, source) == read_outcome(full_read, source)

    @given(vectorized(), st.integers(0, 10_000))
    @settings(max_examples=100)
    def test_invalid_utf8_agrees(self, case, pick):
        data = to_arff(*case).encode("utf-8")
        at = pick % (len(data) + 1)
        source = data[:at] + b"\xff" + data[at:]
        assert read_outcome(read_matrix, source) == read_outcome(full_read, source)

    @given(vectorized(classes=st.lists(st.sampled_from(["neg", "pos", "mixed", "0"]),
                                       min_size=1, max_size=3, unique=True)))
    @settings(max_examples=100)
    def test_the_writers_text_is_read_without_the_full_path(self, case):
        # every class value is written unquoted, so to_arff's text is in the subset
        text = to_arff(*case)
        assert _read_sparse(text) is not None
        assert read_outcome(_read_sparse, text) == read_outcome(full_read, text)

    def test_line_mutants_of_a_written_file_agree(self):
        for name, text in line_mutants("written", to_arff(*SMALL)):
            assert read_outcome(read_matrix, text) == read_outcome(full_read, text), name

    def test_an_unquoted_question_mark_is_a_missing_class(self):
        text = "@relation r\n@attribute x numeric\n@attribute c {'?',b}\n@data\n{0 1,1 ?}\n"
        assert _read_sparse(text) is None
        with pytest.raises(VectorizeError, match="missing values"):
            read_matrix(text)

    def test_a_data_line_that_reads_like_the_declaration_is_a_row(self):
        # the first "@data" line is a row here: @DATA opened the section
        text = "@relation r\n@attribute c {'@data',b}\n@DATA\n@data\n{0 b}\n"
        assert _read_sparse(text) is None
        assert read_matrix(text).labels == ["@data", "b"]

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_each_mutation_agrees_on_a_small_file(self, mutation):
        text = MUTATIONS[mutation](to_arff(*SMALL), 1)
        assert read_outcome(read_matrix, text) == read_outcome(full_read, text)
        if mutation == "none":
            assert _read_sparse(text) is not None
            assert read_matrix(text).rows.tolist() == SMALL[1].rows.tolist()


class TestMatrixFromDataset:
    def test_missing_values_rejected(self):
        d = parse_arff(
            "@relation r\n@attribute a numeric\n@attribute c {p,n}\n@data\n?,p\n"
        )
        with pytest.raises(VectorizeError):
            matrix_from_dataset(d)

    def test_missing_class_value_rejected(self):
        d = parse_arff(
            "@relation r\n@attribute c {p,n}\n@attribute a numeric\n@data\n?,1\n"
        )
        with pytest.raises(VectorizeError, match="missing values"):
            matrix_from_dataset(d)

    def test_string_attribute_rejected(self):
        d = parse_arff(
            "@relation r\n@attribute t string\n@attribute c {p,n}\n@data\nhi,p\n"
        )
        with pytest.raises(VectorizeError):
            matrix_from_dataset(d)

    def test_class_attribute_not_last(self):
        d = parse_arff(
            "@relation r\n@attribute a numeric\n@attribute c {p,n}\n"
            "@attribute b numeric\n@attribute z numeric\n@data\n"
            "1.5,n,-2,0\n{0 3,2 4.25}\n0,p,0,1e-300\n"
        )
        m = matrix_from_dataset(d)
        assert m.rows.dtype == np.float64 and m.rows.flags.c_contiguous
        assert m.rows.tolist() == [[1.5, -2.0, 0.0], [3.0, 4.25, 0.0], [0.0, 0.0, 1e-300]]
        assert m.labels == ["n", "p", "p"]
        assert m.class_values == ("p", "n")

    def test_zero_instances(self):
        d = parse_arff(
            "@relation r\n@attribute a numeric\n@attribute b numeric\n"
            "@attribute c {p,n}\n@data\n"
        )
        m = matrix_from_dataset(d)
        assert m.rows.shape == (0, 2)
        assert m.labels == []


words = st.lists(st.sampled_from(["gari", "achi", "kharab", "hai", "engine"]),
                 min_size=1, max_size=6).map(" ".join)


class TestProperties:
    @given(st.lists(st.tuples(words, st.sampled_from(["pos", "neg"])),
                    min_size=1, max_size=8),
           st.sampled_from(["binary", "count", "tfidf"]))
    @settings(max_examples=60, deadline=None)
    def test_transform_of_training_data_is_finite_nonnegative(self, docs, weighting):
        d = text_dataset(docs)
        space = fit(d, weighting=weighting)
        m = transform(space, d)
        assert np.all(np.isfinite(m.rows))
        assert np.all(m.rows >= 0.0)
        if weighting != "tfidf":  # tfidf zeroes terms occurring in every doc
            assert np.all(m.rows.sum(axis=0) > 0)  # no all-zero column
