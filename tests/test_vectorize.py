import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rusent.arff import AttributeDecl, Dataset, parse_arff, write_arff
from rusent.corpus import StopWordList
from rusent.errors import ConfigError, VectorizeError
from rusent.vectorize import (
    FeatureMatrix,
    fit,
    matrix_from_dataset,
    to_arff,
    transform,
)


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
        out = to_arff(space, transform(space, d))
        assert len(out.attributes) == 4
        assert out.class_index == 3
        assert len(out.instances) == 2

    def test_empty_matrix(self):
        d = text_dataset([("gari achi", "pos"), ("x", "neg")])
        space = fit(d)
        matrix = FeatureMatrix(np.zeros((0, space.width)), [], space.class_values)
        out = to_arff(space, matrix)
        assert len(out.attributes) == space.width + 1
        assert out.instances == ()

    def test_round_trip_preserves_weights(self):
        d = text_dataset([("gari gari achi hai", "pos"), ("bakwas engine", "neg")])
        space = fit(d, weighting="tfidf")
        matrix = transform(space, d)
        reparsed = parse_arff(write_arff(to_arff(space, matrix)))
        back = matrix_from_dataset(reparsed)
        assert back.rows.tolist() == matrix.rows.tolist()
        assert back.labels == matrix.labels


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
