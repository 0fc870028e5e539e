import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rusent.arff import AttributeDecl, Dataset
from rusent.corpus import (
    SplitSpec,
    StopWordList,
    lowercase,
    remove_stopwords,
    split,
    tokenize,
)
from rusent.errors import ConfigError, CorpusError


def labeled_dataset(labels, class_values=("neg", "pos")):
    attrs = (
        AttributeDecl("x", "numeric"),
        AttributeDecl("class", "nominal", tuple(class_values)),
    )
    rows = tuple((float(i), label) for i, label in enumerate(labels))
    return Dataset("d", attrs, rows, 1)


class TestTokenize:
    def test_paper_style_review(self):
        assert tokenize("Honda cars ka AC bohot acha hai") == [
            "Honda", "cars", "ka", "AC", "bohot", "acha", "hai",
        ]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_punctuation_runs_collapse(self):
        assert tokenize("gari,achi. hai!") == ["gari", "achi", "hai"]


class TestLowercase:
    def test_mixed_case(self):
        assert lowercase(["AC", "Bohot"]) == ["ac", "bohot"]

    def test_empty(self):
        assert lowercase([]) == []

    def test_all_caps(self):
        assert lowercase(["MEHNGY"]) == ["mehngy"]


class TestStopwords:
    def test_filter_preserves_order(self):
        stops = StopWordList(frozenset({"ka", "hai"}))
        assert remove_stopwords(["gari", "ka", "engine", "hai"], stops) == ["gari", "engine"]

    def test_all_stopwords(self):
        stops = StopWordList(frozenset({"ka", "hai"}))
        assert remove_stopwords(["ka", "hai"], stops) == []

    def test_empty_stoplist_is_identity(self):
        tokens = ["gari", "ka"]
        assert remove_stopwords(tokens, StopWordList()) == tokens

    def test_idempotent(self):
        stops = StopWordList(frozenset({"ka"}))
        once = remove_stopwords(["gari", "ka", "hai"], stops)
        assert remove_stopwords(once, stops) == once

    def test_uppercase_entry_rejected(self):
        with pytest.raises(ConfigError):
            StopWordList(frozenset({"Ka"}))

    def test_file_format(self, tmp_path):
        f = tmp_path / "stops.txt"
        f.write_text("# comment\nka\n\nHAI  # trailing\n", encoding="utf-8")
        stops = StopWordList.from_file(f)
        assert stops.words == frozenset({"ka", "hai"})

    def test_file_lines_break_at_line_feeds_only(self, tmp_path):
        # as read in text mode: "\r\n" ends a line, "\x0b" and U+2028 do not
        f = tmp_path / "stops.txt"
        f.write_bytes("ka\x0bhai\r\nse\u2028ko\n".encode("utf-8"))
        assert StopWordList.from_file(f).words == frozenset({"ka\x0bhai", "se\u2028ko"})

    def test_bundled_default_loads(self):
        stops = StopWordList.default()
        assert "ka" in stops.words
        assert all(w == w.lower() and w for w in stops.words)


class TestSplit:
    def test_paper_scale_stratified_counts(self):
        d = labeled_dataset(["pos"] * 1000 + ["neg"] * 1000)
        train, test = split(d, SplitSpec(0.8, stratified=True, seed=1))
        def count(ds, label):
            return sum(1 for r in ds.instances if r[1] == label)
        assert count(train, "pos") == 800 and count(train, "neg") == 800
        assert count(test, "pos") == 200 and count(test, "neg") == 200

    def test_minimal_stratified_split(self):
        d = labeled_dataset(["pos", "neg"])
        train, test = split(d, SplitSpec(0.5, stratified=True, seed=0))
        assert len(train.instances) == 1 and len(test.instances) == 1

    def test_deterministic_for_seed(self):
        d = labeled_dataset(["pos", "neg"] * 20)
        a = split(d, SplitSpec(0.7, seed=99))
        b = split(d, SplitSpec(0.7, seed=99))
        assert a == b

    def test_zero_instance_class_errors(self):
        d = labeled_dataset(["pos", "pos"])
        with pytest.raises(CorpusError):
            split(d, SplitSpec(0.5, stratified=True, seed=0))

    def test_bad_fraction_rejected(self):
        with pytest.raises(ConfigError):
            SplitSpec(1.0)

    def test_unstratified_sizes(self):
        d = labeled_dataset(["pos", "neg"] * 10)
        train, test = split(d, SplitSpec(0.8, stratified=False, seed=3))
        assert len(train.instances) == 16 and len(test.instances) == 4


class TestProperties:
    @given(st.text(max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_tokenize_commutes_with_lowercase(self, text):
        assert lowercase(tokenize(text)) == tokenize(text.lower())

    @given(
        st.lists(st.sampled_from(["pos", "neg"]), min_size=4, max_size=60).filter(
            lambda ls: "pos" in ls and "neg" in ls
        ),
        st.floats(min_value=0.1, max_value=0.9),
        st.integers(0, 2**32),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_split_partitions(self, labels, fraction, seed, stratified):
        d = labeled_dataset(labels)
        train, test = split(d, SplitSpec(fraction, stratified=stratified, seed=seed))
        combined = sorted(train.instances + test.instances)
        assert combined == sorted(d.instances)
        assert not set(train.instances) & set(test.instances)
        if stratified:
            for label in ("pos", "neg"):
                n_c = sum(1 for l in labels if l == label)
                got = sum(1 for r in train.instances if r[1] == label)
                assert abs(got - fraction * n_c) <= 1.0
