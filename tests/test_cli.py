import contextlib
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import tempfile
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rusent.arff import parse_arff
from rusent.classifiers import ALGORITHMS, train_dtree, train_knn, train_mnb
from rusent.cli import main
from rusent.synth import generate_corpus

from conftest import make_matrix


@pytest.fixture
def corpus_dir(tmp_path):
    root = tmp_path / "corpus"
    generate_corpus(root, per_class=20, seed=0)
    return root


@pytest.fixture
def arff_paths(corpus_dir, tmp_path):
    """Raw-text train/test ARFFs derived from the synthetic corpus."""
    full = tmp_path / "full.arff"
    assert main(["convert", str(corpus_dir), str(full)]) == 0
    dataset = parse_arff(full.read_text(encoding="utf-8"))
    # simple 80/20 per-class holdout (instances arrive grouped by class)
    by_class = {"neg": [], "pos": []}
    for row in dataset.instances:
        by_class[row[1]].append(row)
    train_rows, test_rows = [], []
    for rows in by_class.values():
        cut = int(len(rows) * 0.8)
        train_rows += rows[:cut]
        test_rows += rows[cut:]
    from rusent.arff import Dataset, write_arff

    train_path, test_path = tmp_path / "train.arff", tmp_path / "test.arff"
    base = dataset
    train_path.write_text(
        write_arff(Dataset(base.relation_name, base.attributes, tuple(train_rows), 1)),
        encoding="utf-8",
    )
    test_path.write_text(
        write_arff(Dataset(base.relation_name, base.attributes, tuple(test_rows), 1)),
        encoding="utf-8",
    )
    return train_path, test_path


class TestConvert:
    def test_writes_arff_and_manifest(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "out.arff"
        assert main(["convert", str(corpus_dir), str(out)]) == 0
        dataset = parse_arff(out.read_text(encoding="utf-8"))
        assert len(dataset.instances) == 40
        manifest = json.loads((tmp_path / "out.arff.manifest.json").read_text())
        assert manifest["schema"] == "rusent-manifest/1"
        assert manifest["command"] == "convert"
        assert "wrote 40 instances" in capsys.readouterr().out

    def test_missing_directory_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["convert", "nope", "o.arff"]) == 2
        assert capsys.readouterr().err == "error: cannot read 'nope': No such file or directory\n"
        assert os.listdir(tmp_path) == []


class TestVectorize:
    def test_outputs(self, arff_paths, tmp_path):
        train, test = arff_paths
        out_train = tmp_path / "tr.arff"
        out_test = tmp_path / "te.arff"
        code = main([
            "vectorize", "--train", str(train), "--test", str(test),
            "--out-train", str(out_train), "--out-test", str(out_test),
        ])
        assert code == 0
        vec = parse_arff(out_train.read_text(encoding="utf-8"))
        assert vec.attributes[-1].kind == "nominal"
        assert all(a.kind == "numeric" for a in vec.attributes[:-1])
        vocab = (tmp_path / "tr.vocab.txt").read_text(encoding="utf-8").split()
        assert vocab == sorted(vocab)
        assert len(vocab) == len(vec.attributes) - 1

    def test_test_without_out_test_fails(self, arff_paths, tmp_path, capsys):
        train, test = arff_paths
        out = tmp_path / "out"
        out.mkdir()
        code = main([
            "vectorize", "--train", str(train), "--test", str(test),
            "--out-train", str(out / "tr.arff"),
        ])
        assert code == 1
        assert "--out-test" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("bad_test", ["missing", "other classes"])
    def test_a_bad_test_input_exits_2_and_writes_nothing(
            self, arff_paths, tmp_path, capsys, bad_test):
        train, _ = arff_paths
        test = tmp_path / "test-input.arff"
        if bad_test == "other classes":
            test.write_text("@relation r\n@attribute text string\n"
                            "@attribute class {bad,good}\n@data\n'gari achi',good\n",
                            encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        code = main(["vectorize", "--train", str(train), "--test", str(test),
                     "--out-train", str(out / "tr.arff"), "--out-test", str(out / "te.arff")])
        assert code == 2
        assert "error" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("command", ["vectorize", "compare"])
    @pytest.mark.parametrize("freq", ["0", "-2", "1.5", "x"])
    def test_min_term_freq_out_of_range_exits_1_before_reading(
            self, tmp_path, capsys, command, freq):
        # the inputs do not exist: the flag is refused while parsing, before
        # a read could fail with exit 2
        missing = str(tmp_path / "missing.arff")
        out = tmp_path / "out"
        out.mkdir()
        if command == "vectorize":
            argv = ["vectorize", "--train", missing, "--out-train", str(out / "x.arff")]
        else:
            argv = ["compare", "--train", missing, "--test", missing,
                    "--out-dir", str(out / "cmp")]
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--min-term-freq={freq}"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "argument --min-term-freq:" in err and "cannot read" not in err
        assert os.listdir(out) == []

    def test_rerun_is_byte_identical(self, arff_paths, tmp_path):
        train, _ = arff_paths
        a, b = tmp_path / "a.arff", tmp_path / "b.arff"
        for out in (a, b):
            assert main(["vectorize", "--train", str(train), "--out-train", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


RAW_WITH_CLASS_WORD = (
    "@relation r\n@attribute text string\n@attribute class {neg,pos}\n@data\n"
    "'world class gari',pos\n'bekar gari',neg\n"
)


class TestTermNamedLikeTheClass:
    def test_vectorize_exits_2_and_writes_nothing(self, tmp_path, capsys):
        train = tmp_path / "raw.arff"
        train.write_text(RAW_WITH_CLASS_WORD, encoding="utf-8")
        out = tmp_path / "vec.arff"
        code = main(["vectorize", "--train", str(train), "--test", str(train),
                     "--out-train", str(out), "--out-test", str(tmp_path / "te.arff")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'class'" in err and "--stopwords" in err
        assert os.listdir(tmp_path) == ["raw.arff"]

    def test_compare_exits_2_and_writes_no_file(self, tmp_path, capsys):
        train = tmp_path / "raw.arff"
        train.write_text(RAW_WITH_CLASS_WORD, encoding="utf-8")
        out_dir = tmp_path / "cmp"
        code = main(["compare", "--train", str(train), "--test", str(train),
                     "--out-dir", str(out_dir), "--algorithms", "mnb"])
        assert code == 2
        assert "--stopwords" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_a_stopwords_file_lets_the_term_go(self, tmp_path, capsys):
        train = tmp_path / "raw.arff"
        train.write_text(RAW_WITH_CLASS_WORD, encoding="utf-8")
        stops = tmp_path / "stops.txt"
        stops.write_text("class\n", encoding="utf-8")
        out = tmp_path / "vec.arff"
        assert main(["vectorize", "--train", str(train), "--out-train", str(out),
                     "--stopwords", str(stops)]) == 0
        assert main(["train", "--train", str(out), "--algorithm", "mnb",
                     "--model-out", str(tmp_path / "m.model")]) == 0


class TestTfidfZeroRows:
    def run(self, tmp_path, test_docs, weighting="tfidf"):
        train, test = tmp_path / "train.arff", tmp_path / "test.arff"
        head = "@relation r\n@attribute text string\n@attribute class {neg,pos}\n@data\n"
        train.write_text(head + "'gari acha',pos\n'gari bekar',neg\n", encoding="utf-8")
        test.write_text(head + test_docs, encoding="utf-8")
        return main(["vectorize", "--train", str(train), "--test", str(test),
                     "--out-train", str(tmp_path / "tr.arff"),
                     "--out-test", str(tmp_path / "te.arff"),
                     "--weighting", weighting, "--stopwords", "none"])

    def test_a_row_of_terms_in_every_training_document(self, tmp_path, capsys):
        assert self.run(tmp_path, "gari,pos\n") == 0
        err = capsys.readouterr().err
        assert "1 test instance(s) became all-zero rows" in err
        assert "every training document" in err
        assert "out-of-vocabulary" not in err

    def test_both_causes_are_counted_apart(self, tmp_path, capsys):
        assert self.run(tmp_path, "gari,pos\n'jahaz tez',neg\n'gari gari',neg\n") == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("warning: 2 test instance(s) became all-zero rows")
        assert lines[1].startswith("warning: 1 test instance(s) contain only out-of-vocabulary")

    @pytest.mark.parametrize("weighting", ["count", "tfidf"])
    def test_compare_warns_as_vectorize_does(self, tmp_path, capsys, weighting):
        test_docs = "gari,pos\n'zzz qqq',neg\n"
        assert self.run(tmp_path, test_docs, weighting) == 0
        warnings = capsys.readouterr().err
        assert "out-of-vocabulary" in warnings
        assert main(["compare", "--train", str(tmp_path / "train.arff"),
                     "--test", str(tmp_path / "test.arff"), "--out-dir", str(tmp_path / "cmp"),
                     "--algorithms", "mnb", "--weighting", weighting,
                     "--stopwords", "none"]) == 0
        assert capsys.readouterr().err == warnings


class TestClassValueWithALineBreak:
    @pytest.mark.parametrize("escape", ["\\r", "\\n"])
    def test_train_exits_2_and_writes_no_model(self, tmp_path, capsys, escape):
        train = tmp_path / "t.arff"
        train.write_text(
            f"@relation r\n@attribute x numeric\n@attribute class {{'a{escape}b',c}}\n"
            f"@data\n0,'a{escape}b'\n1,c\n",
            encoding="utf-8",
        )
        model = tmp_path / "m.model"
        code = main(["train", "--train", str(train), "--algorithm", "dtree",
                     "--model-out", str(model)])
        assert code == 2
        assert "line break" in capsys.readouterr().err
        assert not model.exists()


class TestTrainEvaluate:
    def vectorized(self, arff_paths, tmp_path):
        train, test = arff_paths
        out_train, out_test = tmp_path / "vtr.arff", tmp_path / "vte.arff"
        main(["vectorize", "--train", str(train), "--test", str(test),
              "--out-train", str(out_train), "--out-test", str(out_test)])
        return out_train, out_test

    def test_train_then_evaluate(self, arff_paths, tmp_path, capsys):
        vtr, vte = self.vectorized(arff_paths, tmp_path)
        model = tmp_path / "m.model"
        assert main(["train", "--train", str(vtr), "--algorithm", "mnb",
                     "--model-out", str(model)]) == 0
        out = capsys.readouterr().out
        assert "trained mnb" in out and "training accuracy" in out
        report = tmp_path / "report.json"
        assert main(["evaluate", "--model", str(model), "--test", str(vte),
                     "--report-out", str(report)]) == 0
        out = capsys.readouterr().out
        assert "classifier" in out and "mnb" in out
        payload = json.loads(report.read_text())
        assert payload["schema"] == "rusent-report/1"
        assert payload["reports"][0]["model"] == "mnb"

    def test_train_on_raw_text_exits_2(self, arff_paths, tmp_path, capsys):
        train, _ = arff_paths
        code = main(["train", "--train", str(train), "--algorithm", "mnb",
                     "--model-out", str(tmp_path / "m.model")])
        assert code == 2

    def test_diverged_svm_exits_2_and_writes_no_model(self, arff_paths, tmp_path, capsys):
        vtr, _ = self.vectorized(arff_paths, tmp_path)
        model = tmp_path / "svm.model"
        code = main(["train", "--train", str(vtr), "--algorithm", "svm",
                     "--svm-lambda", "1e-320", "--model-out", str(model)])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_an_empty_training_set_exits_2_with_one_message(self, tmp_path, capsys, algorithm):
        train, model = tmp_path / "empty.arff", tmp_path / "m.model"
        write_numeric_arff(train, 1)
        train.write_text(train.read_text(encoding="utf-8").split("@data\n")[0] + "@data\n",
                         encoding="utf-8")
        assert main(["train", "--train", str(train), "--algorithm", algorithm,
                     "--model-out", str(model)]) == 2
        assert capsys.readouterr().err == "error: cannot train on an empty training set\n"
        assert not model.exists()

    @pytest.mark.parametrize("algorithm, flag, value", [
        ("mnb", "--alpha", "nan"),
        ("mnb", "--alpha", "inf"),
        ("svm", "--svm-lambda", "inf"),
        ("mlp", "--learning-rate", "nan"),
        ("knn", "--minkowski-p", "nan"),
    ])
    def test_non_finite_hyperparameter_exits_2_before_training(
            self, arff_paths, tmp_path, capsys, algorithm, flag, value):
        # a usage error: argparse refuses the value before any input is read
        vtr, _ = self.vectorized(arff_paths, tmp_path)
        model = tmp_path / "m.model"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--train", str(vtr), "--algorithm", algorithm,
                  flag, value, "--model-out", str(model)])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert f"argument {flag}:" in captured.err and "trained" not in captured.out
        assert not model.exists() and not (tmp_path / "m.model.manifest.json").exists()

    def test_malformed_hidden_exits_1_and_writes_no_model(self, arff_paths, tmp_path, capsys):
        vtr, _ = self.vectorized(arff_paths, tmp_path)
        model = tmp_path / "m.model"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--train", str(vtr), "--algorithm", "mlp", "--hidden", "3,0",
                  "--model-out", str(model)])
        assert exc.value.code == 1
        assert "--hidden" in capsys.readouterr().err
        assert not model.exists() and not (tmp_path / "m.model.manifest.json").exists()

    def test_same_seed_models_byte_identical(self, arff_paths, tmp_path):
        vtr, _ = self.vectorized(arff_paths, tmp_path)
        a, b = tmp_path / "a.model", tmp_path / "b.model"
        for out in (a, b):
            assert main(["train", "--train", str(vtr), "--algorithm", "bagging",
                         "--seed", "42", "--model-out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestUnwritableOutput:
    """An output in a missing directory, or at a directory, exits 2 and
    leaves no temporary file."""

    @pytest.fixture
    def trained(self, arff_paths, tmp_path):
        vtr, vte = TestTrainEvaluate().vectorized(arff_paths, tmp_path)
        model = tmp_path / "m.model"
        assert main(["train", "--train", str(vtr), "--algorithm", "mnb",
                     "--model-out", str(model)]) == 0
        return vtr, vte, model

    def assert_exits_2(self, argv, target, tmp_path, capsys):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and str(target) in err
        assert list(tmp_path.rglob(".tmp-*")) == []

    def test_convert(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "nodir" / "c.arff"
        self.assert_exits_2(["convert", str(corpus_dir), str(out)], out, tmp_path, capsys)

    def test_vectorize(self, arff_paths, tmp_path, capsys):
        out = tmp_path / "nodir" / "x.arff"
        argv = ["vectorize", "--train", str(arff_paths[0]), "--out-train", str(out)]
        self.assert_exits_2(argv, out, tmp_path, capsys)

    def test_train(self, trained, tmp_path, capsys):
        out = tmp_path / "nodir" / "m.model"
        argv = ["train", "--train", str(trained[0]), "--algorithm", "mnb", "--model-out", str(out)]
        self.assert_exits_2(argv, out, tmp_path, capsys)

    def test_train_into_a_directory(self, trained, tmp_path, capsys):
        out = tmp_path / "adir"
        out.mkdir()
        argv = ["train", "--train", str(trained[0]), "--algorithm", "mnb", "--model-out", str(out)]
        self.assert_exits_2(argv, out, tmp_path, capsys)
        assert out.is_dir() and list(out.iterdir()) == []

    def test_evaluate(self, trained, tmp_path, capsys):
        _, vte, model = trained
        out = tmp_path / "nodir" / "r.json"
        argv = ["evaluate", "--model", str(model), "--test", str(vte), "--report-out", str(out)]
        self.assert_exits_2(argv, out, tmp_path, capsys)

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_compare_out_dir_at_or_under_a_file(self, arff_paths, tmp_path, capsys, sub):
        afile = tmp_path / "afile"
        afile.write_text("", encoding="utf-8")
        out = afile / sub if sub else afile
        argv = ["compare", "--train", str(arff_paths[0]), "--test", str(arff_paths[1]),
                "--out-dir", str(out), "--algorithms", "mnb"]
        self.assert_exits_2(argv, out, tmp_path, capsys)
        assert afile.read_text(encoding="utf-8") == ""

    def test_gen_corpus_under_a_file(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("", encoding="utf-8")
        argv = ["gen-corpus", "--out", str(afile), "--per-class", "2"]
        self.assert_exits_2(argv, afile, tmp_path, capsys)

    def test_gen_corpus_onto_a_directory(self, tmp_path, capsys):
        review = tmp_path / "c" / "neg" / "neg_00001.txt"
        review.mkdir(parents=True)
        argv = ["gen-corpus", "--out", str(tmp_path / "c"), "--per-class", "2"]
        self.assert_exits_2(argv, review, tmp_path, capsys)
        assert not (tmp_path / "c" / "manifest.json").exists()


class TestUndecodableInput:
    """An input file that is not UTF-8 exits 2, names the file and
    writes no output."""

    @pytest.mark.parametrize("corrupt", [
        lambda text: text + b"\xff",
        lambda text: text.replace(b"variant dtree", b"variant dtree\xff"),
    ], ids=["appended", "in-variant"])
    def test_evaluate_a_model_file(self, tmp_path, capsys, corrupt):
        from test_tree import chain_model_text

        model = tmp_path / "tree.model"
        model.write_bytes(corrupt(chain_model_text(3).encode()))
        test = tmp_path / "test.arff"
        test.write_text("@relation r\n@attribute x0 numeric\n@attribute class {neg,pos}\n"
                        "@data\n0,neg\n", encoding="utf-8")
        code = main(["evaluate", "--model", str(model), "--test", str(test),
                     "--report-out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(model) in err and "not valid UTF-8" in err
        assert sorted(os.listdir(tmp_path)) == ["test.arff", "tree.model"]

    def test_vectorize_stopwords(self, arff_paths, tmp_path, capsys):
        stops = tmp_path / "stops.bin"
        stops.write_bytes(b"gari\n\xff\xfe\n")
        out = tmp_path / "vec.arff"
        code = main(["vectorize", "--train", str(arff_paths[0]), "--out-train", str(out),
                     "--stopwords", str(stops)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(stops) in err and "not valid UTF-8" in err
        assert not out.exists() and not (tmp_path / "vec.vocab.txt").exists()


class TestUnreadableInput:
    """An input that cannot be read exits 2 with one message, which names
    the path and the reason."""

    @pytest.mark.parametrize("kind", ["arff", "model", "stop-word file", "corpus document",
                                      "class directory"])
    def test_exits_2_naming_the_path(self, arff_paths, tmp_path, capsys, monkeypatch, kind):
        missing = tmp_path / "nope"
        reason = "No such file or directory"
        if kind == "arff":
            argv = ["vectorize", "--train", str(missing), "--out-train", str(tmp_path / "v")]
        elif kind == "model":
            argv = ["evaluate", "--model", str(missing), "--test", str(arff_paths[1])]
        elif kind == "stop-word file":
            argv = ["vectorize", "--train", str(arff_paths[0]), "--out-train",
                    str(tmp_path / "v"), "--stopwords", str(missing)]
        elif kind == "corpus document":
            # a directory among a class's documents, taken for a file
            missing, reason = tmp_path / "corpus" / "pos" / "sub", "Is a directory"
            missing.mkdir(parents=True)
            isfile = os.path.isfile
            monkeypatch.setattr(os.path, "isfile", lambda path: path == str(missing) or isfile(path))
            argv = ["convert", str(tmp_path / "corpus"), str(tmp_path / "c.arff")]
        else:
            # root may list any directory whatever its mode, so the refusal is patched in
            missing, reason, listdir = tmp_path / "corpus" / "neg", "Permission denied", os.listdir

            def refusing_listdir(path):
                if os.fspath(path) == str(missing):
                    raise PermissionError(13, reason, path)
                return listdir(path)

            monkeypatch.setattr(os, "listdir", refusing_listdir)
            argv = ["convert", str(tmp_path / "corpus"), str(tmp_path / "c.arff")]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: cannot read {str(missing)!r}: {reason}\n"
        assert not (tmp_path / "v").exists() and not (tmp_path / "c.arff").exists()


class TestMalformedArffNamesItsFile:
    """An ARFF that fails to parse exits 2 with a message that begins with
    its path, so that of two inputs the bad one is known."""

    @pytest.mark.parametrize("bad, reason", [
        (b"'engine sust',typo\n",
         "line 6, column 15: value 'typo' not declared for nominal attribute 'class'"),
        (b"'engine \xff',neg\n", "input is not valid UTF-8: "),
    ], ids=["undeclared class", "not utf-8"])
    def test_compare(self, tmp_path, capsys, bad, reason):
        header = (b"@relation r\n@attribute text string\n@attribute class {neg,pos}\n@data\n"
                  b"'gari achi',pos\n")
        good, bad_path = tmp_path / "good.arff", tmp_path / "bad.arff"
        good.write_bytes(header)
        bad_path.write_bytes(header + bad)
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--train", str(good), "--test", str(bad_path),
                     "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {str(bad_path)!r}: {reason}") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_train_on_raw_text(self, arff_paths, tmp_path, capsys):
        model = tmp_path / "m.model"
        assert main(["train", "--train", str(arff_paths[0]), "--algorithm", "mnb",
                     "--model-out", str(model)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {str(arff_paths[0])!r}: ")
        assert not model.exists()

    def test_compare_names_the_input_it_cannot_use_as_features(self, arff_paths, tmp_path,
                                                               capsys):
        # a numeric train ARFF parses, and so does a raw-text test ARFF, but
        # the test set has no numeric features to match the train set's
        two = tmp_path / "two.arff"
        write_numeric_arff(two, 2)
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--train", str(two), "--test", str(arff_paths[1]),
                     "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {str(arff_paths[1])!r}: attribute 'text' is not numeric;"
                       " vectorize the dataset first\n")
        assert not out_dir.exists()


def write_numeric_arff(path, width, classes=("neg", "pos"), labels=("neg", "pos")):
    """A vectorized ARFF of two rows over `width` numeric features, all 0 in
    the first row and 1 in the second, labelled `labels`, with the class
    attribute declaring `classes`."""
    attributes = "".join(f"@attribute x{i} numeric\n" for i in range(width))
    path.write_text(f"@relation r\n{attributes}@attribute class {{{','.join(classes)}}}\n@data\n"
                    + "0," * width + f"{labels[0]}\n" + "1," * width + f"{labels[1]}\n",
                    encoding="utf-8")


@pytest.mark.parametrize("command", ["evaluate", "compare"])
class TestTestSetClasses:
    """A test set is scored by class name against a dtree trained on
    {neg,pos}: the same classes in another order score as declared in
    order, and a class value the model lacks is refused before scoring."""

    def run(self, tmp_path, command, name, classes, labels):
        train, test, out = tmp_path / "train.arff", tmp_path / f"{name}.arff", tmp_path / name
        write_numeric_arff(train, 3)
        write_numeric_arff(test, 3, classes, labels)
        if command == "compare":
            code = main(["compare", "--train", str(train), "--test", str(test),
                         "--out-dir", str(out), "--algorithms", "dtree"])
            return code, out / "report.json"
        model = tmp_path / "dtree.model"
        assert main(["train", "--train", str(train), "--algorithm", "dtree",
                     "--model-out", str(model)]) == 0
        return main(["evaluate", "--model", str(model), "--test", str(test),
                     "--report-out", str(out)]), out

    def test_a_class_the_model_lacks_exits_2(self, tmp_path, capsys, command):
        capsys.readouterr()
        code, report = self.run(tmp_path, command, "foreign", ("bad", "good"), ("bad", "good"))
        assert code == 2
        assert capsys.readouterr().err == ("error: test classes ('bad', 'good') are not in"
                                           " the model's ('neg', 'pos')\n")
        assert not report.exists() and not (tmp_path / "foreign").exists()

    def test_the_same_classes_in_another_order_score_by_name(self, tmp_path, capsys, command):
        code, declared = self.run(tmp_path, command, "declared", ("neg", "pos"), ("neg", "pos"))
        assert code == 0
        code, reordered = self.run(tmp_path, command, "reordered", ("pos", "neg"), ("neg", "pos"))
        assert code == 0
        assert json.loads(reordered.read_text())["reports"][0]["accuracy"] == 1.0
        assert reordered.read_text() == declared.read_text()


class TestCompare:
    def test_full_run_on_raw_text(self, arff_paths, tmp_path, capsys):
        train, test = arff_paths
        out_dir = tmp_path / "cmp"
        code = main([
            "compare", "--train", str(train), "--test", str(test),
            "--out-dir", str(out_dir),
            "--algorithms", "mnb", "knn", "dtree",
            "--mlp-epochs", "20",
        ])
        assert code == 0
        for name in ("train_vectorized.arff", "test_vectorized.arff",
                     "vocabulary.txt", "report.txt", "report.json", "manifest.json"):
            assert (out_dir / name).exists()
        for alg in ("mnb", "knn", "dtree"):
            assert (out_dir / "models" / f"{alg}.model").exists()
        table = (out_dir / "report.txt").read_text(encoding="utf-8")
        assert table == capsys.readouterr().out
        assert len(table.rstrip("\n").split("\n")) == 2 + 3 + 1

    def test_partial_failure_exits_2_but_reports_rest(self, tmp_path, capsys):
        # three classes: the binary-only SVM fails, MNB still runs
        arff = (
            "@relation r\n@attribute text string\n@attribute class {a,b,c}\n@data\n"
            "'gari achi',a\n'gari kharab',b\n'engine sust',c\n"
        )
        train = tmp_path / "t.arff"
        train.write_text(arff, encoding="utf-8")
        out_dir = tmp_path / "cmp"
        code = main([
            "compare", "--train", str(train), "--test", str(train),
            "--out-dir", str(out_dir), "--algorithms", "mnb", "svm",
            "--stopwords", "none",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "svm failed" in captured.err
        assert (out_dir / "models" / "mnb.model").exists()
        assert not (out_dir / "models" / "svm.model").exists()


    @pytest.mark.parametrize("missing", ["train", "test"])
    def test_unreadable_input_exits_2_and_makes_no_directory(
            self, arff_paths, tmp_path, capsys, missing):
        paths = {"train": str(arff_paths[0]), "test": str(arff_paths[1])}
        paths[missing] = str(tmp_path / "nope.arff")
        out_dir = tmp_path / "cmpdir"
        code = main(["compare", "--train", paths["train"], "--test", paths["test"],
                     "--out-dir", str(out_dir)])
        assert code == 2
        assert "nope.arff" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("case, message", [
        ("positive class", "'typo'"),
        ("test width", "test width 2"),
        ("empty test set", "cannot evaluate on an empty test set"),
    ], ids=["positive class", "test width", "empty test set"])
    def test_a_test_set_that_does_not_fit_exits_2_and_makes_no_directory(
            self, arff_paths, tmp_path, capsys, case, message):
        # evaluate's own checks, made before any model is trained
        train, test = arff_paths
        flags = ["--positive-class", "typo"]
        if case == "test width":
            train, test = tmp_path / "train1.arff", tmp_path / "test2.arff"
            write_numeric_arff(train, 1)
            write_numeric_arff(test, 2)
            flags = []
        if case == "empty test set":
            train, test = tmp_path / "train1.arff", tmp_path / "empty.arff"
            write_numeric_arff(train, 1)
            test.write_text(train.read_text(encoding="utf-8").split("@data\n")[0] + "@data\n",
                            encoding="utf-8")
            flags = ["--algorithms", "mnb", "dtree"]
        out_dir = tmp_path / "cmp"
        code = main(["compare", "--train", str(train), "--test", str(test),
                     "--out-dir", str(out_dir), *flags])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_an_empty_training_set_exits_2_with_one_message_and_makes_no_directory(
            self, tmp_path, capsys):
        train, test = tmp_path / "empty.arff", tmp_path / "test1.arff"
        write_numeric_arff(test, 1)
        train.write_text(test.read_text(encoding="utf-8").split("@data\n")[0] + "@data\n",
                         encoding="utf-8")
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--train", str(train), "--test", str(test),
                     "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == "error: cannot train on an empty training set\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("algorithms", [
        ["dtree", "svm", "adaboost", "mlp"],
        ["dtree", "adaboost", "svm", "mlp"],
        ["svm", "rforest", "mlp"],
    ], ids=["a tree learner follows", "trees first", "svm first"])
    def test_the_column_order_is_released_after_the_last_tree_learner(
            self, arff_paths, tmp_path, monkeypatch, algorithms):
        # a tree learner's column_entries live no longer than its training,
        # so none is held while SVM or MLP trains
        import rusent.cli as cli
        from rusent.classifiers import adaboost, ensemble, tree

        views = []

        def entries(matrix, _entries=tree.column_entries):
            columns = _entries(matrix)
            views.extend(map(weakref.ref, columns))
            return columns
        for module in (tree, ensemble, adaboost):
            monkeypatch.setattr(module, "column_entries", entries)
        seen = []
        for name in ("svm", "mlp"):
            def spy(matrix, *args, _train=getattr(cli, f"train_{name}"), **kwargs):
                seen.append(any(view() is not None for view in views))
                return _train(matrix, *args, **kwargs)
            monkeypatch.setattr(cli, f"train_{name}", spy)
        assert main(["compare", "--train", str(arff_paths[0]), "--test", str(arff_paths[1]),
                     "--out-dir", str(tmp_path / "cmp"), "--mlp-epochs", "2",
                     "--algorithms", *algorithms]) == 0
        assert views and seen == [False, False]

    def test_malformed_hidden_exits_1_and_makes_no_directory(self, arff_paths, tmp_path, capsys):
        out_dir = tmp_path / "cmp"
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--train", str(arff_paths[0]), "--test", str(arff_paths[1]),
                  "--out-dir", str(out_dir), "--hidden", "x"])
        assert exc.value.code == 1
        assert "--hidden" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_a_repeated_algorithm_exits_1_before_reading(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.arff")
        out_dir = tmp_path / "cmp"
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--train", missing, "--test", missing, "--out-dir", str(out_dir),
                  "--algorithms", "mnb", "knn", "mnb"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "argument --algorithms: mnb is repeated" in err
        assert "cannot read" not in err and not out_dir.exists()


class TestGenCorpus:
    def test_gen_corpus(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert main(["gen-corpus", "--out", str(out), "--per-class", "3"]) == 0
        assert sorted(os.listdir(out)) == ["manifest.json", "neg", "pos"]
        assert "wrote 6 reviews" in capsys.readouterr().out

    @pytest.mark.parametrize("per_class", ["-3", "0"])
    def test_per_class_below_one_exits_1_and_writes_nothing(self, tmp_path, capsys, per_class):
        out = tmp_path / "c"
        assert main(["gen-corpus", "--out", str(out), "--per-class", per_class]) == 1
        assert "per_class must be >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--algorithm", "nope"])
        assert exc.value.code == 1

    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_data_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.arff"
        bad.write_text("@relation r\n@data\n", encoding="utf-8")
        code = main(["train", "--train", str(bad), "--algorithm", "mnb",
                     "--model-out", str(tmp_path / "m")])
        assert code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("rusent ")


TINY_VECTORIZED = (
    "@relation r\n@attribute a numeric\n@attribute b numeric\n@attribute c numeric\n"
    "@attribute class {neg,pos}\n@data\n"
    "1,0,2,neg\n0,1,0,pos\n2,0,1,neg\n0,2,0,pos\n1,1,3,neg\n0,3,1,pos\n"
)
NOT_A_NUMBER = st.sampled_from(["nan", "inf", "-inf", "1e999", "x", ""])


def _count(high):
    """At least 1: valid draws up to high, invalid ones below 1 or not integers."""
    return (st.integers(1, high).map(str),
            st.integers(-10**6, 0).map(str) | st.just("1.5") | NOT_A_NUMBER)


def _depth(high):
    """At least 0."""
    return (st.integers(0, high).map(str),
            st.integers(-10**6, -1).map(str) | st.just("0.5") | NOT_A_NUMBER)


def _positive(low, high):
    """Finite and above 0."""
    return st.floats(low, high).map(repr), st.floats(max_value=0.0).map(repr) | NOT_A_NUMBER


# flag -> (valid texts, invalid texts). Valid counts stay at or below the
# tiny ARFF's 3 features and 6 rows (k and features per split are bounded
# by them) and small enough to train fast.
HYPER_FLAG_VALUES = {
    "--alpha": _positive(0.01, 10.0),
    "--k": _count(3),
    # p > 0 only under --distance minkowski, which the test draws separately
    "--minkowski-p": ((st.floats(0.5, 5.0) | st.floats(-5.0, 0.0)).map(repr), NOT_A_NUMBER),
    "--max-depth": _depth(3),
    "--min-leaf": _count(3),
    "--trees": _count(3),
    "--features-per-split": _count(3),
    "--rounds": _count(3),
    "--weak-depth": _depth(2),
    "--svm-lambda": _positive(0.01, 1.0),
    "--svm-epochs": _count(3),
    "--hidden": (st.sampled_from(["1", "2,3", "4"]),
                 st.sampled_from(["0", "2,0", "-1", "x", "", ",", "1.5"])),
    "--learning-rate": _positive(0.01, 1.0),
    "--mlp-epochs": _depth(3),
    "--batch-size": _count(3),
}
OTHER_FLAGS = sorted(set(HYPER_FLAG_VALUES) - {"--minkowski-p"})


def _run_on_tiny_arff(command, algorithms, flags):
    """Run train (with the first algorithm) or compare on a tiny vectorized
    ARFF in a new directory; return (exit code, stderr, the files left in
    that directory besides the ARFF)."""
    with tempfile.TemporaryDirectory() as tmp:
        arff = os.path.join(tmp, "tiny.arff")
        with open(arff, "w", encoding="utf-8") as fh:
            fh.write(TINY_VECTORIZED)
        out = os.path.join(tmp, "out")
        if command == "train":
            argv = ["train", "--train", arff, "--algorithm", algorithms[0], "--model-out", out]
        else:
            argv = ["compare", "--train", arff, "--test", arff, "--out-dir", out,
                    "--algorithms", *algorithms]
        # flag=value, so that argparse takes a text such as -1e-05 as the value
        argv += [f"{flag}={text}" for flag, text in flags]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, stderr.getvalue(), sorted(set(os.listdir(tmp)) - {"tiny.arff"})


def _valid_flags(flags):
    """Up to three of flags, each with a valid text."""
    return st.lists(st.sampled_from(flags), max_size=3, unique=True).flatmap(
        lambda drawn: st.tuples(*(HYPER_FLAG_VALUES[f][0].map(lambda t, f=f: (f, t))
                                  for f in drawn)))


COMMANDS = st.sampled_from(["train", "compare"])
SOME_ALGORITHMS = st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=3, unique=True)


class TestHyperparameterFlags:
    """A hyperparameter flag out of its data-free range exits 1 before any
    input is read, naming the flag; small in-range values train and exit 0."""

    @pytest.mark.parametrize("flag", sorted(HYPER_FLAG_VALUES))
    @given(data=st.data(), command=COMMANDS, algorithms=SOME_ALGORITHMS)
    @settings(max_examples=25)
    def test_out_of_range_exits_1_and_writes_nothing(self, flag, data, command, algorithms):
        others = _valid_flags(sorted(set(HYPER_FLAG_VALUES) - {flag}))
        bad = (flag, data.draw(HYPER_FLAG_VALUES[flag][1], label="bad"))
        flags = [*data.draw(others, label="others"), bad]
        code, err, left = _run_on_tiny_arff(command, algorithms, data.draw(st.permutations(flags)))
        assert code == 1, err
        assert f"argument {flag}:" in err
        assert left == []

    @given(valid=_valid_flags(OTHER_FLAGS),
           p=HYPER_FLAG_VALUES["--minkowski-p"][0],
           distance=st.sampled_from(["euclidean", "manhattan", "minkowski"]),
           command=COMMANDS, algorithms=SOME_ALGORITHMS)
    @settings(max_examples=150)
    def test_in_range_values_exit_0(self, valid, p, distance, command, algorithms):
        flags = [*valid, ("--minkowski-p", p), ("--distance", distance)]
        code, err, left = _run_on_tiny_arff(command, algorithms, flags)
        if distance == "minkowski" and float(p) <= 0:  # a finite p, but minkowski needs p > 0
            assert code == 1, err
            assert "argument --minkowski-p:" in err and left == []
        else:
            assert code == 0, err


def evaluate_tree_model(tmp_path, model_text, report):
    """Run `evaluate` on a hand-written model over one numeric feature."""
    model = tmp_path / "tree.model"
    model.write_text(model_text, encoding="utf-8")
    test = tmp_path / "test.arff"
    test.write_text(
        "@relation r\n@attribute x0 numeric\n@attribute class {neg,pos}\n@data\n"
        "0,neg\n1,pos\n2,neg\n1199,pos\n",
        encoding="utf-8",
    )
    return main(["evaluate", "--model", str(model), "--test", str(test),
                 "--report-out", str(report)])


class TestDeepTreeModel:
    def test_evaluating_a_1200_deep_tree_does_not_exit_3(self, tmp_path, capsys):
        from test_tree import chain_model_text

        report = tmp_path / "report.json"
        code = evaluate_tree_model(tmp_path, chain_model_text(1200), report)
        assert code == 0, capsys.readouterr().err
        assert json.loads(report.read_text())["reports"][0]["accuracy"] == 1.0


class TestCorruptModel:
    def test_a_split_past_the_feature_width_exits_2(self, tmp_path, capsys):
        from test_tree import chain_model_text

        text = chain_model_text(3).replace("split 0 ", "split 7 ", 1)
        assert evaluate_tree_model(tmp_path, text, tmp_path / "report.json") == 2
        assert "corrupt model file" in capsys.readouterr().err

    @pytest.mark.parametrize("train, old, new", [
        (train_mnb, "alpha 1.0", "alpha 0.0"),
        (train_dtree, "min_leaf 1", "min_leaf 0"),
        (train_knn, "feature_width 1", "feature_width 1000000000000"),
    ], ids=["mnb", "dtree", "knn feature_width"])
    def test_a_value_the_model_refuses_exits_2(self, tmp_path, capsys, train, old, new):
        text = train(make_matrix([[0.0], [1.0]], ["neg", "pos"])).dumps()
        assert old in text
        assert evaluate_tree_model(tmp_path, text.replace(old, new), tmp_path / "r.json") == 2
        assert "corrupt model file" in capsys.readouterr().err


    def test_a_stray_byte_mid_file_exits_2_as_not_utf8(self, tmp_path, capsys):
        # a 1200-deep chain, 60 KB of text: the byte is many lines and read
        # blocks past the start
        from test_tree import chain_model_text

        data = chain_model_text(1200).encode()
        cut = data.index(b"leaf 1 ", len(data) * 2 // 3)
        model, test = tmp_path / "tree.model", tmp_path / "test.arff"
        model.write_bytes(data[:cut] + b"\xff" + data[cut + 1:])
        write_numeric_arff(test, 1)
        assert main(["evaluate", "--model", str(model), "--test", str(test)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {str(model)!r} is not valid UTF-8: ") and err.count("\n") == 1


class TestHugeFeatureValues:
    def test_dtree_on_values_near_the_double_maximum_trains(self, tmp_path, capsys):
        # the midpoint of 1.7e308 and 1.79e308 overflows; the tree must
        # still split once and stop
        train = tmp_path / "huge.arff"
        train.write_text(
            "@relation r\n@attribute x numeric\n@attribute class {neg,pos}\n@data\n"
            "1.7e308,neg\n1.79e308,pos\n",
            encoding="utf-8",
        )
        model = tmp_path / "huge.model"
        code = main(["train", "--train", str(train), "--algorithm", "dtree",
                     "--model-out", str(model)])
        assert code == 0, capsys.readouterr().err
        assert "training accuracy 100.00%" in capsys.readouterr().out
        assert main(["evaluate", "--model", str(model), "--test", str(train)]) == 0


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quick_start_steps():
    """The README quick start's steps in order: ("rusent", argv) for each
    command, joined over its line continuations, and ("python", source)
    for each `python - <<'EOF'` block."""
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = readme.split("## Quick start", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = iter(block.replace("\\\n", " ").split("\n"))
    for line in lines:
        if not line.strip() or line.startswith("#"):
            continue
        if line == "python - <<'EOF'":
            body = itertools.takewhile(lambda text: text != "EOF", lines)
            yield "python", "".join(f"{text}\n" for text in body)
        else:
            argv = shlex.split(line)
            assert argv[0] == "rusent", line
            yield "rusent", argv[1:]


class TestQuickStart:
    def test_every_step_runs_as_written(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        env = {**os.environ, "PYTHONPATH": os.path.join(REPO, "src")}
        steps = list(quick_start_steps())
        assert [kind for kind, _ in steps].count("python") == 1
        for kind, step in steps:
            if kind == "python":
                done = subprocess.run([sys.executable, "-"], input=step, text=True, env=env,
                                      capture_output=True)
                assert done.returncode == 0, done.stderr
            else:
                assert main(step) == 0, (step, capsys.readouterr().err)
        assert (tmp_path / "results" / "report.json").exists()
