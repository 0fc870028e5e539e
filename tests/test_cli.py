import json
import os

import pytest

from rusent.arff import parse_arff
from rusent.cli import main
from rusent.synth import generate_corpus


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

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        code = main(["convert", str(tmp_path / "nope"), str(tmp_path / "o.arff")])
        assert code == 2
        assert "error" in capsys.readouterr().err


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
        code = main([
            "vectorize", "--train", str(train), "--test", str(test),
            "--out-train", str(tmp_path / "tr.arff"),
        ])
        assert code == 2

    def test_rerun_is_byte_identical(self, arff_paths, tmp_path):
        train, _ = arff_paths
        a, b = tmp_path / "a.arff", tmp_path / "b.arff"
        for out in (a, b):
            assert main(["vectorize", "--train", str(train), "--out-train", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


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

    def test_same_seed_models_byte_identical(self, arff_paths, tmp_path):
        vtr, _ = self.vectorized(arff_paths, tmp_path)
        a, b = tmp_path / "a.model", tmp_path / "b.model"
        for out in (a, b):
            assert main(["train", "--train", str(vtr), "--algorithm", "bagging",
                         "--seed", "42", "--model-out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


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


class TestGenCorpus:
    def test_gen_corpus(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert main(["gen-corpus", "--out", str(out), "--per-class", "3"]) == 0
        assert sorted(os.listdir(out)) == ["manifest.json", "neg", "pos"]
        assert "wrote 6 reviews" in capsys.readouterr().out


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
