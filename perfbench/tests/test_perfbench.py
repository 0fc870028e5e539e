"""Tests of the benchmark harness itself (not of rusent).

Run with: PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import os
import sys
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import zipf  # noqa: E402
from spans import Recorder, self_times  # noqa: E402


def span(id, name, start, end, parent=None, **attrs):
    return {"id": id, "name": name, "start": start, "end": end, "parent": parent, "attrs": attrs}


# -- the Zipf generator ------------------------------------------------------

def test_zipf_corpus_is_a_function_of_its_seed():
    assert zipf.corpus_arff(50, 3) == zipf.corpus_arff(50, 3)
    assert zipf.corpus_arff(50, 3) != zipf.corpus_arff(50, 4)


def test_zipf_corpus_parses_as_balanced_raw_text():
    from rusent.arff import parse_arff

    data = parse_arff(zipf.corpus_arff(40, 1))
    assert [a.kind for a in data.attributes] == ["string", "nominal"]
    labels = [row[1] for row in data.instances]
    assert labels.count("neg") == labels.count("pos") == 20


# -- spans and self time -----------------------------------------------------

def test_self_time_subtracts_children_once():
    spans = [
        span(0, "cli.compare", 0.0, 10.0),
        span(1, "vectorize.fit", 1.0, 5.0, 0),
        span(2, "corpus.tokenize", 1.5, 2.0, 1),
        span(3, "corpus.tokenize", 2.5, 3.5, 1),
        span(4, "arff.write", 6.0, 8.0, 0),
        # overlaps its sibling and runs past the parent: covered time is
        # the union of the children, clipped to the parent
        span(5, "arff.write", 7.0, 11.0, 0),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 10.0 - 4.0 - 4.0, 1: 4.0 - 1.5, 2: 0.5, 3: 1.0, 4: 2.0, 5: 4.0}


def test_recorder_nests_spans_and_counts():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap(lambda x: x * 2, "inner", attrs=lambda a, r: {"arg": a[0]})
    outer = rec.wrap(lambda x: inner(x) + 1, lambda a, r: f"outer.{r}")
    counted = rec.count(lambda: None, "hits")
    assert outer(3) == 7
    counted()
    counted()
    trace = rec.to_dict()
    assert trace["schema"] == "rusent-trace/1"
    assert [(s["name"], s["parent"], s["start"], s["end"]) for s in trace["spans"]] == [
        ("outer.7", None, 0.0, 3.0), ("inner", 0, 1.0, 2.0)]
    assert trace["spans"][1]["attrs"] == {"arg": 3}
    assert trace["counters"] == {"hits": 2}
    assert self_times(trace["spans"]) == {0: 2.0, 1: 1.0}


def test_recorder_memory_peaks_reach_the_parent():
    tracemalloc.start()
    try:
        rec = Recorder(memory=True)

        def allocate():
            block = bytearray(2_000_000)
            return len(block)

        outer = rec.wrap(lambda: rec.wrap(allocate, "inner")(), "outer")
        outer()
    finally:
        tracemalloc.stop()
    outer_span, inner_span = rec.spans
    assert inner_span.attrs["peak_bytes"] >= 2_000_000
    assert outer_span.attrs["peak_bytes"] >= inner_span.attrs["peak_bytes"]


def test_layer_metrics_from_a_hand_built_trace():
    trace = {"spans": [
        span(0, "cli.compare", 0.0, 10.0),
        span(1, "arff.parse", 0.0, 1.0, 0, bytes=500, peak_bytes=1_000_000),
        span(2, "vectorize.fit", 1.0, 3.0, 0, width=4, peak_bytes=0),
        span(3, "corpus.tokenize", 1.0, 1.5, 2),
        span(4, "vectorize.transform", 3.0, 4.0, 0, rows=2, width=4, nnz=3, peak_bytes=0),
        span(5, "classifiers.knn.train", 4.0, 6.0, 0, peak_bytes=0),
        span(6, "classifiers.knn.save", 6.0, 6.5, 0, bytes=1234, peak_bytes=0),
        span(7, "evaluation.knn.evaluate", 6.5, 9.0, 0, peak_bytes=3_000_000),
    ], "counters": {"rng.draws": 7, "evaluation.predict_calls": 2}}
    m = run.layer_metrics([trace, trace])
    assert m["cli.self_s"] == 2 * 1.0
    assert m["vectorize.fit_s"] == 2 * 1.5
    assert m["corpus.tokenize_s"] == 2 * 0.5
    assert m["corpus.tokenize_calls"] == 2
    assert m["arff.bytes_in"] == 1000
    assert m["vectorize.width"] == 4
    assert m["vectorize.nnz"] == 6
    assert m["vectorize.dense_mb"] == 2 * 2 * 4 * 8 / 1e6
    assert m["classifiers.knn.train_s"] == 4.0
    assert m["classifiers.knn.model_bytes"] == 1234
    assert m["evaluation.knn.evaluate_s"] == 5.0
    assert m["arff.peak_mb"] == 1.0 and m["evaluation.peak_mb"] == 3.0
    assert m["rng.draws"] == 14 and m["evaluation.predict_calls"] == 4
    assert m["classifiers.mlp.train_s"] == 0


# -- failures are counted, not raised ----------------------------------------

def test_nonzero_exit_is_a_counted_failure(tmp_path):
    ledger = run.Ledger()
    child = run.run_child([sys.executable, "-c", "import sys; sys.exit(3)"],
                          str(tmp_path), run.child_env())
    assert child.returncode == 3
    assert not ledger.record("step", child, [])
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_child_past_its_timeout_is_killed_and_counted(tmp_path):
    ledger = run.Ledger()
    child = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"],
                          str(tmp_path), run.child_env(), timeout=1)
    assert child.returncode < 0
    assert 0.5 < child.wall_s < 10
    assert not ledger.record("step", child, [])


def test_reference_wall_time_scales_by_the_probed_speed(tmp_path):
    child = run.run_child([sys.executable, "-c", "sum(range(3_000_000))"],
                          str(tmp_path), run.child_env())
    assert child.returncode == 0 and child.speed > 0
    assert child.ref_wall_s == child.wall_s * child.speed
    assert run.probe() > 0


def test_failing_cli_step_does_not_stop_the_pass(tmp_path):
    ledger = run.Ledger()
    steps = [run.Step("evaluate-knn", ["evaluate", "--model", "no.model", "--test", "no.arff"],
                      check=lambda d: ([], {})),
             run.Step("version", ["--version"], check=lambda d: ([], {}))]
    result = run.run_pass(str(tmp_path), steps, ledger, {})
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.problems[0].startswith("evaluate-knn: exit 2")
    assert result.wall_s > 0


def test_flipped_model_byte_is_a_counted_failure(tmp_path):
    models = tmp_path / "models"
    models.mkdir()
    model = models / "knn.model"
    model.write_bytes(b"rusent-model 1\nvariant knn\nend\n")
    reference = run.digests(str(tmp_path))
    data = bytearray(model.read_bytes())
    data[5] ^= 0x01
    model.write_bytes(bytes(data))

    problems = run.same_digests(reference, run.digests(str(tmp_path)))
    assert problems and "models/knn.model" in problems[0]
    problems += run.check_frozen(str(models))
    assert any("knn.model sha256" in p for p in problems)
    ledger = run.Ledger()
    ok_exit = run.Child(0, 1.0, 10.0, "", "")
    assert not ledger.record("compare", ok_exit, problems)
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_reports_below_the_floor_or_missing_fail(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"reports": [{"model": "mnb", "accuracy": 0.5}]}))
    problems, accuracy = run.read_reports(str(path), ("mnb", "svm"), 0.9)
    assert accuracy == {"mnb": 0.5}
    assert len(problems) == 2
    problems, _ = run.read_reports(str(tmp_path / "absent.json"), ("mnb",), 0.9)
    assert problems and "unreadable" in problems[0]


def test_sparse_shape_skips_the_class_entry(tmp_path):
    path = tmp_path / "v.arff"
    path.write_text("@relation v\n@attribute a numeric\n@attribute b numeric\n"
                    "@attribute class {neg,pos}\n@data\n{0 1.0,2 pos}\n{1 2.0}\n{}\n")
    assert run.sparse_shape(str(path)) == (3, 2, 2)


# -- BENCHMARK.json agrees with the harness ----------------------------------

def test_benchmark_json_lists_what_the_harness_reports():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
