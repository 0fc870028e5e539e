"""The benchmark's traced runner against the CLI it wraps.

perfbench/traced_cli.py replaces names in `rusent.cli` with timed
wrappers, so renaming one of them breaks `perfbench/run.py --trace 1`.
These tests run it as the benchmark does, on tiny inputs.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACED_CLI = os.path.join(ROOT, "perfbench", "traced_cli.py")

RAW = (
    "@relation r\n@attribute text string\n@attribute class {neg,pos}\n@data\n"
    "'gari achi hai',pos\n'engine bekar',neg\n'achi seat',pos\n'gari kharab',neg\n"
)


def traced(tmp_path, name, *args):
    """Run one traced CLI command in tmp_path; (exit code, span names, stderr)."""
    trace = tmp_path / f"{name}.trace.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, TRACED_CLI, str(trace), "--", *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    spans = []
    if trace.exists():
        spans = [s["name"] for s in json.loads(trace.read_text(encoding="utf-8"))["spans"]]
    return proc.returncode, spans, proc.stderr


@pytest.fixture
def compared(tmp_path):
    (tmp_path / "raw.arff").write_text(RAW, encoding="utf-8")
    result = traced(tmp_path, "compare", "compare", "--train", "raw.arff", "--test", "raw.arff",
                    "--out-dir", "out", "--algorithms", "mnb", "dtree")
    return tmp_path, result


def test_a_traced_compare_records_the_vectorized_write(compared):
    _, (code, spans, err) = compared
    assert code == 0, err
    assert spans[0] == "cli.compare"
    assert spans.count("vectorize.to_arff") == 2
    assert {"vectorize.fit", "classifiers.mnb.train", "classifiers.dtree.save"} <= set(spans)


def test_a_traced_evaluate_records_the_load_and_the_scoring(compared):
    tmp_path, _ = compared
    code, spans, err = traced(tmp_path, "evaluate", "evaluate", "--model", "out/models/mnb.model",
                              "--test", "out/test_vectorized.arff")
    assert code == 0, err
    assert spans[0] == "cli.evaluate"
    assert {"classifiers.mnb.load", "evaluation.mnb.evaluate"} <= set(spans)
