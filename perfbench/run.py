#!/usr/bin/env python3
"""Benchmark of the rusent CLI pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test is the checkout's own `src/rusent`, run as fresh
`python -m rusent.cli` child processes, one at a time, from this single
driver process. Inputs are generated from --seed into a scratch directory
inside the checkout (removed on exit); the program only sees the files.

Workloads (BENCHMARK.json says why each was chosen):

    synth-compare  bundled corpus (gen-corpus --per-class 1000, corpus seed
                   = --seed), stratified 0.8 split with seed 7, one
                   `compare --seed 42` at default hyperparameters
    zipf-compare   1000-doc Zipf corpus (zipf.py), same split, one
                   `compare --seed 42 --max-depth 6 --trees 3 --mlp-epochs 20`
    zipf-score     the 8 models of zipf-compare, trained while preparing;
                   timed: `evaluate --report-out` per model on a 400-doc
                   held-out Zipf set vectorized under the same vocabulary

A pass runs the workload's timed CLI processes once. Passes repeat while
the next one is expected to end within --seconds (at least MIN_PASSES).

--trace 0 prints the end-to-end metrics, measured with tracing off:
    wall_s         sum over the workload's CLI processes of each one's
                   median reference wall time (below) across the passes
    setup_s        median reference wall time of a fresh `rusent --version`
                   process
    peak_rss_mb    highest peak resident set of any timed child process
    output_mb      bytes one pass writes (models, vectorized ARFFs, reports)
    accuracy_mean  mean test accuracy over the 8 reports

Reference wall time. On a shared host the speed of a virtual CPU changes
by up to about 1.5x from one second to the next and over minutes, and a
child's CPU time grows with its wall time, so neither the fastest nor
the median of a run's passes repeats from run to run. So the driver and
its children share one CPU, and while a child runs the driver wakes
every PROBE_PERIOD_S and times probe(), a fixed piece of interpreted,
memory-bound work; the child runs at the lowest priority, so the probe
measures the CPU rather than waiting for the child. A child's reference
wall time is its wall time (less the probe's own) times the mean over
the probes of PROBE_REF_S / probe time: the time it would have taken on
a CPU on which probe() takes PROBE_REF_S. It still scales 1:1 with the
work the program does. The raw wall times and each pass's speed factor
are in the detail line.

--trace 1 makes one untraced pass, one traced pass (traced_cli.py records
spans around each layer's public calls) and one traced pass with
tracemalloc on, whatever --seconds says. It prints the per-layer metrics
listed in PER_LAYER: each layer's self time, bytes and counts in the
traced pass, its tracemalloc peak in the last pass (steps that pass
could not start within MEMORY_DEADLINE_S are listed in the detail line),
and trace.overhead_s = traced pass - untraced pass, in reference wall
time.

Every CLI process is one operation. It fails on a non-zero exit or a
failed output check: the reports are all there and clear the workload's
accuracy floor, every pass writes byte-identical files, and at --seed 0
the synth-compare model files match FROZEN_MODEL_HASHES in
tests/test_acceptance.py. error_rate = failed / attempted.

Output: a readable summary, one JSON line with the machine, the workload's
shape and error_rate, and as the last line the result JSON
{"correct", "attempted", "failed", "metrics"}. Exit 0 when every check
passed, 1 when any failed, 2 when the checkout has no rusent sources.

baseline.json holds what this benchmark measured on the code it was
written against, with the machine. The harness's own tests are in tests/.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

ALGORITHMS = ("mnb", "knn", "dtree", "bagging", "rforest", "adaboost", "svm", "mlp")
ZIPF_HYPER = ("--max-depth", "6", "--trees", "3", "--mlp-epochs", "20")
SPLIT_SEED = 7
COMPARE_SEED = "42"
FROZEN_SEED = 0  # --seed whose synth-compare models must match the frozen hashes
SETUP_REPEATS = 9
MIN_PASSES = 2  # so that every run checks its outputs are byte-identical
CHILD_TIMEOUT_S = 60  # the slowest step takes about 20 s
PROBE_PERIOD_S = 0.025
# about probe()'s time in the fast state of the CPU this benchmark was tuned on
# (Intel Xeon, Python 3.11.7, numpy 2.4.6; see baseline.json)
PROBE_REF_S = 1.0e-3
RUN_BUDGET_S = 140  # no pass starts that is expected to end later than this
# tracemalloc slows a zipf-score process up to 20-fold, so the memory pass
# starts no step after this many seconds into the run
MEMORY_DEADLINE_S = 140
# One BLAS thread: the matrices are small, and threads would contend with
# the machine's other load. Never more than nproc either way.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

MEMORY_LAYERS = ("arff", "vectorize", "classifiers", "evaluation")
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("output_mb", "MB"),
    ("accuracy_mean", "fraction"),
)


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    """(name, unit, better) of every per-layer metric."""
    m = [
        ("arff.parse_s", "s"), ("arff.bytes_in", "bytes"),
        ("arff.write_s", "s"), ("arff.bytes_out", "bytes"),
        ("corpus.tokenize_s", "s"), ("corpus.tokenize_calls", "count"),
        ("vectorize.fit_s", "s"), ("vectorize.transform_s", "s"),
        ("vectorize.to_arff_s", "s"), ("vectorize.matrix_from_dataset_s", "s"),
        ("vectorize.width", "count"), ("vectorize.nnz", "count"),
        ("vectorize.dense_mb", "MB"),
    ]
    for alg in ALGORITHMS:
        m += [(f"classifiers.{alg}.train_s", "s"), (f"classifiers.{alg}.save_s", "s"),
              (f"classifiers.{alg}.load_s", "s"), (f"classifiers.{alg}.model_bytes", "bytes")]
    m += [(f"evaluation.{alg}.evaluate_s", "s") for alg in ALGORITHMS]
    m += [("evaluation.predict_calls", "count"), ("rng.draws", "count"), ("cli.self_s", "s"),
          ("trace.overhead_s", "s")]
    m += [(f"{layer}.peak_mb", "MB") for layer in MEMORY_LAYERS]
    return tuple((name, unit, "lower") for name, unit in m)


PER_LAYER = _per_layer()


# ---------------------------------------------------------------------------
# child processes

@dataclass
class Child:
    returncode: int
    wall_s: float      # wall time, less the time the driver spent probing
    maxrss_mb: float
    stdout: str
    stderr: str
    speed: float = 1.0  # mean of PROBE_REF_S / probe time while it ran

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s * self.speed


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.update(THREAD_ENV)
    return env


class _Probe:
    """probe() -> seconds a fixed piece of CPU work takes now: summing a
    15,000-item slice of a shuffled list of 200,000 ints, the slice moving
    on with each call. The scattered reads slow down with the CPU's
    caches as well as its clock, as rusent's interpreted loops do; of the
    probes tried, this one tracked the workloads' slowdowns best."""

    SLICE = 15_000

    def __init__(self):
        self.items = None
        self.at = 0

    def __call__(self) -> float:
        if self.items is None:
            self.items = list(range(200_000))
            random.Random(0).shuffle(self.items)
        at, self.at = self.at, (self.at + self.SLICE) % (len(self.items) - self.SLICE)
        start = time.perf_counter()
        total = 0
        for value in self.items[at:at + self.SLICE]:
            total += value
        return time.perf_counter() - start


probe = _Probe()


def _lowest_priority() -> None:
    os.nice(19)


def run_child(argv, cwd, env, timeout=CHILD_TIMEOUT_S) -> Child:
    """Run argv to completion; wall time and peak RSS are this child's own.

    The child inherits the driver's CPU (main pins it) and runs at the
    lowest priority; until it ends the driver times probe() every
    PROBE_PERIOD_S (see the module docstring). os.wait4 gives the
    child's rusage directly (RUSAGE_CHILDREN would be a running maximum
    over every child so far). A child still running after `timeout`
    seconds is killed and reported as such.
    """
    out_path, err_path = os.path.join(cwd, ".stdout"), os.path.join(cwd, ".stderr")
    probes = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, preexec_fn=_lowest_priority)
        exited = select.poll()  # a pidfd turns readable when the process ends
        pidfd = os.pidfd_open(proc.pid)
        exited.register(pidfd, select.POLLIN)
        try:
            while not exited.poll(PROBE_PERIOD_S * 1000):
                if time.perf_counter() - start > timeout:
                    proc.kill()
                    break
                probes.append(probe())
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - start - sum(probes)
    if not probes:  # ended before the first probe
        probes.append(probe())
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    speed = statistics.fmean(PROBE_REF_S / p for p in probes)
    return Child(proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6, stdout, stderr, speed)


def rusent_argv(args) -> list[str]:
    return [sys.executable, "-m", "rusent.cli", *args]


def traced_argv(args, trace_out, memory) -> list[str]:
    return [sys.executable, os.path.join(HERE, "traced_cli.py"), trace_out,
            *(["--memory"] if memory else []), "--", *args]


@dataclass
class Ledger:
    """Operations attempted and failed, with what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, child: Child, problems: list[str]) -> bool:
        self.attempted += 1
        if child.returncode != 0:
            tail = child.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            problems = [f"exit {child.returncode}: {tail[0]}", *problems]
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return not problems


# ---------------------------------------------------------------------------
# output checks

def digests(directory) -> dict[str, str]:
    """SHA-256 of every file under directory, by relative path."""
    out = {}
    for base, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def tree_bytes(directory) -> int:
    return sum(os.path.getsize(os.path.join(base, name))
               for base, _, files in os.walk(directory) for name in files)


def same_digests(reference: dict, current: dict) -> list[str]:
    changed = sorted(set(reference) ^ set(current)
                     | {k for k in reference.keys() & current.keys() if reference[k] != current[k]})
    return [f"differs from the first pass: {', '.join(changed)}"] if changed else []


def read_reports(path, expected, floor) -> tuple[list[str], dict[str, float]]:
    """Problems with a report.json, and each model's accuracy."""
    try:
        with open(path, encoding="utf-8") as fh:
            reports = json.load(fh)["reports"]
        accuracy = {r["model"]: float(r["accuracy"]) for r in reports}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report {os.path.basename(path)}: {exc!r}"], {}
    problems = []
    if len(reports) != len(expected) or set(accuracy) != set(expected):
        problems.append(f"expected reports for {sorted(expected)}, got {sorted(accuracy)}")
    problems += [f"{m} accuracy {a} below the floor {floor}"
                 for m, a in sorted(accuracy.items()) if not a >= floor]
    return problems, accuracy


def frozen_model_hashes() -> dict[str, str]:
    """FROZEN_MODEL_HASHES as tests/test_acceptance.py states them."""
    path = os.path.join(ROOT, "tests", "test_acceptance.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "FROZEN_MODEL_HASHES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"no FROZEN_MODEL_HASHES in {path}")


def check_frozen(models_dir) -> list[str]:
    try:
        frozen = frozen_model_hashes()
    except (OSError, SyntaxError, ValueError, LookupError) as exc:
        return [f"cannot read the frozen model hashes: {exc}"]
    found = {name[:-len(".model")]: digest for name, digest in digests(models_dir).items()
             if name.endswith(".model")}
    return [f"{alg}.model sha256 {found.get(alg)} != frozen {want}"
            for alg, want in sorted(frozen.items()) if found.get(alg) != want]


def sparse_shape(path) -> tuple[int, int, int]:
    """(rows, features, non-zero features) of a vectorized sparse ARFF
    whose last attribute is the class."""
    attributes, rows, nnz, in_data = 0, 0, 0, False
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not in_data:
                low = line.lower()
                attributes += low.startswith("@attribute")
                in_data = low == "@data"
            elif line.startswith("{"):
                rows += 1
                body = line[1:-1]
                nnz += sum(1 for e in body.split(",") if e and int(e.split()[0]) != attributes - 1)
    return rows, attributes - 1, nnz


# ---------------------------------------------------------------------------
# workloads

@dataclass
class Step:
    name: str         # its output directory under the pass's out/
    args: list[str]   # rusent arguments, paths relative to the work dir
    check: Callable[[str], tuple[list[str], dict[str, float]]]  # step_dir -> (problems, accuracy)


def _write(path, text) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _split_inputs(work, dataset) -> None:
    from rusent.arff import write_arff
    from rusent.corpus import SplitSpec, split

    train, test = split(dataset, SplitSpec(0.8, stratified=True, seed=SPLIT_SEED))
    _write(os.path.join(work, "inputs", "train.arff"), write_arff(train))
    _write(os.path.join(work, "inputs", "test.arff"), write_arff(test))


def _compare_step(floor, extra=(), frozen=False) -> Step:
    def check(step_dir):
        problems, accuracy = read_reports(os.path.join(step_dir, "report.json"), ALGORITHMS, floor)
        models = os.path.join(step_dir, "models")
        missing = [a for a in ALGORITHMS if not os.path.isfile(os.path.join(models, f"{a}.model"))]
        if missing:
            problems.append(f"missing models {missing}")
        if frozen:
            problems += check_frozen(models)
        return problems, accuracy

    return Step("compare", ["compare", "--train", "inputs/train.arff", "--test", "inputs/test.arff",
                            "--out-dir", "out/compare", "--seed", COMPARE_SEED, *extra], check)


class SynthCompare:
    name = "synth-compare"
    # Acceptance criterion 9's floor holds for its own corpus (seed 0);
    # on other corpus seeds AdaBoost's ten stumps have scored 0.8975.
    floor = 0.85

    def prepare(self, work, seed, ledger) -> None:
        from rusent.arff import load_text_directory
        from rusent.synth import generate_corpus

        corpus = os.path.join(work, "corpus")
        generate_corpus(corpus, per_class=1000, seed=seed)
        _split_inputs(work, load_text_directory(corpus))
        self.frozen = seed == FROZEN_SEED
        if self.frozen:
            self.floor = 0.90

    def steps(self) -> list[Step]:
        return [_compare_step(self.floor, frozen=self.frozen)]

    def shape(self, work) -> dict:
        rows, width, nnz = sparse_shape(os.path.join(work, "out", "compare", "train_vectorized.arff"))
        return {"docs": 2000, "train_docs": rows, "width": width,
                "nonzero_share": nnz / (rows * width)}


class ZipfCompare:
    name = "zipf-compare"
    # Above the 0.5 a constant guess scores on these balanced test sets:
    # the random forest's three depth-6 trees have scored as low as 0.595.
    floor = 0.51
    docs = 1000

    def prepare(self, work, seed, ledger) -> None:
        from rusent.arff import parse_arff
        from rusent.rng import derive

        import zipf

        _split_inputs(work, parse_arff(zipf.corpus_arff(self.docs, derive(seed, 0))))

    def steps(self) -> list[Step]:
        return [_compare_step(self.floor, ZIPF_HYPER)]

    def shape(self, work) -> dict:
        rows, width, nnz = sparse_shape(os.path.join(work, "out", "compare", "train_vectorized.arff"))
        return {"docs": self.docs, "train_docs": rows, "width": width,
                "nonzero_share": nnz / (rows * width)}


class ZipfScore(ZipfCompare):
    name = "zipf-score"
    heldout_docs = 400

    def prepare(self, work, seed, ledger) -> None:
        """zipf-compare's inputs and models, plus the held-out set
        vectorized under the training vocabulary (untimed)."""
        from rusent.rng import derive

        import zipf

        super().prepare(work, seed, ledger)
        _write(os.path.join(work, "inputs", "heldout.arff"),
               zipf.corpus_arff(self.heldout_docs, derive(seed, 1)))
        env = child_env()
        train = _compare_step(self.floor, ZIPF_HYPER)
        os.makedirs(os.path.join(work, "out", "compare"))
        child = run_child(rusent_argv(train.args), work, env)
        problems = train.check(os.path.join(work, "out", "compare"))[0] if child.returncode == 0 else []
        ledger.record("prepare compare", child, problems)
        os.rename(os.path.join(work, "out", "compare"), os.path.join(work, "trained"))
        child = run_child(rusent_argv([
            "vectorize", "--train", "inputs/train.arff", "--test", "inputs/heldout.arff",
            "--out-train", "trained/train_again.arff", "--out-test", "inputs/heldout_vec.arff",
        ]), work, env)
        trained = digests(os.path.join(work, "trained"))
        same = trained.get("train_again.arff") == trained.get("train_vectorized.arff")
        ledger.record("prepare vectorize", child, [] if same or child.returncode else
                      ["held-out set not vectorized under the models' vocabulary"])

    def steps(self) -> list[Step]:
        return [self._evaluate_step(alg) for alg in ALGORITHMS]

    def _evaluate_step(self, alg) -> Step:
        def check(step_dir):
            return read_reports(os.path.join(step_dir, "report.json"), (alg,), self.floor)

        return Step(f"evaluate-{alg}", ["evaluate", "--model", f"trained/models/{alg}.model",
                                        "--test", "inputs/heldout_vec.arff",
                                        "--report-out", f"out/evaluate-{alg}/report.json"], check)

    def shape(self, work) -> dict:
        rows, width, nnz = sparse_shape(os.path.join(work, "inputs", "heldout_vec.arff"))
        return {"docs": rows, "width": width, "nonzero_share": nnz / (rows * width)}


WORKLOADS = {w.name: w for w in (SynthCompare, ZipfCompare, ZipfScore)}


# ---------------------------------------------------------------------------
# passes

@dataclass
class Pass:
    wall_s: float = 0.0
    ref_wall_s: float = 0.0
    step_ref_wall_s: dict = field(default_factory=dict)
    skipped: list = field(default_factory=list)
    maxrss_mb: float = 0.0
    output_bytes: int = 0
    accuracy: dict = field(default_factory=dict)
    traces: list = field(default_factory=list)


def run_pass(work, steps, ledger, reference, trace_dir=None, memory=False,
             deadline=None) -> Pass:
    """Run every step once into a fresh out/. With trace_dir, each step
    runs under traced_cli.py and its trace is kept (with tracemalloc
    peaks if memory). Steps not started by `deadline` are skipped."""
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    env = child_env()
    result = Pass()
    for step in steps:
        if deadline is not None and time.perf_counter() > deadline:
            result.skipped.append(step.name)
            continue
        step_dir = os.path.join(out, step.name)
        os.makedirs(step_dir)
        if trace_dir is None:
            argv = rusent_argv(step.args)
        else:
            trace_path = os.path.join(trace_dir, f"{step.name}.json")
            argv = traced_argv(step.args, trace_path, memory)
        child = run_child(argv, work, env)
        result.wall_s += child.wall_s
        result.ref_wall_s += child.ref_wall_s
        result.step_ref_wall_s[step.name] = child.ref_wall_s
        result.maxrss_mb = max(result.maxrss_mb, child.maxrss_mb)
        problems = []
        if child.returncode == 0:
            problems, accuracy = step.check(step_dir)
            result.accuracy.update(accuracy)
            current = digests(step_dir)
            problems += same_digests(reference.setdefault(step.name, current), current)
            if trace_dir is not None:
                with open(trace_path, encoding="utf-8") as fh:
                    result.traces.append(json.load(fh))
        ledger.record(step.name, child, problems)
    result.output_bytes = tree_bytes(out)
    return result


def measure_setup(work, ledger) -> list[float]:
    """Reference wall times of fresh `rusent --version` processes (one
    warm-up first)."""
    env = child_env()
    walls = []
    for i in range(SETUP_REPEATS + 1):
        child = run_child(rusent_argv(["--version"]), work, env)
        ok = ledger.record("--version", child, [] if child.stdout.startswith("rusent ")
                           else [f"unexpected output {child.stdout!r}"])
        if i and ok:
            walls.append(child.ref_wall_s)
    return walls


def _trace_dir(work, name) -> str:
    path = os.path.join(work, "traces", name)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------------------
# per-layer metrics from traces

def layer_metrics(traces) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its traces (one per
    CLI process). Times are self times; counts and bytes are totals over
    the pass; widths, model sizes and peaks are maxima. Layers the
    workload never calls read 0."""
    from spans import self_times

    m = {name: 0 for name, _, _ in PER_LAYER}
    for trace in traces:
        selfs = self_times(trace["spans"])
        for span in trace["spans"]:
            name, attrs = span["name"], span["attrs"]
            key = "cli.self_s" if name.startswith("cli.") else f"{name}_s"
            if key in m:
                m[key] += selfs[span["id"]]
            layer, _, rest = name.partition(".")
            if layer in MEMORY_LAYERS and "peak_bytes" in attrs:
                m[f"{layer}.peak_mb"] = max(m[f"{layer}.peak_mb"], attrs["peak_bytes"] / 1e6)
            if name == "arff.parse":
                m["arff.bytes_in"] += attrs["bytes"]
            elif name == "arff.write":
                m["arff.bytes_out"] += attrs["bytes"]
            elif name == "corpus.tokenize":
                m["corpus.tokenize_calls"] += 1
            elif name == "vectorize.fit":
                m["vectorize.width"] = max(m["vectorize.width"], attrs["width"])
            elif name in ("vectorize.transform", "vectorize.matrix_from_dataset"):
                m["vectorize.width"] = max(m["vectorize.width"], attrs["width"])
                m["vectorize.nnz"] += attrs["nnz"]
                m["vectorize.dense_mb"] += attrs["rows"] * attrs["width"] * 8 / 1e6
            elif layer == "classifiers" and rest.endswith((".save", ".load")):
                key = f"classifiers.{rest.split('.')[0]}.model_bytes"
                if key in m:
                    m[key] = max(m[key], attrs["bytes"])
        for name, value in trace["counters"].items():
            if name in m:
                m[name] += value
    return m


# ---------------------------------------------------------------------------
# reporting

def machine(nproc) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": nproc,
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
    }


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rusent", "cli.py")):
        print(f"perfbench: no rusent sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    os.environ.update(THREAD_ENV)  # before numpy loads: the probe runs in this process
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit the CPU
    import rusent

    if not os.path.abspath(rusent.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported rusent from {rusent.__file__}, not {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    workload = WORKLOADS[args.workload]()
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ledger = Ledger()
    try:
        setup = [] if args.trace else measure_setup(work, ledger)
        workload.prepare(work, args.seed, ledger)
        steps = workload.steps()
        reference: dict = {}
        plain = []
        if args.trace:
            plain.append(run_pass(work, steps, ledger, reference))
            traced = run_pass(work, steps, ledger, reference, _trace_dir(work, "time"))
            memory = run_pass(work, steps, ledger, reference, _trace_dir(work, "memory"), True,
                              deadline=started + MEMORY_DEADLINE_S)
        else:
            first = time.perf_counter()
            while True:
                plain.append(run_pass(work, steps, ledger, reference))
                now = time.perf_counter()
                # stop before a pass that would end after --seconds
                expected_end = now + plain[-1].wall_s
                if len(plain) >= MIN_PASSES and (expected_end > first + args.seconds
                                                 or expected_end > started + RUN_BUDGET_S):
                    break
        try:
            shape = workload.shape(work)
        except (OSError, ValueError, ZeroDivisionError) as exc:
            shape = {"error": repr(exc)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    accuracy = plain[0].accuracy
    if args.trace:
        values = layer_metrics(traced.traces)
        peaks = layer_metrics(memory.traces)
        values.update({f"{layer}.peak_mb": peaks[f"{layer}.peak_mb"] for layer in MEMORY_LAYERS})
        values["trace.overhead_s"] = traced.ref_wall_s - plain[0].ref_wall_s
        metrics = {name: _metric(values[name], unit) for name, unit, _ in PER_LAYER}
    else:
        values = {
            "wall_s": sum(statistics.median(p.step_ref_wall_s[step.name] for p in plain)
                          for step in steps),
            "setup_s": statistics.median(setup) if setup else 0.0,
            "peak_rss_mb": max(p.maxrss_mb for p in plain),
            "output_mb": statistics.median(p.output_bytes for p in plain) / 1e6,
            "accuracy_mean": (statistics.fmean(accuracy.values())
                              if len(accuracy) == len(ALGORITHMS) else 0.0),
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}

    correct = ledger.failed == 0
    error_rate = ledger.failed / ledger.attempted
    for problem in ledger.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced pass(es)"
          f"{', 1 traced, 1 with tracemalloc' if args.trace else ''}")
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'error_rate':<34} {error_rate:.6g} ({ledger.failed}/{ledger.attempted} operations)")
    print(json.dumps({
        "detail": {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "passes": len(plain),
            "pass_wall_s": [p.wall_s for p in plain],
            "pass_ref_wall_s": [p.ref_wall_s for p in plain],
            "pass_speed": [p.ref_wall_s / p.wall_s for p in plain],
            "setup_s": setup, "shape": shape, "accuracy": accuracy,
            "memory_steps_skipped": memory.skipped if args.trace else [],
            "error_rate": error_rate, "machine": machine(nproc),
        }
    }))
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
