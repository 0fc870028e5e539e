"""Command-line surface for the full pipeline.

Subcommands:

    convert     load a root/<class>/*.txt corpus and write it as ARFF
    vectorize   fit a vocabulary on a train ARFF, transform train (+test)
    train       train one of the eight classifiers on a vectorized ARFF
    evaluate    score a persisted model on a test ARFF
    compare     train + evaluate every requested algorithm in one run
    gen-corpus  write the bundled synthetic review corpus

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
Diagnostics go to stderr; results go to files or stdout.

Every command that writes files also writes a JSON run manifest next to
its outputs; re-running the command described by a manifest reproduces
the outputs byte for byte (manifests carry no timestamps).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import replace

from . import __version__, synth
from .arff import load_text_directory, parse_arff, write_arff
from .classifiers import (
    ALGORITHMS,
    TreeConfig,
    load_model,
    train_adaboost,
    train_bagging,
    train_dtree,
    train_knn,
    train_mlp,
    train_mnb,
    train_rforest,
    train_svm,
)
from .corpus import StopWordList
from .errors import ConfigError, ModelError, RusentError
from .evaluation import compare as compare_models
from .evaluation import check_test, evaluate, render_json, render_table
from .util import atomic_write_text, make_dirs, named, parse_file
from .vectorize import fit, matrix_from_dataset, read_matrix, to_arff, transform

MANIFEST_SCHEMA = "rusent-manifest/1"


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_manifest(path, command, config):
    payload = {
        "schema": MANIFEST_SCHEMA,
        "tool": "rusent",
        "version": __version__,
        "command": command,
        "config": config,
    }
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _stopwords(spec: str) -> StopWordList:
    if spec == "none":
        return StopWordList()
    if spec == "default":
        return StopWordList.default()
    return StopWordList.from_file(spec)


# ---------------------------------------------------------------------------
# subcommands

def cmd_convert(args) -> int:
    dataset = load_text_directory(args.input_dir)
    atomic_write_text(args.output, write_arff(dataset))
    _write_manifest(args.output + ".manifest.json", "convert", {
        "input_dir": args.input_dir, "output": args.output,
    })
    counts = {v: 0 for v in dataset.class_values}
    for row in dataset.instances:
        counts[row[dataset.class_index]] += 1
    print(f"wrote {len(dataset.instances)} instances to {args.output}")
    for value in dataset.class_values:
        print(f"  class {value}: {counts[value]}")
    return 0


def _vectorize_config(args) -> dict:
    return {"weighting": args.weighting, "stopwords": args.stopwords,
            "min_term_freq": args.min_term_freq}


def _vectorize(args, train, test):
    """Fit a vector space on the raw-text train Dataset; return it with the
    train matrix and the test matrix (None without a test Dataset)."""
    space = fit(train, weighting=args.weighting, stopwords=_stopwords(args.stopwords),
                min_term_freq=args.min_term_freq)
    train_matrix = transform(space, train)
    test_matrix = None
    if test is not None:
        test_matrix = transform(space, test)
        _warn_zero_rows(space, test, test_matrix)
    return space, train_matrix, test_matrix


def _write_vectorized(space, vocab_out, *outputs):
    """Write each (path, matrix) of outputs as vectorized ARFF, then the
    vocabulary, one term per line."""
    for path, matrix in outputs:
        atomic_write_text(path, to_arff(space, matrix))
    atomic_write_text(vocab_out, "\n".join(space.vocabulary) + "\n")


def cmd_vectorize(args) -> int:
    if args.test and not args.out_test:
        raise ConfigError("--out-test is required when --test is given")
    # every input is read and transformed before any file is written
    train = parse_file(args.train, parse_arff)
    test = parse_file(args.test, parse_arff) if args.test else None
    space, train_matrix, test_matrix = _vectorize(args, train, test)
    vocab_out = args.vocab_out or os.path.splitext(args.out_train)[0] + ".vocab.txt"
    outputs = {"out_train": args.out_train, "vocab_out": vocab_out}
    written = [(args.out_train, train_matrix)]
    if test is not None:
        outputs["out_test"] = args.out_test
        written.append((args.out_test, test_matrix))
    _write_vectorized(space, vocab_out, *written)

    _write_manifest(args.out_train + ".manifest.json", "vectorize", {
        "train": args.train, "test": args.test, **_vectorize_config(args), **outputs,
    })
    print(f"vocabulary size {space.width}; wrote {', '.join(outputs.values())}")
    return 0


def _warn_zero_rows(space, test, test_matrix) -> None:
    """Say on stderr how many test rows became all zeros, and why."""
    empty = ~test_matrix.nonzero_rows()
    if space.weighting == "tfidf" and empty.any():
        # a term in every training document weighs ln(1) = 0 under tf-idf
        idf_zero = empty & transform(replace(space, weighting="count"), test).nonzero_rows()
        empty &= ~idf_zero
        if idf_zero.any():
            print(
                f"warning: {int(idf_zero.sum())} test instance(s) became all-zero rows:"
                " each of their vocabulary words occurs in every training document,"
                " so its tf-idf weight is 0",
                file=sys.stderr,
            )
    if empty.any():
        print(
            f"warning: {int(empty.sum())} test instance(s) contain only out-of-vocabulary"
            " words and became all-zero rows",
            file=sys.stderr,
        )


def _hidden_layers(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


def _flag_type(convert, expected: str, valid):
    """An argparse type: convert(text), if that raises no ValueError and
    valid() holds for the result; else a usage error (exit 1), which
    argparse prefixes with the flag's name."""
    def flag_value(text: str):
        try:
            value = convert(text)
            ok = valid(value)
        except ValueError:
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return flag_value


# Each range here needs no data; a bound that does (k up to the number of
# training rows, features per split up to the width) is the trainer's.
_COUNT = _flag_type(int, "an integer of at least 1", lambda v: v >= 1)
_DEPTH = _flag_type(int, "an integer of at least 0", lambda v: v >= 0)
_POSITIVE = _flag_type(float, "a finite number above 0", lambda v: 0.0 < v < math.inf)
_FINITE = _flag_type(float, "a finite number", math.isfinite)
# the text itself, which the manifest records
_HIDDEN = _flag_type(str, "comma-separated layer widths of at least 1",
                     lambda text: min(_hidden_layers(text), default=0) >= 1)


def _train(algorithm: str, args, matrix):
    tree_cfg = TreeConfig(args.max_depth, args.min_leaf)
    if algorithm == "mnb":
        return train_mnb(matrix, alpha=args.alpha)
    if algorithm == "knn":
        return train_knn(matrix, k=args.k, distance=args.distance, p=args.minkowski_p)
    if algorithm == "dtree":
        return train_dtree(matrix, max_depth=args.max_depth, min_leaf=args.min_leaf)
    if algorithm == "bagging":
        return train_bagging(matrix, m=args.trees, base=tree_cfg, seed=args.seed)
    if algorithm == "rforest":
        return train_rforest(matrix, m=args.trees, features_per_split=args.features_per_split,
                             base=tree_cfg, seed=args.seed)
    if algorithm == "adaboost":
        return train_adaboost(matrix, rounds=args.rounds,
                              weak=TreeConfig(args.weak_depth, args.min_leaf))
    if algorithm == "svm":
        return train_svm(matrix, lam=args.svm_lambda, epochs=args.svm_epochs, seed=args.seed)
    if algorithm == "mlp":
        return train_mlp(
            matrix, hidden=_hidden_layers(args.hidden), activation=args.activation,
            learning_rate=args.learning_rate, epochs=args.mlp_epochs,
            batch_size=args.batch_size, seed=args.seed,
        )
    raise RusentError(f"unknown algorithm {algorithm!r}")


def _hyper_config(args) -> dict:
    dests = (flag[2:].replace("-", "_") for flag in _HYPER_FLAGS)
    return {dest: getattr(args, dest) for dest in dests}


def _check_train(matrix) -> None:
    """ModelError for an empty training set, which no algorithm can learn."""
    if matrix.n_rows == 0:
        raise ModelError("cannot train on an empty training set")


def cmd_train(args) -> int:
    matrix = parse_file(args.train, read_matrix)
    _check_train(matrix)
    started = time.perf_counter()
    model = _train(args.algorithm, args, matrix)
    elapsed = time.perf_counter() - started
    model.save(args.model_out)
    _write_manifest(args.model_out + ".manifest.json", "train", {
        "train": args.train, "algorithm": args.algorithm, "seed": args.seed,
        "model_out": args.model_out, **_hyper_config(args),
    })
    report = evaluate(model, matrix)
    print(f"trained {args.algorithm} in {elapsed:.3f} s")
    print(f"training accuracy {100.0 * report.accuracy:.2f}%")
    return 0


def cmd_evaluate(args) -> int:
    model = load_model(args.model)
    matrix = parse_file(args.test, read_matrix)
    report = evaluate(model, matrix, args.positive_class)
    print(render_table([report]), end="")
    if args.report_out:
        atomic_write_text(args.report_out, render_json([report]))
        _write_manifest(args.report_out + ".manifest.json", "evaluate", {
            "model": args.model, "test": args.test,
            "positive_class": args.positive_class, "report_out": args.report_out,
        })
    return 0


def cmd_compare(args) -> int:
    train = parse_file(args.train, parse_arff)
    test = parse_file(args.test, parse_arff)

    space = None
    if any(a.kind == "string" for a in train.attributes):
        # raw text corpus: one shared vectorization for every algorithm
        space, train_matrix, test_matrix = _vectorize(args, train, test)
    else:
        with named(args.train):
            train_matrix = matrix_from_dataset(train)
        with named(args.test):
            test_matrix = matrix_from_dataset(test)

    # made only once both inputs are read and checked, so that bad input leaves no directory
    _check_train(train_matrix)
    check_test(test_matrix, train_matrix.width, train_matrix.class_values, args.positive_class)
    make_dirs(args.out_dir)
    if space is not None:
        _write_vectorized(space, os.path.join(args.out_dir, "vocabulary.txt"),
                          (os.path.join(args.out_dir, "train_vectorized.arff"), train_matrix),
                          (os.path.join(args.out_dir, "test_vectorized.arff"), test_matrix))

    models = []
    failures = []
    models_dir = os.path.join(args.out_dir, "models")
    make_dirs(models_dir)
    for algorithm in args.algorithms:
        try:
            model = _train(algorithm, args, train_matrix)
            model.save(os.path.join(models_dir, f"{algorithm}.model"))
            models.append(model)
        except RusentError as exc:
            failures.append(algorithm)
            print(f"error: {algorithm} failed: {exc}", file=sys.stderr)

    if models:
        reports = compare_models(models, test_matrix, args.positive_class)
        table = render_table(reports)
        atomic_write_text(os.path.join(args.out_dir, "report.txt"), table)
        atomic_write_text(os.path.join(args.out_dir, "report.json"), render_json(reports))
        print(table, end="")

    _write_manifest(os.path.join(args.out_dir, "manifest.json"), "compare", {
        "train": args.train, "test": args.test, "algorithms": list(args.algorithms),
        "seed": args.seed, "positive_class": args.positive_class,
        "out_dir": args.out_dir,
        "vectorize": None if space is None else _vectorize_config(args),
        **_hyper_config(args),
    })
    if failures:
        print(f"error: {len(failures)} of {len(args.algorithms)} algorithms failed:"
              f" {', '.join(failures)}", file=sys.stderr)
        return 2
    return 0


def cmd_gen_corpus(args) -> int:
    counts = synth.generate_corpus(args.out, per_class=args.per_class, seed=args.seed)
    _write_manifest(os.path.join(args.out, "manifest.json"), "gen-corpus", {
        "out": args.out, "per_class": args.per_class, "seed": args.seed,
    })
    total = sum(counts.values())
    print(f"wrote {total} reviews under {args.out} "
          f"({', '.join(f'{k}: {v}' for k, v in sorted(counts.items()))})")
    return 0


# ---------------------------------------------------------------------------
# argument wiring

# The hyperparameter flags of train and compare, in the order the help lists
# them; each manifest records every one of them under its dest name.
_HYPER_FLAGS = {
    "--alpha": dict(type=_POSITIVE, default=1.0, help="MNB smoothing (default 1.0)"),
    "--k": dict(type=_COUNT, default=1, help="k-NN neighbor count (default 1)"),
    "--distance": dict(choices=("euclidean", "manhattan", "minkowski"),
                       default="euclidean", help="k-NN distance (default euclidean)"),
    "--minkowski-p": dict(type=_FINITE, default=3.0, help="minkowski exponent (default 3)"),
    "--max-depth": dict(type=_DEPTH, default=None, help="tree depth limit (default unlimited)"),
    "--min-leaf": dict(type=_COUNT, default=1,
                       help="minimum instances per tree leaf (default 1)"),
    "--trees": dict(type=_COUNT, default=10, help="bagging/forest ensemble size (default 10)"),
    "--features-per-split": dict(type=_COUNT, default=None,
                                 help="forest feature subset size (default ceil(sqrt(d)))"),
    "--rounds": dict(type=_COUNT, default=10, help="AdaBoost rounds (default 10)"),
    "--weak-depth": dict(type=_DEPTH, default=1,
                         help="AdaBoost weak-tree depth (default 1 = stumps)"),
    "--svm-lambda": dict(type=_POSITIVE, default=1e-3, help="SVM regularization (default 1e-3)"),
    "--svm-epochs": dict(type=_COUNT, default=100, help="SVM training epochs (default 100)"),
    "--hidden": dict(type=_HIDDEN, default="32,32",
                     help="MLP hidden layer widths, comma separated (default 32,32)"),
    "--activation": dict(choices=("logistic", "tanh"), default="logistic",
                         help="MLP hidden activation (default logistic)"),
    "--learning-rate": dict(type=_POSITIVE, default=0.1, help="MLP learning rate (default 0.1)"),
    "--mlp-epochs": dict(type=_DEPTH, default=200, help="MLP training epochs (default 200)"),
    "--batch-size": dict(type=_COUNT, default=16, help="MLP mini-batch size (default 16)"),
}


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("hyperparameters")
    for flag, options in _HYPER_FLAGS.items():
        g.add_argument(flag, **options)


def _add_vectorize_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--weighting", choices=("binary", "count", "tfidf"), default="count",
                   help="feature weighting (default count)")
    p.add_argument("--stopwords", default="default",
                   help="'default', 'none', or a stop-word file path")
    p.add_argument("--min-term-freq", type=_COUNT, default=1,
                   help="drop terms occurring fewer times in training (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rusent",
                     description="Roman Urdu sentiment classification toolkit")
    parser.add_argument("--version", action="version", version=f"rusent {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("convert", help="load a class-per-directory text corpus as ARFF")
    p.add_argument("input_dir")
    p.add_argument("output")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("vectorize", help="fit a vocabulary and emit numeric ARFFs")
    p.add_argument("--train", required=True)
    p.add_argument("--test")
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test")
    p.add_argument("--vocab-out")
    _add_vectorize_flags(p)
    p.set_defaults(func=cmd_vectorize)

    p = sub.add_parser("train", help="train one classifier on a vectorized ARFF")
    p.add_argument("--train", required=True)
    p.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    p.add_argument("--model-out", required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_hyper_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a persisted model on a test ARFF")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--positive-class")
    p.add_argument("--report-out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="train and evaluate several algorithms")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--algorithms", nargs="+", choices=ALGORITHMS,
                   default=list(ALGORITHMS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--positive-class")
    _add_vectorize_flags(p)
    _add_hyper_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gen-corpus", help="generate the synthetic review corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--per-class", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "distance", None) == "minkowski" and args.minkowski_p <= 0:
        parser.error(f"argument --minkowski-p: expected a number above 0 under"
                     f" --distance minkowski, got {args.minkowski_p!r}")
    named = getattr(args, "algorithms", [])
    if len(set(named)) < len(named):
        parser.error(f"argument --algorithms: {max(named, key=named.count)} is repeated")
    try:
        return args.func(args)
    except RusentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # unexpected: internal error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
