"""Run one rusent CLI command with spans around each layer's public calls.

    python3 perfbench/traced_cli.py TRACE_OUT [--memory] -- <rusent arguments>

The recording is installed from outside the package: the names the CLI
looks up in its own namespace (it imports `parse_arff`, `fit`,
`train_mnb`, ... directly), `rusent.evaluation.evaluate` (which
`compare` resolves there), the tokenizer as `rusent.vectorize` sees it,
and `Model.save` / `Model.predict` / `SplitMix64.next_uint64` as class
attributes. The trace (see spans.py) is written to TRACE_OUT when the
command returns; the exit code is the command's own.

--memory also runs tracemalloc and records each span's peak. It slows
Python allocations by up to an order of magnitude, so the benchmark
takes span times from a pass without it.
"""

from __future__ import annotations

import os
import sys
import tracemalloc

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Recorder  # noqa: E402


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _matrix_attrs(args, matrix):
    rows = matrix.rows
    return {"rows": int(rows.shape[0]), "width": int(rows.shape[1]),
            "nnz": int((rows != 0).sum())}


def install(rec: Recorder) -> None:
    import rusent.cli as cli
    import rusent.evaluation as evaluation
    import rusent.vectorize as vectorize
    from rusent.classifiers import ALGORITHMS
    from rusent.classifiers.base import Model
    from rusent.rng import SplitMix64

    cli.parse_arff = rec.wrap(cli.parse_arff, "arff.parse",
                              attrs=lambda a, r: {"bytes": len(a[0])})
    cli.write_arff = rec.wrap(cli.write_arff, "arff.write",
                              attrs=lambda a, r: {"bytes": len(r.encode("utf-8"))})
    vectorize.tokenize = rec.wrap(vectorize.tokenize, "corpus.tokenize")
    cli.fit = rec.wrap(cli.fit, "vectorize.fit", attrs=lambda a, r: {"width": r.width})
    cli.transform = rec.wrap(cli.transform, "vectorize.transform", attrs=_matrix_attrs)
    cli.to_arff = rec.wrap(cli.to_arff, "vectorize.to_arff")
    cli.matrix_from_dataset = rec.wrap(cli.matrix_from_dataset,
                                       "vectorize.matrix_from_dataset", attrs=_matrix_attrs)
    for alg in ALGORITHMS:
        setattr(cli, f"train_{alg}",
                rec.wrap(getattr(cli, f"train_{alg}"), f"classifiers.{alg}.train"))
    cli.load_model = rec.wrap(cli.load_model, lambda a, r: f"classifiers.{r.variant}.load",
                              attrs=lambda a, r: {"bytes": os.path.getsize(a[0])})
    evaluate = rec.wrap(evaluation.evaluate,
                        lambda a, r: f"evaluation.{a[0].variant}.evaluate")
    evaluation.evaluate = cli.evaluate = evaluate

    for cls in (Model, *_subclasses(Model)):
        if "save" in vars(cls):
            cls.save = rec.wrap(cls.save, lambda a, r: f"classifiers.{a[0].variant}.save",
                                attrs=lambda a, r: {"bytes": os.path.getsize(a[1])})
        if "predict" in vars(cls):
            cls.predict = rec.count(cls.predict, "evaluation.predict_calls")
    SplitMix64.next_uint64 = rec.count(SplitMix64.next_uint64, "rng.draws")


def main(argv: list[str]) -> int:
    memory = argv[1:2] == ["--memory"]
    if memory:
        argv = argv[:1] + argv[2:]
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    trace_out, command = argv[0], argv[2:]
    if memory:
        tracemalloc.start()
    rec = Recorder(memory=memory)
    install(rec)
    import rusent.cli as cli

    span = rec.open(f"cli.{command[0] if command else 'none'}")
    try:
        code = cli.main(command)
    finally:
        rec.close(span)
        rec.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
