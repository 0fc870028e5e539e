"""Text normalization and train/test splitting.

Tokenization splits on maximal runs of WEKA's word-tokenizer delimiters,
a fixed set: whitespace plus common punctuation (DEFAULT_DELIMITERS).
Stop-word matching is exact token equality after lowercasing; no
stemming is applied.

The bundled Roman Urdu stop-word list lives in data/stopwords_roman_urdu.txt
and is a config input, not a constant: pass any file in the same format
(UTF-8, one word per line, blank lines and `#` comments ignored).
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

from .arff import Dataset
from .errors import ConfigError, CorpusError
from .rng import SplitMix64
from .util import read_text, split_lines

DEFAULT_DELIMITERS = frozenset(" \t\r\n.,;:'\"()?!")
_SPLITTER = re.compile("[" + "".join(re.escape(ch) for ch in sorted(DEFAULT_DELIMITERS)) + "]+")

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
DEFAULT_STOPWORD_FILE = os.path.join(_DATA_DIR, "stopwords_roman_urdu.txt")


@dataclass(frozen=True)
class StopWordList:
    """Set of lowercase words dropped before vectorization."""

    words: frozenset[str] = frozenset()

    def __post_init__(self):
        for w in self.words:
            if not w or w != w.lower():
                raise ConfigError(f"stop-word entries must be lowercase and non-empty: {w!r}")

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "StopWordList":
        words = set()
        for line in split_lines(read_text(path, CorpusError)):
            word = line.split("#", 1)[0].strip()
            if word:
                words.add(word.lower())
        return cls(frozenset(words))

    @classmethod
    def default(cls) -> "StopWordList":
        return cls.from_file(DEFAULT_STOPWORD_FILE)


def tokenize(text: str) -> list[str]:
    """Split on maximal delimiter runs; empty tokens never appear."""
    return [t for t in _SPLITTER.split(text) if t]


def lowercase(tokens: list[str]) -> list[str]:
    return [t.lower() for t in tokens]


def remove_stopwords(tokens: list[str], stops: StopWordList) -> list[str]:
    """Filter already-lowercased tokens, preserving order."""
    return [t for t in tokens if t not in stops.words]


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    stratified: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must lie strictly between 0 and 1")


def split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Partition a labeled dataset into disjoint train/test datasets.

    Stratified mode allocates per-class train counts by largest remainder
    so the class proportions match train_fraction to within one instance
    while the overall train size equals round(fraction * n). Within each
    class (iterated in declared order) instance indices are shuffled with
    one splitmix64 stream seeded from spec.seed, so a fixed seed always
    yields the same partition. Both outputs preserve original row order.
    """
    if dataset.class_index is None:
        raise CorpusError("split requires a dataset with a class attribute")
    n = len(dataset.instances)
    if n < 2:
        raise CorpusError("cannot split fewer than two instances")
    rng = SplitMix64(spec.seed)
    total_train = int(math.floor(spec.train_fraction * n + 0.5))
    total_train = min(max(total_train, 1), n - 1)

    if spec.stratified:
        by_class: dict[str, list[int]] = {v: [] for v in dataset.class_values}
        for i, row in enumerate(dataset.instances):
            label = row[dataset.class_index]
            if label is None:
                raise CorpusError("cannot stratify instances with a missing class value")
            by_class[label].append(i)
        for value, members in by_class.items():
            if not members:
                raise CorpusError(f"class {value!r} has no instances; stratification impossible")
        base = {}
        remainder = []
        for ci, value in enumerate(dataset.class_values):
            exact = spec.train_fraction * len(by_class[value])
            base[value] = int(math.floor(exact))
            remainder.append((-(exact - base[value]), ci, value))
        extras = total_train - sum(base.values())
        for _, _, value in sorted(remainder):
            if extras <= 0:
                break
            if base[value] < len(by_class[value]):
                base[value] += 1
                extras -= 1
        train_idx = set()
        for value in dataset.class_values:
            members = list(by_class[value])
            rng.shuffle(members)
            train_idx.update(members[: base[value]])
    else:
        order = list(range(n))
        rng.shuffle(order)
        train_idx = set(order[:total_train])

    train_rows = tuple(r for i, r in enumerate(dataset.instances) if i in train_idx)
    test_rows = tuple(r for i, r in enumerate(dataset.instances) if i not in train_idx)
    make = lambda rows: Dataset(
        dataset.relation_name, dataset.attributes, rows, dataset.class_index
    )
    return make(train_rows), make(test_rows)
