"""Seeded synthetic Roman-Urdu-style review generator.

The real 2000-review corpus behind this toolkit's design was never
published, so tests and demos run on a generated stand-in: each review
mixes a few words from its class's sentiment pool with neutral filler
about cars. The pools are disjoint, which makes the corpus deliberately
separable; every classifier should score well on it.

Generation is fully determined by (per_class, seed): per class, per file,
the draws are sentiment-word count, filler count, the word choices, and
one shuffle of the assembled review.
"""

from __future__ import annotations

import os

from .errors import ConfigError
from .rng import SplitMix64
from .util import atomic_write_text, make_dirs

POSITIVE_WORDS = (
    "acha", "achi", "zabardast", "behtreen", "umda", "shandar",
    "mazbut", "aala", "kamaal", "khoobsurat",
)
NEGATIVE_WORDS = (
    "kharab", "bakwas", "mehnga", "ganda", "bura", "fazool",
    "kamzor", "mehngy", "sust", "bekaar",
)
FILLER_WORDS = (
    "gari", "engine", "ac", "petrol", "service", "model", "seat",
    "tyre", "road", "ka", "ki", "hai", "bohot", "bhi", "par", "cars",
)

CLASS_POOLS = {"pos": POSITIVE_WORDS, "neg": NEGATIVE_WORDS}


def generate_review(rng: SplitMix64, label: str) -> str:
    pool = CLASS_POOLS[label]
    n_sentiment = 2 + rng.next_below(3)
    n_filler = 3 + rng.next_below(6)
    words = [pool[rng.next_below(len(pool))] for _ in range(n_sentiment)]
    words += [FILLER_WORDS[rng.next_below(len(FILLER_WORDS))] for _ in range(n_filler)]
    rng.shuffle(words)
    return " ".join(words)


def generate_corpus(root: str | os.PathLike, per_class: int = 1000, seed: int = 0) -> dict[str, int]:
    """Write root/<class>/<class>_<i>.txt files; returns per-class counts.

    per_class below 1 is a ConfigError, raised before anything is written;
    a path that cannot be written is a RusentError that names it."""
    if per_class < 1:
        raise ConfigError(f"per_class must be >= 1, not {per_class}")
    root = os.fspath(root)
    rng = SplitMix64(seed)
    counts = {}
    for label in sorted(CLASS_POOLS):
        class_dir = os.path.join(root, label)
        make_dirs(class_dir)
        for i in range(per_class):
            path = os.path.join(class_dir, f"{label}_{i:05d}.txt")
            atomic_write_text(path, generate_review(rng, label) + "\n")
        counts[label] = per_class
    return counts
