"""Seeded Zipf review corpus for the large-vocabulary workloads.

The bundled synth corpus has 31 terms, so it never exercises wide,
sparse feature rows. This generator writes a two-class raw-text ARFF
(`text` string, `class` {neg,pos}) whose terms follow a Zipf law over a
large made-up vocabulary, closer to real review text.

Each review has 10-30 tokens. A token is, in this order of draws:
  - a Roman Urdu stop word with probability STOP_SHARE (stop-word
    removal has real work to do),
  - else a word from its class's own sentiment pool with probability
    SENTIMENT_SHARE (the class signal),
  - else a word from the shared neutral pool.
Pool words are drawn by Zipf rank with weight 1 / rank**EXPONENT.

Every draw comes from rusent.rng.SplitMix64, so (n_docs, seed) fixes the
bytes written. Documents alternate neg/pos, so classes are balanced.
"""

from __future__ import annotations

import bisect
import itertools

from rusent.rng import SplitMix64

EXPONENT = 1.0
NEUTRAL_WORDS = 2300
SENTIMENT_WORDS = 200
STOP_SHARE = 0.15
SENTIMENT_SHARE = 0.35
MIN_TOKENS, MAX_TOKENS = 10, 30
STOP_WORDS = (
    "ka", "ki", "ke", "ko", "se", "mein", "par", "aur", "ya", "ye",
    "wo", "hai", "hain", "tha", "bhi", "to", "na", "ho",
)
_SYLLABLES = (
    "ba", "da", "fa", "ga", "ha", "ja", "ka", "la", "ma", "na", "pa", "ra",
    "sa", "ta", "wa", "za", "be", "de", "ge", "ke", "le", "me", "ne", "re",
    "bi", "di", "gi", "ki", "li", "mi", "ni", "ri", "bo", "do", "go", "ko",
    "lo", "mo", "no", "ro", "bu", "du", "gu", "ku", "lu", "mu", "nu", "ru",
)
CLASSES = ("neg", "pos")


def _words(prefix: str, n: int) -> tuple[str, ...]:
    """n distinct lowercase words: prefix plus three syllables."""
    combos = itertools.product(_SYLLABLES, repeat=3)
    return tuple(prefix + "".join(c) for c in itertools.islice(combos, n))


def _cumulative(n: int) -> list[float]:
    total, out = 0.0, []
    for rank in range(1, n + 1):
        total += 1.0 / rank**EXPONENT
        out.append(total)
    return out


class ZipfPool:
    """Words drawn by Zipf rank."""

    def __init__(self, words: tuple[str, ...]):
        self.words = words
        self._cum = _cumulative(len(words))

    def draw(self, rng: SplitMix64) -> str:
        i = bisect.bisect_right(self._cum, rng.next_float() * self._cum[-1])
        return self.words[min(i, len(self.words) - 1)]


NEUTRAL = ZipfPool(_words("", NEUTRAL_WORDS))
SENTIMENT = {"neg": ZipfPool(_words("x", SENTIMENT_WORDS)),
             "pos": ZipfPool(_words("y", SENTIMENT_WORDS))}


def review(rng: SplitMix64, label: str) -> str:
    n = MIN_TOKENS + rng.next_below(MAX_TOKENS - MIN_TOKENS + 1)
    tokens = []
    for _ in range(n):
        u = rng.next_float()
        if u < STOP_SHARE:
            tokens.append(STOP_WORDS[rng.next_below(len(STOP_WORDS))])
        elif u < STOP_SHARE + (1.0 - STOP_SHARE) * SENTIMENT_SHARE:
            tokens.append(SENTIMENT[label].draw(rng))
        else:
            tokens.append(NEUTRAL.draw(rng))
    return " ".join(tokens)


def corpus_arff(n_docs: int, seed: int) -> str:
    """Raw-text ARFF of n_docs reviews, alternating neg and pos."""
    rng = SplitMix64(seed)
    lines = ["@relation zipf", "@attribute text string",
             "@attribute class {neg,pos}", "@data"]
    for i in range(n_docs):
        label = CLASSES[i % 2]
        lines.append(f"'{review(rng, label)}',{label}")
    return "\n".join(lines) + "\n"
