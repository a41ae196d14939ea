"""Locally reproducible baselines and ablations: Okapi BM25 ranking,
precomputed-ranking ingestion, and the seeded shuffle used by the
order-matters ablation."""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .models import Passage, Record, read_jsonl

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


def tokenize(text: str) -> list[str]:
    """Case-fold and split on non-alphanumerics; no stop-word list."""
    return [t for t in _TOKEN_SPLIT.split(text.casefold()) if t]


@dataclass
class Bm25Index:
    """Okapi BM25 with the +1-smoothed idf (always non-negative, so term
    frequency monotonicity holds for every term)."""

    passages: tuple[Passage, ...]
    k1: float
    b: float
    doc_freq: Counter = field(init=False)
    term_freqs: list[Counter] = field(init=False)
    lengths: list[int] = field(init=False)
    avg_length: float = field(init=False)

    def __post_init__(self) -> None:
        self.term_freqs = []
        self.lengths = []
        self.doc_freq = Counter()
        for p in self.passages:
            terms = tokenize(f"{p.title} {p.body}" if p.title else p.body)
            tf = Counter(terms)
            self.term_freqs.append(tf)
            self.lengths.append(len(terms))
            self.doc_freq.update(tf.keys())
        self.avg_length = sum(self.lengths) / len(self.lengths)

    def idf(self, term: str) -> float:
        n = len(self.passages)
        df = self.doc_freq.get(term, 0)
        if df == 0:
            return 0.0
        return math.log((n - df + 0.5) / (df + 0.5) + 1.0)

    def score(self, query_terms: Sequence[str], position: int) -> float:
        tf = self.term_freqs[position]
        if not tf:
            return 0.0  # no terms to match; when no passage has any, avg_length is 0
        length = self.lengths[position]
        norm = self.k1 * (1 - self.b + self.b * length / self.avg_length)
        total = 0.0
        for term in query_terms:
            f = tf.get(term, 0)
            if f == 0:
                continue
            total += self.idf(term) * f * (self.k1 + 1) / (f + norm)
        return total


def bm25_rank(question: str, passages: Sequence[Passage], k1: float, b: float) -> list[Passage]:
    """Passages by descending Okapi score; ties keep passage-index order."""
    index = Bm25Index(tuple(passages), k1, b)
    query_terms = tokenize(question)
    scored = [
        (index.score(query_terms, pos), p) for pos, p in enumerate(index.passages)
    ]
    scored.sort(key=lambda item: (-item[0], item[1].index))
    return [p for _, p in scored]


def shuffle_sequence(
    sequence: Sequence[int], seed: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Seeded uniform permutation, re-drawn until non-identity for length >= 2.

    Returns (permuted sequence, permutation) where
    ``permuted[i] == sequence[permutation[i]]``.
    """
    n = len(sequence)
    perm = list(range(n))
    if n >= 2:
        rng = random.Random(seed)
        while perm == list(range(n)):
            rng.shuffle(perm)
    return tuple(sequence[i] for i in perm), tuple(perm)


@dataclass(frozen=True)
class Ranking(Record):
    """One line of a precomputed ranking file: passage indices, best first."""

    instance_id: str
    ranking: tuple[int, ...]


def load_rankings(path) -> dict[str, list[int]]:
    """The rankings of a precomputed ranking file, one ``Ranking`` per line."""
    return {r.instance_id: list(r.ranking) for r in read_jsonl(path, Ranking.from_dict)}
