"""Locally reproducible baselines and ablations: Okapi BM25 ranking,
precomputed-ranking ingestion, and the seeded shuffle used by the
order-matters ablation."""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .models import Passage, Record, read_jsonl

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")


def tokenize(text: str) -> list[str]:
    """Case-fold and split on non-alphanumerics; no stop-word list."""
    return [t for t in _TOKEN_SPLIT.split(text.casefold()) if t]


def bm25_scores(question: str, passages: Sequence[Passage], k1: float, b: float) -> list[float]:
    """Okapi BM25 of each passage's title and body, with the +1-smoothed idf
    (always non-negative, so term frequency monotonicity holds for every
    term). A passage without terms scores 0.0."""
    term_freqs = [Counter(tokenize(f"{p.title} {p.body}")) for p in passages]
    lengths = [tf.total() for tf in term_freqs]
    n = len(passages)
    avg_length = sum(lengths) / n
    doc_freq = Counter(term for tf in term_freqs for term in tf)
    query_terms = tokenize(question)
    scores = []
    for tf, length in zip(term_freqs, lengths):
        total = 0.0
        if tf:  # when no passage has terms, avg_length is 0
            norm = k1 * (1 - b + b * length / avg_length)
            for term in query_terms:
                f = tf[term]
                if f:
                    df = doc_freq[term]
                    idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
                    total += idf * f * (k1 + 1) / (f + norm)
        scores.append(total)
    return scores


def bm25_rank(question: str, passages: Sequence[Passage], k1: float, b: float) -> list[Passage]:
    """Passages by descending Okapi score; ties keep passage-index order."""
    scored = zip(bm25_scores(question, passages, k1, b), passages)
    return [p for _, p in sorted(scored, key=lambda item: (-item[0], item[1].index))]


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
