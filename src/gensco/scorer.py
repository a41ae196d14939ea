"""Candidate selection: the best candidate of a level wins (argmin mean
NLL, ties to the lowest passage index)."""

from __future__ import annotations

from typing import Sequence

from .models import MAX_NLL, MIN_NLL, ScoredCandidate


def select_best(
    candidates: Sequence[ScoredCandidate], score_sign: str = MIN_NLL
) -> ScoredCandidate:
    if score_sign == MAX_NLL:
        return min(candidates, key=lambda c: (-c.score, c.passage_index))
    return min(candidates, key=lambda c: (c.score, c.passage_index))
