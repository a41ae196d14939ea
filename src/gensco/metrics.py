"""Answer correctness, faithfulness and retrieval metrics plus run-level
aggregation."""

from __future__ import annotations

import re
import statistics
import string
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence


class DegenerateVariance(ValueError):
    pass


@dataclass(frozen=True)
class AnswerMetrics:
    em: int
    f1: float
    precision: float
    recall: float


@dataclass(frozen=True)
class RetrievalMetrics:
    precision: float
    recall: float
    f1: float
    delta_hops: int


@dataclass(frozen=True)
class InstanceEval:
    """One row of a run's report. ``vars(row)`` is its ``per_instance``
    object in report.json, and the field order gives report.csv's columns.
    The retrieval fields are None for an instance without supporting labels."""

    instance_id: str
    em: int
    f1: float
    precision: float
    recall: float
    k_precision: float
    retrieval_precision: Optional[float] = None
    retrieval_recall: Optional[float] = None
    retrieval_f1: Optional[float] = None
    delta_hops: Optional[int] = None
    supporting_count: Optional[int] = None


@dataclass(frozen=True)
class EvalReport:
    count: int
    means: dict[str, float]  # raw fractions
    percents: dict[str, float]  # means scaled by 100, the tables' convention
    delta_hops_hist: dict[int, dict[int, int]]  # supporting count -> delta -> n
    instances_missing: int = 0  # of the run's instances, those without an answer


_ARTICLES = re.compile(r"\b(a|an|the)\b")
_PUNCT = re.compile(f"[{re.escape(string.punctuation)}]")


class _Normalized(str):
    """Text as normalize_answer returns it. Normalizing is idempotent, so
    normalize_answer returns such text as it is: a row's prediction is
    normalized once for its answer metrics and its k-precision."""


def normalize_answer(text: str) -> str:
    """SQuAD-style normalization: lower-case, strip punctuation, drop
    the articles a/an/the, collapse whitespace."""
    if type(text) is _Normalized:
        return text
    text = _PUNCT.sub("", text.lower())
    text = _ARTICLES.sub(" ", text)
    return _Normalized(" ".join(text.split()))


def _f1(precision: float, recall: float) -> float:
    return 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)


def answer_metrics(predicted: str, gold: str) -> AnswerMetrics:
    """Token-level multiset overlap of the normalized strings."""
    norm_pred = normalize_answer(predicted)
    norm_gold = normalize_answer(gold)
    em = int(norm_pred == norm_gold)
    pred_tokens = norm_pred.split()
    gold_tokens = norm_gold.split()
    if not pred_tokens or not gold_tokens:
        score = float(pred_tokens == gold_tokens)
        return AnswerMetrics(em=em, f1=score, precision=score, recall=score)
    overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return AnswerMetrics(em=em, f1=_f1(precision, recall), precision=precision, recall=recall)


def k_precision(predicted: str, passages: Sequence[str]) -> float:
    """Fraction of distinct predicted tokens grounded in the passages.

    Type-level membership: each predicted token type counts once; an
    empty prediction scores 0 by convention.
    """
    pred_tokens = set(normalize_answer(predicted).split())
    if not pred_tokens:
        return 0.0
    passage_tokens = set(normalize_answer(" ".join(passages)).split())
    grounded = sum(1 for tok in pred_tokens if tok in passage_tokens)
    return grounded / len(pred_tokens)


def retrieval_metrics(
    selected_sequence: Sequence[int],
    supporting_indices: set[int],
) -> RetrievalMetrics:
    """Set precision/recall/F1 over deduplicated selected indices."""
    selected = set(selected_sequence)
    supports = set(supporting_indices)
    hits = len(selected & supports)
    precision = hits / len(selected) if selected else 0.0
    recall = hits / len(supports) if supports else 0.0
    return RetrievalMetrics(
        precision=precision,
        recall=recall,
        f1=_f1(precision, recall),
        delta_hops=len(supports) - len(selected),
    )


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("pearson needs two equal-length vectors of size >= 2")
    if len(set(xs)) == 1 or len(set(ys)) == 1:
        raise DegenerateVariance("pearson is undefined for a constant vector")
    return statistics.correlation(xs, ys)


def evaluate_instance(
    instance_id: str,
    predicted: str,
    gold: str,
    passages: Sequence[str],
    selected_sequence: Sequence[int],
    supporting_indices: Optional[frozenset[int]],
) -> InstanceEval:
    """The report row of one answered instance."""
    predicted = normalize_answer(predicted)
    am = answer_metrics(predicted, gold)
    row = (instance_id, am.em, am.f1, am.precision, am.recall, k_precision(predicted, passages))
    if supporting_indices is None:
        return InstanceEval(*row)
    rm = retrieval_metrics(selected_sequence, supporting_indices)
    return InstanceEval(
        *row, rm.precision, rm.recall, rm.f1, rm.delta_hops, len(supporting_indices)
    )


# The row fields a report averages, each over the rows where it is not None.
ANSWER_FIELDS = ("em", "f1", "precision", "recall")
MEAN_FIELDS = ANSWER_FIELDS + (
    "k_precision", "retrieval_precision", "retrieval_recall", "retrieval_f1"
)


def aggregate(records: Sequence[InstanceEval]) -> EvalReport:
    means: dict[str, float] = {}
    for name in MEAN_FIELDS:
        values = [v for v in (getattr(r, name) for r in records) if v is not None]
        if values:
            means[name] = sum(values) / len(values)

    hist: dict[int, dict[int, int]] = {}
    for r in records:
        if r.delta_hops is not None:
            bucket = hist.setdefault(r.supporting_count or 0, {})
            bucket[r.delta_hops] = bucket.get(r.delta_hops, 0) + 1

    return EvalReport(
        count=len(records),
        means=means,
        percents={k: v * 100.0 for k, v in means.items()},
        delta_hops_hist=hist,
    )
