"""Shared data types for questions, passages, traces and answers.

All types are immutable after construction and serialize to/from plain
dicts (lower_snake_case keys) so every artifact file is a JSON-lines
stream of these records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterator, Optional


class Dataset(str, Enum):
    TWO_WIKI = "2wikimultihop"
    ADV_HOTPOT = "advhotpot"
    MUSIQUE = "musique"
    SYNTHETIC = "synthetic"


class Variant(str, Enum):
    MAX = "gensco-max"
    STOP = "gensco-stop"
    NO_QD = "gensco-no-qd"


class StopReason(str, Enum):
    FIN_KEYWORD = "fin_keyword"
    REPEATED_SUBQUESTION = "repeated_subquestion"
    LIKELIHOOD_STOP = "likelihood_stop"
    REPEATED_PASSAGE = "repeated_passage"
    MAX_LEVELS = "max_levels"


class ValidationError(ValueError):
    """An instance violates a domain invariant."""


class EmptyPassageSet(ValidationError):
    pass


class DanglingSupportIndex(ValidationError):
    pass


class BlankQuestion(ValidationError):
    pass


@dataclass(frozen=True)
class Passage:
    """One candidate context unit; identity is its position in the instance."""

    index: int
    title: str
    body: str

    def to_dict(self) -> dict[str, Any]:
        return {"index": self.index, "title": self.title, "body": self.body}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Passage":
        return cls(index=d["index"], title=d["title"], body=d["body"])


@dataclass(frozen=True)
class MultiHopInstance:
    id: str
    question: str
    gold_answer: str
    passages: tuple[Passage, ...]
    supporting_indices: Optional[frozenset[int]] = None
    dataset: Dataset = Dataset.SYNTHETIC

    def passage_by_index(self, index: int) -> Passage:
        for p in self.passages:
            if p.index == index:
                return p
        raise KeyError(index)

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "question": self.question,
            "gold_answer": self.gold_answer,
            "passages": [p.to_dict() for p in self.passages],
            "supporting_indices": (
                sorted(self.supporting_indices)
                if self.supporting_indices is not None
                else None
            ),
            "dataset": self.dataset.value,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "MultiHopInstance":
        supports = d.get("supporting_indices")
        return cls(
            id=d["id"],
            question=d["question"],
            gold_answer=d["gold_answer"],
            passages=tuple(Passage.from_dict(p) for p in d["passages"]),
            supporting_indices=frozenset(supports) if supports is not None else None,
            dataset=Dataset(d["dataset"]),
        )


@dataclass(frozen=True)
class SubQuestion:
    level: int
    text: str
    terminal: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {"level": self.level, "text": self.text, "terminal": self.terminal}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "SubQuestion":
        return cls(level=d["level"], text=d["text"], terminal=d["terminal"])


@dataclass(frozen=True)
class ScoredCandidate:
    """Score is mean per-token negative log-likelihood (nats/token); lower is better."""

    level: int
    passage_index: int
    score: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "level": self.level,
            "passage_index": self.passage_index,
            "score": self.score,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ScoredCandidate":
        return cls(level=d["level"], passage_index=d["passage_index"], score=d["score"])


@dataclass(frozen=True)
class TraceLevel:
    sub_question: SubQuestion
    candidates: tuple[ScoredCandidate, ...]
    chosen_index: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "sub_question": self.sub_question.to_dict(),
            "candidates": [c.to_dict() for c in self.candidates],
            "chosen_index": self.chosen_index,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "TraceLevel":
        return cls(
            sub_question=SubQuestion.from_dict(d["sub_question"]),
            candidates=tuple(ScoredCandidate.from_dict(c) for c in d["candidates"]),
            chosen_index=d["chosen_index"],
        )


@dataclass(frozen=True)
class SelectionTrace:
    instance_id: str
    variant: Variant
    levels: tuple[TraceLevel, ...]
    stop_reason: StopReason
    selected_sequence: tuple[int, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "instance_id": self.instance_id,
            "variant": self.variant.value,
            "levels": [lv.to_dict() for lv in self.levels],
            "stop_reason": self.stop_reason.value,
            "selected_sequence": list(self.selected_sequence),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "SelectionTrace":
        return cls(
            instance_id=d["instance_id"],
            variant=Variant(d["variant"]),
            levels=tuple(TraceLevel.from_dict(lv) for lv in d["levels"]),
            stop_reason=StopReason(d["stop_reason"]),
            selected_sequence=tuple(d["selected_sequence"]),
        )


@dataclass(frozen=True)
class GeneratorParams:
    model_id: str
    temperature: float
    shots: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "model_id": self.model_id,
            "temperature": self.temperature,
            "shots": self.shots,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "GeneratorParams":
        return cls(model_id=d["model_id"], temperature=d["temperature"], shots=d["shots"])


@dataclass(frozen=True)
class AnswerRecord:
    """Final answer plus the passage order actually placed in the prompt.

    ``permutation`` is recorded only when a shuffle ablation reordered the
    selected sequence; ``context_order[i] == selected_sequence[permutation[i]]``.
    """

    instance_id: str
    predicted_answer: str
    context_order: tuple[int, ...]
    generator_params: GeneratorParams
    permutation: Optional[tuple[int, ...]] = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "instance_id": self.instance_id,
            "predicted_answer": self.predicted_answer,
            "context_order": list(self.context_order),
            "generator_params": self.generator_params.to_dict(),
            "permutation": list(self.permutation) if self.permutation is not None else None,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "AnswerRecord":
        perm = d.get("permutation")
        return cls(
            instance_id=d["instance_id"],
            predicted_answer=d["predicted_answer"],
            context_order=tuple(d["context_order"]),
            generator_params=GeneratorParams.from_dict(d["generator_params"]),
            permutation=tuple(perm) if perm is not None else None,
        )


def validate_instance(inst: MultiHopInstance) -> MultiHopInstance:
    """Check domain invariants; returns the instance unchanged when valid."""
    if not inst.passages:
        raise EmptyPassageSet(f"instance {inst.id!r} has no candidate passages")
    if not inst.question.strip():
        raise BlankQuestion(f"instance {inst.id!r} has a blank question")
    if not inst.gold_answer.strip():
        raise BlankQuestion(f"instance {inst.id!r} has a blank gold answer")
    indices = [p.index for p in inst.passages]
    if len(set(indices)) != len(indices):
        raise ValidationError(f"instance {inst.id!r} has duplicate passage indices")
    for p in inst.passages:
        if not p.body.strip():
            raise ValidationError(
                f"instance {inst.id!r} passage {p.index} has an empty body"
            )
    if inst.supporting_indices is not None:
        dangling = set(inst.supporting_indices) - set(indices)
        if dangling:
            raise DanglingSupportIndex(
                f"instance {inst.id!r} supporting indices {sorted(dangling)} "
                f"do not refer to any passage"
            )
    return inst


def replay_trace(trace: SelectionTrace) -> bool:
    """Re-derive each level's choice from its stored candidates.

    True iff every chosen_index is the per-level score argmin (ties broken
    by lowest passage index) and selected_sequence mirrors the levels.
    """
    if len(trace.selected_sequence) != len(trace.levels):
        return False
    for lv, selected in zip(trace.levels, trace.selected_sequence):
        if lv.chosen_index != selected:
            return False
        best = min(lv.candidates, key=lambda c: (c.score, c.passage_index))
        if best.passage_index != lv.chosen_index:
            return False
    return True


def append_jsonl(fh, record: dict[str, Any]) -> None:
    fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
    fh.flush()


def read_jsonl(path) -> Iterator[dict[str, Any]]:
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: corrupt record: {exc}") from exc
