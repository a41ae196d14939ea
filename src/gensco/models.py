"""Shared data types for questions, passages, traces and answers.

All types are immutable after construction. Every ``Record`` serializes
to and from a plain dict keyed by its field names, so every artifact file
is a JSON-lines stream of these records.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass, fields
from enum import Enum
from typing import Any, Iterator, Optional, TypeVar, Union, get_args, get_origin, get_type_hints

# Selection rules: a level's best candidate has the lowest (paper) or highest mean NLL.
MIN_NLL = "min_nll"
MAX_NLL = "max_nll"
R = TypeVar("R", bound="Record")


class Dataset(str, Enum):
    TWO_WIKI = "2wikimultihop"
    ADV_HOTPOT = "advhotpot"
    MUSIQUE = "musique"
    SYNTHETIC = "synthetic"


class Variant(str, Enum):
    MAX = "gensco-max"
    STOP = "gensco-stop"
    NO_QD = "gensco-no-qd"
    BM25 = "bm25"
    PRECOMPUTED = "precomputed"


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


def _codec(hint) -> tuple[Any, Any]:
    """(encode, decode) between a field's value and its JSON form; both are
    None for a value JSON holds as it is."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:  # Optional[X]: None stays None
        encode, decode = _codec(args[0])
        if encode is None:
            return None, None
        return (
            lambda v: None if v is None else encode(v),
            lambda v: None if v is None else decode(v),
        )
    if origin is tuple:
        encode, decode = _codec(args[0])
        if encode is None:
            return list, tuple
        return lambda v: [encode(x) for x in v], lambda v: tuple(decode(x) for x in v)
    if origin is frozenset:
        return sorted, frozenset
    if issubclass(hint, Enum):
        return operator.attrgetter("value"), hint
    if issubclass(hint, Record):
        return hint.to_dict, hint.from_dict
    return None, None


@functools.cache
def _field_codecs(cls) -> tuple[tuple[str, Any, Any, bool], ...]:
    """(name, encode, decode, optional) per field; an optional field
    defaults to None and may be absent from a record."""
    hints = get_type_hints(cls)
    return tuple((f.name, *_codec(hints[f.name]), f.default is None) for f in fields(cls))


class Record:
    """A frozen dataclass whose dict form is derived from its fields: an
    enum is its value, a tuple a list, a frozenset a sorted list and a
    nested record a dict. ``from_dict`` ignores keys that are not fields."""

    def to_dict(self) -> dict[str, Any]:
        out = self.__dict__.copy()  # frozen: it holds the fields and nothing else
        for name, encode, _, _ in _field_codecs(type(self)):
            if encode is not None:
                out[name] = encode(out[name])
        return out

    @classmethod
    def from_dict(cls: type[R], d: dict[str, Any]) -> R:
        kwargs = {}
        for name, _, decode, optional in _field_codecs(cls):
            value = d.get(name) if optional else d[name]
            kwargs[name] = value if decode is None else decode(value)
        return cls(**kwargs)


@dataclass(frozen=True)
class Passage(Record):
    """One candidate context unit; identity is its position in the instance."""

    index: int
    title: str
    body: str


@dataclass(frozen=True)
class MultiHopInstance(Record):
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


@dataclass(frozen=True)
class SubQuestion(Record):
    level: int
    text: str
    terminal: bool = False


@dataclass(frozen=True)
class ScoredCandidate(Record):
    """Score is mean per-token negative log-likelihood (nats/token); lower is better."""

    level: int
    passage_index: int
    score: float


@dataclass(frozen=True)
class TraceLevel(Record):
    sub_question: SubQuestion
    candidates: tuple[ScoredCandidate, ...]
    chosen_index: int


@dataclass(frozen=True)
class SelectionTrace(Record):
    instance_id: str
    variant: Variant
    levels: tuple[TraceLevel, ...]
    stop_reason: Optional[StopReason]  # None for a baseline, which has no loop
    selected_sequence: tuple[int, ...]


@dataclass(frozen=True)
class GeneratorParams(Record):
    model_id: str
    temperature: float
    shots: int


@dataclass(frozen=True)
class AnswerRecord(Record):
    """Final answer plus the passage order actually placed in the prompt.

    ``permutation`` is recorded only when a shuffle ablation reordered the
    selected sequence; ``context_order[i] == selected_sequence[permutation[i]]``.
    """

    instance_id: str
    predicted_answer: str
    context_order: tuple[int, ...]
    generator_params: GeneratorParams
    permutation: Optional[tuple[int, ...]] = None


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


def replay_trace(trace: SelectionTrace, score_sign: str = MIN_NLL) -> bool:
    """Re-derive each level's choice from its stored candidates.

    True iff every chosen_index is the level's best candidate under
    ``score_sign`` (``scorer.select_best``) and selected_sequence mirrors
    the levels.
    """
    from .scorer import select_best  # scorer imports this module

    return len(trace.selected_sequence) == len(trace.levels) and all(
        lv.chosen_index == selected == select_best(lv.candidates, score_sign).passage_index
        for lv, selected in zip(trace.levels, trace.selected_sequence)
    )


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
