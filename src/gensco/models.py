"""Shared data types for questions, passages, traces and answers.

All types are immutable after construction. Every ``Record`` serializes
to and from a plain dict keyed by its field names, so every artifact file
is a JSON-lines stream of these records.
"""

from __future__ import annotations

import functools
import gc
import json
import operator
from dataclasses import dataclass, fields
from enum import Enum
from typing import (
    Any, Callable, Iterator, Optional, TypeVar, Union, get_args, get_origin, get_type_hints
)

import orjson

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
    POOL_EXHAUSTED = "pool_exhausted"  # dedupe_pool has taken every passage
    MAX_LEVELS = "max_levels"


class InputError(ValueError):
    """Input that gensco refuses: a command reports it as a fatal line."""


class CorruptTrace(InputError):
    """A run file does not hold the records it should."""


class ValidationError(InputError):
    """An instance violates a domain invariant."""


def _expect(kinds: tuple[type, ...], convert=None):
    """A decoder that takes only a JSON value whose type is one of ``kinds``
    (exactly: a bool is no int), then ``convert`` of it."""

    def decode(v):
        if type(v) not in kinds:
            raise TypeError(f"expected {' or '.join(k.__name__ for k in kinds)}, got {v!r}")
        return v if convert is None else convert(v)

    return decode


def _codec(hint) -> tuple[Any, Any]:
    """(encode, decode) between a field's value and its JSON form; encode is
    None for a value JSON holds as it is, and decode rejects a wrong form."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:  # Optional[X]: None stays None
        encode, decode = _codec(args[0])
        return (
            encode and (lambda v: None if v is None else encode(v)),
            lambda v: None if v is None else decode(v),
        )
    if origin is tuple or origin is frozenset:
        encode, decode = _codec(args[0])
        decode_list = _expect((list,), lambda v: origin(map(decode, v)))
        if origin is frozenset:
            return sorted, decode_list
        if encode is None:
            return list, decode_list
        return lambda v: [encode(x) for x in v], decode_list
    if issubclass(hint, Enum):
        return operator.attrgetter("value"), hint
    if issubclass(hint, Record):
        return hint.to_dict, hint.from_dict
    return None, _expect((int, float) if hint is float else (hint,))


@functools.cache
def _field_codecs(cls) -> tuple[tuple[str, Any, Any, bool], ...]:
    """(name, encode, decode, optional) per field; an optional field
    defaults to None and may be absent from a record."""
    hints = get_type_hints(cls)
    return tuple((f.name, *_codec(hints[f.name]), f.default is None) for f in fields(cls))


@functools.cache
def _has_post_init(cls) -> bool:
    return hasattr(cls, "__post_init__")


class Record:
    """A frozen dataclass whose dict form is derived from its fields: an
    enum is its value, a tuple a list, a frozenset a sorted list and a
    nested record a dict. ``from_dict`` ignores keys that are not fields and
    raises a TypeError naming ``Class.field`` for a value of the wrong type."""

    def to_dict(self) -> dict[str, Any]:
        out = self.__dict__.copy()  # frozen: it holds the fields and nothing else
        for name, encode, _, _ in _field_codecs(type(self)):
            if encode is not None:
                out[name] = encode(out[name])
        return out

    # Both constructors build a record as the dataclass __init__ builds it,
    # without its keyword call and its object.__setattr__ per field: every
    # field set in the record's __dict__, then __post_init__'s checks.
    @classmethod
    def from_dict(cls: type[R], d: dict[str, Any]) -> R:
        record = object.__new__(cls)
        values = record.__dict__
        for name, _, decode, optional in _field_codecs(cls):
            try:
                values[name] = decode(d.get(name) if optional else d[name])
            except (TypeError, ValueError) as exc:  # a ValueError: not an enum's value
                raise TypeError(f"{cls.__name__}.{name}: {exc}") from exc
        if _has_post_init(cls):
            record.__post_init__()
        return record

    @classmethod
    def from_fields(cls: type[R], **values: Any) -> R:
        """The record of ``values``, one for every field, taken as they are."""
        record = object.__new__(cls)
        record.__dict__.update(values)
        if _has_post_init(cls):
            record.__post_init__()
        return record


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

    def __post_init__(self) -> None:
        """Check the domain invariants: every instance is valid once built."""
        if not self.passages:
            raise ValidationError(f"instance {self.id!r} has no candidate passages")
        if not self.question.strip():
            raise ValidationError(f"instance {self.id!r} has a blank question")
        if not self.gold_answer.strip():
            raise ValidationError(f"instance {self.id!r} has a blank gold answer")
        indices = [p.index for p in self.passages]
        if len(set(indices)) != len(indices):
            raise ValidationError(f"instance {self.id!r} has duplicate passage indices")
        for p in self.passages:
            if not p.body.strip():
                raise ValidationError(
                    f"instance {self.id!r} passage {p.index} has an empty body"
                )
        if self.supporting_indices is not None:
            dangling = set(self.supporting_indices) - set(indices)
            if dangling:
                raise ValidationError(
                    f"instance {self.id!r} supporting indices {sorted(dangling)} "
                    f"do not refer to any passage"
                )

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


# orjson reads every document json.loads reads to the same value, but for
# two kinds. It reads an integer outside -2**63..2**64-1 as a float, where
# json.loads keeps it exact, and it reads nesting past the depth where
# json.loads raises RecursionError, near the interpreter's recursion limit.
# A document that may hold either goes to json.loads. _DEEP sits far enough
# below the default limit of 1,000 frames for any caller's stack.
_DEEP = 256
# orjson 3.8.3 overflows its native stack and kills the process with
# SIGSEGV on a closed array about 131,000 levels deep, or a chain of {"":
# about 52,500 deep (8 MB stacks). A document nests no deeper than its
# count of "[" and "{" bytes, which brackets inside strings only raise: one
# with _OPENS of them goes to json.loads unread by orjson, and one with
# fewer than _DEEP cannot nest _DEEP levels deep.
_OPENS = 10_000
# Each byte's class in the search for long integers: a digit "0", a byte a
# number may follow "s", any other byte "x".
_CLASSES = bytes(
    ord("0") if byte in b"0123456789" else ord("s") if byte in b" \t\n\r,:[-" else ord("x")
    for byte in range(256)
)
_DIGITS = b"0" * 19


def _long_digit_run(raw: bytes) -> bool:
    """Whether ``raw`` has 19 digits in a row at its start or after a byte a
    number may follow, as an integer past 64 bits has."""
    classes = raw.translate(_CLASSES)
    return b"s" + _DIGITS in classes or classes.startswith(_DIGITS)


def _nests(value: Any, depth: int) -> bool:
    """Whether a decoded document holds a value ``depth`` containers deep.
    gc.get_referents gives a list's items and a dict's keys and values, and
    nothing for a str or a number."""
    level = [value]
    for _ in range(depth):
        level = gc.get_referents(*level)
        if not level:
            return False
    return True


def load_json(raw: bytes) -> Any:
    """The value of the JSON document ``raw`` as ``json.loads`` reads it
    decoded from UTF-8; a document it refuses raises its error with its
    message. orjson decodes ``raw`` unless it refuses it or the document
    has _OPENS brackets and braces, a long digit run or _DEEP levels."""
    opens = raw.count(b"[") + raw.count(b"{")
    if opens < _OPENS and not _long_digit_run(raw):
        try:
            value = orjson.loads(raw)
        except orjson.JSONDecodeError:
            pass
        else:
            if opens < _DEEP or not _nests(value, _DEEP):
                return value
    return json.loads(raw.decode("utf-8"))


def append_jsonl(fh, record: dict[str, Any]) -> None:
    fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
    fh.flush()


def text_lines(raw: bytes) -> list[bytes]:
    """The lines of a file's bytes as text mode reads them: split at "\\n",
    "\\r\\n" or "\\r", each but an unended last one ending in "\\n"."""
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return raw.splitlines(keepends=True)


def read_jsonl(path, decode: Callable[[Any], Any] = lambda record: record) -> Iterator[Any]:
    """``decode`` of each record of a JSON-lines file, skipping blank lines; a line
    that is not UTF-8 JSON (nested past the decoder's depth included) or that
    ``decode`` rejects is a CorruptTrace naming path:line. A file that cannot
    be read raises the OSError that names it."""
    with open(path, "rb") as fh:
        lines = text_lines(fh.read())
    for lineno, line in enumerate(lines, start=1):
        try:
            try:
                value = load_json(line)
            except (ValueError, RecursionError):
                # Only a line JSON refuses can be blank; its decoding names a
                # line that is not UTF-8.
                if not line.decode("utf-8").strip():
                    continue
                raise
            record = decode(value)
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise CorruptTrace(f"{path}:{lineno}: not a record ({exc!r})") from exc
        yield record
