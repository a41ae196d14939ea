"""Loaders normalizing the evaluation datasets into MultiHopInstance values.

Source formats follow each dataset's published release: a JSON array with
title/sentence contexts and supporting-fact labels (2WikiMultiHop and the
adversarial HotpotQA subset; the synthetic fixtures mirror this shape),
and JSON lines with labeled paragraphs for MuSiQue.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Optional, Sequence, TypeVar

from .models import Dataset, InputError, MultiHopInstance, Passage, load_json, text_lines

T = TypeVar("T")


class ParseError(InputError):
    pass


class SchemaError(InputError):
    pass


class SizeTooLarge(InputError):
    pass


@dataclass(frozen=True)
class DatasetConfig:
    dataset: Dataset
    path: str
    limit: Optional[int] = None


def _require(record: Any, field: str, where: str, kind: type = str):
    """``record[field]``; a SchemaError unless ``record`` is an object that
    holds a ``kind`` there."""
    if not isinstance(record, dict):
        raise SchemaError(f"{where}: not an object")
    if field not in record:
        raise SchemaError(f"{where}: missing field {field!r}")
    value = record[field]
    if not isinstance(value, kind):
        raise SchemaError(
            f"{where}: field {field!r} must be {kind.__name__}, not {type(value).__name__}"
        )
    return value


def _instance_from_wiki_record(
    record: dict, dataset: Dataset, where: str
) -> MultiHopInstance:
    context = _require(record, "context", where, list)
    supporting = record.get("supporting_facts")
    passages = []
    titles = []
    for pos, entry in enumerate(context):
        # [title, sentences], the sentences a list of strings or one string.
        try:
            title, sentences = entry if isinstance(entry, list) else None
            body = sentences if isinstance(sentences, str) else "".join(sentences)
            if not (isinstance(title, str) and isinstance(sentences, (str, list))):
                raise TypeError
        except (TypeError, ValueError):
            raise SchemaError(f"{where}: malformed context entry {pos}") from None
        passages.append(Passage(index=pos, title=title, body=body))
        titles.append(title)
    supports: Optional[frozenset[int]] = None
    if supporting is not None:
        # [title, sentence id] facts; only the title is read.
        if not isinstance(supporting, list) or not all(
            isinstance(fact, list) and fact and isinstance(fact[0], str) for fact in supporting
        ):
            raise SchemaError(f"{where}: field 'supporting_facts' must be a list of [title, ...]")
        support_titles = {fact[0] for fact in supporting}
        supports = frozenset(
            i for i, title in enumerate(titles) if title in support_titles
        )
    return MultiHopInstance(
        id=str(_require(record, "_id", where, object)),
        question=_require(record, "question", where),
        gold_answer=_require(record, "answer", where),
        passages=tuple(passages),
        supporting_indices=supports,
        dataset=dataset,
    )


def _load_wiki_style(
    raw: bytes, path: Path, dataset: Dataset
) -> Iterator[tuple[str, MultiHopInstance]]:
    try:
        data = load_json(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except (UnicodeDecodeError, RecursionError) as exc:  # or nested past the decoder's depth
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(data, list) or not data:
        raise ParseError(f"{path}: expected a non-empty JSON array of instances")
    for i, rec in enumerate(data):
        where = f"{path}[{i}]"
        yield where, _instance_from_wiki_record(rec, dataset, where)


def _load_musique(raw: bytes, path: Path) -> Iterator[tuple[str, MultiHopInstance]]:
    for lineno, line in enumerate(text_lines(raw), start=1):
        where = f"{path}:{lineno}"
        try:
            text = line.decode("utf-8").strip()
            if not text:
                continue
            record = load_json(text.encode("utf-8"))
        except json.JSONDecodeError as exc:
            raise ParseError(f"{where}: {exc.msg} at column {exc.colno}")
        except (UnicodeDecodeError, RecursionError) as exc:
            raise ParseError(f"{where}: {exc}") from None
        instance_id = str(_require(record, "id", where, object))
        # Only the 2-hop slice of the dev set is evaluated.
        if not instance_id.startswith("2hop"):
            continue
        paragraphs = _require(record, "paragraphs", where, list)
        passages = []
        supports = set()
        for pos, para in enumerate(paragraphs):
            at = f"{where}: paragraph {pos}"
            body = _require(para, "paragraph_text", at)
            title = _require(para, "title", at) if "title" in para else ""
            passages.append(Passage(index=pos, title=title, body=body))
            if para.get("is_supporting"):
                supports.add(pos)
        yield where, MultiHopInstance(
            id=instance_id,
            question=_require(record, "question", where),
            gold_answer=_require(record, "answer", where),
            passages=tuple(passages),
            supporting_indices=frozenset(supports) if supports else None,
            dataset=Dataset.MUSIQUE,
        )


def load(cfg: DatasetConfig, raw: Optional[bytes] = None) -> list[MultiHopInstance]:
    """The instances of the dataset file ``cfg.path``, parsed from ``raw``,
    its bytes, when the caller has read them."""
    path = Path(cfg.path)
    if raw is None:
        raw = path.read_bytes()
    if cfg.dataset is Dataset.MUSIQUE:
        records = _load_musique(raw, path)
    else:
        records = _load_wiki_style(raw, path, cfg.dataset)
    seen: dict[str, str] = {}  # instance id -> the record that holds it
    instances = []
    for where, inst in records:
        first = seen.setdefault(inst.id, where)
        if first != where:
            raise SchemaError(f"{first} and {where}: repeated instance id {inst.id!r}")
        instances.append(inst)
    if not instances:  # only MuSiQue: a wiki-style file holds at least one record
        raise ParseError(f"{path}: no 2-hop instances found")
    if cfg.limit is not None:
        if cfg.limit > len(instances):
            raise SizeTooLarge(
                f"limit {cfg.limit} exceeds the {len(instances)} available instances"
            )
        instances = instances[: cfg.limit]
    return instances


def subsample(items: Sequence[T], sizes: Sequence[int], seed: int) -> list[list[T]]:
    """Deterministic nested subsets: one seeded shuffle, prefixes per size;
    a size above ``len(items)`` takes every item."""
    shuffled = list(items)
    random.Random(seed).shuffle(shuffled)
    return [shuffled[:size] for size in sizes]
