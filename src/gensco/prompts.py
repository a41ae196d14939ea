"""Bit-stable rendering of the four prompt families.

Templates and shot banks are plain fixture files shipped with the
package; rendering is pure string assembly so equal inputs always yield
byte-identical prompts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

from .models import Dataset, Passage, Record, load_json

FIN_KEYWORD = "<FIN></FIN>"


@dataclass(frozen=True)
class ShotExample(Record):
    question: str
    context: str
    answer: str


@dataclass(frozen=True)
class RenderedPrompt:
    """Prompts that differ only after a shared ``head``: ``head + tail`` for
    each of ``tails``. A renderer makes one prompt, or two for the stop
    test; ``text`` is the last."""

    head: str
    tails: tuple[str, ...]

    @property
    def text(self) -> str:
        return self.head + self.tails[-1]


@functools.lru_cache(maxsize=None)
def _instruction(name: str) -> str:
    """A template file's text without its trailing newlines, read once per process."""
    path = resources.files("gensco.templates").joinpath(name)
    return path.read_text(encoding="utf-8").rstrip("\n")


def load_shots(dataset: Dataset) -> tuple[ShotExample, ...]:
    """The shot bank packaged for ``dataset``."""
    with resources.as_file(resources.files("gensco.shots") / f"{dataset.value}.json") as path:
        return load_shots_file(path)


def load_shots_file(path) -> tuple[ShotExample, ...]:
    """A JSON list of objects with the ShotExample fields; ValueError for
    another shape."""
    shots = load_json(Path(path).read_bytes())
    try:
        return tuple(map(ShotExample.from_dict, shots))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: not a shot bank ({exc!r})") from exc


def _piece(p: Passage) -> str:
    return f"{p.title}: {p.body}" if p.title else p.body


def concat_passages(passages: Sequence[Passage]) -> str:
    """Join passages into flowing prose: "title: body" pieces, single space."""
    return " ".join(map(_piece, passages))


@functools.lru_cache(maxsize=8)
def _answer_head(shots: tuple[ShotExample, ...]) -> str:
    """The answer prompt before its question: the instruction and the shots,
    which a run repeats in every answer prompt."""
    instruction = _instruction("answer_instruction.txt")
    if not shots:
        return instruction + "\n\n"
    lines = [instruction + " Here are a few examples:"]
    for shot in shots:
        lines.append(f"Question: {shot.question}")
        lines.append(f"Context: {shot.context}")
        lines.append(f"Answer: {shot.answer}")
        lines.append("")
    return "\n".join(lines) + "\n"


def render_answer_prompt(
    question: str,
    passages: Sequence[Passage],
    shots: Sequence[ShotExample] = (),
) -> RenderedPrompt:
    """The answer prompt, its head the instruction and ``shots``."""
    tail = f"Question: {question}\nContext: {concat_passages(passages)}\nAnswer:"
    return RenderedPrompt(_answer_head(tuple(shots)), (tail,))


def render_decomposition_prompt(
    question: str,
    history: Sequence[tuple[str, Passage]],
) -> RenderedPrompt:
    """Prompt asking for sub-question number ``len(history) + 1``, its head
    the header.

    ``history`` pairs each earlier sub-question with the passage selected
    for it; the pair being requested has no passage yet by construction.
    """
    lines = ["", "", f"Question: {question}"]
    for i, (subq, passage) in enumerate(history, start=1):
        lines.append(f"Subquestion {i}: {subq}")
        lines.append(f"Subcontext {i}: {_piece(passage)}")
    lines.append(f"Subquestion {len(history) + 1}:")
    return RenderedPrompt(_instruction("decomposition_header.txt"), ("\n".join(lines),))


def render_stop_prompt(
    passages: Sequence[Passage],
    asked: Sequence[str],
    subquestion: str,
) -> RenderedPrompt:
    """The stopping test's zero-shot prompts, whose continuation likelihood
    drives it: the decomposition of the ``asked`` sub-questions, without and
    with the new ``subquestion``."""
    head = "\n".join(
        [
            _instruction("stop_instruction.txt"),
            f"Context: {concat_passages(passages)}",
            f"Decomposition: {' '.join(asked)}",
        ]
    )
    end = "\nQuestion:"
    return RenderedPrompt(head, (end, (" " if asked else "") + subquestion + end))


def render_scoring_head(prefix: Sequence[Passage]) -> str:
    """The head of the zero-shot question-generation prompts of a level: a
    candidate's prompt is the head of the greedy ``prefix``, then the
    candidate's tail. Only the continuation likelihood of the supplied
    sub-question is read back, the generated text is ignored."""
    head = _instruction("scoring_instruction.txt") + "\nContext: "
    if prefix:
        head += concat_passages(prefix) + " "
    return head


def render_scoring_tails(candidates: Sequence[Passage]) -> tuple[str, ...]:
    """Each candidate's tail of the prompts ``render_scoring_head`` starts."""
    return tuple(_piece(p) + "\nQuestion:" for p in candidates)
