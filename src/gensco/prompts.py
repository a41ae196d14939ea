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
    text: str


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


def render_answer_prompt(
    question: str,
    passages: Sequence[Passage],
    shots: Sequence[ShotExample] = (),
) -> RenderedPrompt:
    instruction = _instruction("answer_instruction.txt")
    lines = []
    if shots:
        lines.append(instruction + " Here are a few examples:")
        for shot in shots:
            lines.append(f"Question: {shot.question}")
            lines.append(f"Context: {shot.context}")
            lines.append(f"Answer: {shot.answer}")
            lines.append("")
    else:
        lines.append(instruction)
        lines.append("")
    lines.append(f"Question: {question}")
    lines.append(f"Context: {concat_passages(passages)}")
    lines.append("Answer:")
    text = "\n".join(lines)
    return RenderedPrompt(text)


def render_decomposition_prompt(
    question: str,
    history: Sequence[tuple[str, Passage]],
) -> RenderedPrompt:
    """Prompt asking for sub-question number ``len(history) + 1``.

    ``history`` pairs each earlier sub-question with the passage selected
    for it; the pair being requested has no passage yet by construction.
    """
    header = _instruction("decomposition_header.txt")
    lines = [header, ""]
    lines.append(f"Question: {question}")
    for i, (subq, passage) in enumerate(history, start=1):
        lines.append(f"Subquestion {i}: {subq}")
        lines.append(f"Subcontext {i}: {concat_passages([passage])}")
    lines.append(f"Subquestion {len(history) + 1}:")
    text = "\n".join(lines)
    return RenderedPrompt(text)


def render_stop_prompt(
    passages: Sequence[Passage],
    subquestions: Sequence[str],
) -> RenderedPrompt:
    """Zero-shot prompt whose continuation likelihood drives the stopping test."""
    instruction = _instruction("stop_instruction.txt")
    text = "\n".join(
        [
            instruction,
            f"Context: {concat_passages(passages)}",
            f"Decomposition: {' '.join(subquestions)}",
            "Question:",
        ]
    )
    return RenderedPrompt(text)


def render_scoring_prompts(
    prefix: Sequence[Passage], candidates: Sequence[Passage]
) -> tuple[str, tuple[str, ...]]:
    """Zero-shot question-generation prompts, one per candidate appended to
    the greedy ``prefix``, as a shared head and one tail per candidate:
    ``head + tail`` is the candidate's prompt. Only the continuation
    likelihood of the supplied sub-question is read back, the generated
    text is ignored."""
    head = _instruction("scoring_instruction.txt") + "\nContext: "
    if prefix:
        head += concat_passages(prefix) + " "
    return head, tuple(_piece(p) + "\nQuestion:" for p in candidates)
