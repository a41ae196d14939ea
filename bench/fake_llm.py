"""Seeded 2WikiMultiHop-style inputs and a deterministic fake LLM.

Everything here is a pure function of its arguments: the dataset is a
function of the seed, and every fake response is a function of the
request text alone. The in-process backend and the loopback server
(``fake_server.py``) both answer through ``complete`` and ``echo``, so
a scripted run and an HTTP run of the same inputs must produce the same
traces and answers.

Each question carries its own plan, recoverable from the text:

- depth: the number of relation hops in the question ("What is the R3
  of the R2 of the R1 of film X?"); the fake emits that many
  sub-questions, each a hop prefix of the question, then ``<FIN></FIN>``;
- stop level and answer correctness: read from a hash of the question.
  The generator picks entity names until the hash gives the plan it
  wants, so every block of ten instances holds each (depth, stop level)
  pair once and six correct answers, whatever the seed.
"""

from __future__ import annotations

import hashlib
import random
import re
import zlib
from dataclasses import dataclass

FIN = "<FIN></FIN>"
BACKEND_ID = "fake-llm"
PASSAGES_PER_INSTANCE = 10
# The only real 2WikiMultiHop passages at hand, the four in gensco's 2Wiki
# shots (src/gensco/shots/2wikimultihop.json), hold 1 to 5 sentences and
# 159 to 457 characters, 248 on average. Two of the sentences below make
# about 225 characters.
SENTENCES_PER_PASSAGE = 2

# (depth, stop level) pairs of one block; stop level 0 means the likelihood
# test never fires and the decomposition ends with FIN after `depth` hops.
PLAN_BLOCK = (
    (1, 0), (2, 0), (2, 2), (3, 0), (3, 2), (3, 3), (4, 0), (4, 2), (4, 3), (4, 4),
)
CORRECT_PER_BLOCK = 6

_QUESTION_HEAD = "What is the "
_HOP_JOIN = " of the "
_TOKEN = re.compile(r"\S+")

RELATIONS = (
    "director", "producer", "screenwriter", "composer", "spouse", "father",
    "mother", "place of birth", "place of death", "country of citizenship",
    "employer", "alma mater", "child", "sibling", "publisher", "founder",
)
FIRST = (
    "Anna", "Bela", "Carlos", "Dagny", "Emil", "Farida", "Gustav", "Hana",
    "Ivo", "Jolanta", "Kenji", "Lucia", "Marek", "Nadia", "Oskar", "Priya",
    "Quentin", "Rosa", "Stellan", "Tamsin", "Ulrich", "Vera", "Wendell", "Yara",
)
LAST = (
    "Albescu", "Brennan", "Castellano", "Dvorak", "Eriksen", "Fonseca",
    "Grünwald", "Halloran", "Ishikawa", "Jankowski", "Kovalenko", "Lindqvist",
    "Moreau", "Nakamura", "Okonkwo", "Petrov", "Quiroga", "Rasmussen",
    "Sandoval", "Tamura", "Underwood", "Valdés", "Whitfield", "Zielinski",
)
PLACES = (
    "Lisbon", "Kraków", "Osaka", "Valparaíso", "Tromsø", "Plovdiv", "Ghent",
    "Mombasa", "Tbilisi", "Cork", "Brno", "Aarhus", "Porto Alegre", "Izmir",
    "Quebec City", "Tartu", "Bergamo", "Yogyakarta", "Dunedin", "Salzburg",
)
WORDS = (
    "Silent", "River", "Crimson", "Harbor", "Winter", "Garden", "Iron", "Letter",
    "Distant", "Shore", "Golden", "Hour", "Broken", "Compass", "Midnight",
    "Orchard", "Paper", "Kingdom", "Hollow", "Lantern", "Northern", "Tide",
    "Glass", "Mountain", "Last", "Summer", "Velvet", "Road", "Burning", "Sky",
)
NOUNS = (
    "film", "novel", "company", "orchestra", "university", "festival", "series",
    "studio", "album", "theatre", "newspaper", "expedition", "club", "museum",
)
ADJECTIVES = (
    "American", "British", "Romanian", "Japanese", "Brazilian", "Norwegian",
    "independent", "experimental", "historical", "award-winning", "regional",
    "influential", "short-lived", "critically acclaimed", "low-budget",
)
VERBS = (
    "directed", "produced", "founded", "wrote", "composed", "starred in",
    "published", "managed", "designed", "co-wrote", "edited", "narrated",
)


@dataclass(frozen=True)
class Plan:
    depth: int
    stop_level: int  # 0: the likelihood test never fires
    correct: bool


def _hash64(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def hops(question: str) -> list[str]:
    """Hop phrases from the outermost relation down to "R1 of film X"."""
    if not (question.startswith(_QUESTION_HEAD) and question.endswith("?")):
        raise ValueError(f"not a benchmark question: {question!r}")
    return question[len(_QUESTION_HEAD):-1].split(_HOP_JOIN)


def plan_of(question: str) -> Plan:
    depth = len(hops(question))
    h = _hash64(question)
    stop_level = h % 4 + 1 if h % 4 else 0
    if stop_level > depth:
        stop_level = 0
    return Plan(depth=depth, stop_level=stop_level, correct=(h >> 8) % 5 < 3)


def subquestion(question: str, n: int) -> str:
    """The n-th sub-question: the innermost n hops of the question."""
    parts = hops(question)
    return _QUESTION_HEAD + _HOP_JOIN.join(parts[len(parts) - n:]) + "?"


def _name(h: int) -> str:
    return f"{FIRST[h % len(FIRST)]} {LAST[(h >> 5) % len(LAST)]}"


def gold_answer(question: str) -> str:
    return _name(_hash64("gold|" + question))


def wrong_answer(question: str) -> str:
    gold = gold_answer(question)
    salt = 0
    while True:
        guess = _name(_hash64(f"wrong{salt}|" + question))
        if guess.casefold() != gold.casefold():
            return guess
        salt += 1


# --- the fake LLM -----------------------------------------------------------


def _instance_question(prompt: str) -> str:
    """The instance's question: the last "Question: ..." line of a prompt."""
    start = prompt.rfind("\nQuestion: ")
    if start < 0:
        raise ValueError("prompt has no question line")
    start += len("\nQuestion: ")
    end = prompt.find("\n", start)
    return prompt[start:] if end < 0 else prompt[start:end]


_SUBQ_LINE = re.compile(r"\nSubquestion (\d+):$")


def complete(prompt: str) -> str:
    """Generator completion for a decomposition or answer prompt."""
    if prompt.endswith("\nAnswer:"):
        question = _instance_question(prompt)
        if plan_of(question).correct:
            return " " + gold_answer(question)
        return " " + wrong_answer(question)
    match = _SUBQ_LINE.search(prompt)
    if match is None:
        raise ValueError("prompt is neither a decomposition nor an answer prompt")
    question = _instance_question(prompt)
    n = int(match.group(1))
    if n > plan_of(question).depth:
        return " " + FIN
    return " " + subquestion(question, n)


def _stop_nll(text: str, cut: int) -> float | None:
    """Planned mean NLL of a stop-test continuation, or None for scoring.

    A stop prompt lists the decomposition so far; its sub-questions each
    end with the only "?" they contain. The NLL falls by 0.1 per added
    sub-question and jumps at the planned stop level, so the strict
    increase the test looks for happens exactly there.
    """
    line = text.rfind("\nDecomposition: ", 0, cut)
    if line < 0:
        return None
    m = text.count("?", line, text.find("\n", line + 1))
    if m == plan_of(text[cut:].strip()).stop_level:
        return 4.0
    return 2.0 - 0.1 * m


def echo(text: str) -> tuple[list[str], list[int], list[float | None]]:
    """Echoed tokens, their character offsets and per-token logprobs.

    Logprobs are hashed from the whole prefix up to each token (a chained
    CRC), so every candidate passage gets its own score. The text after
    the last "Question:" is the continuation the client reads back.
    """
    tokens: list[str] = []
    offsets: list[int] = []
    logprobs: list[float | None] = []
    cut = text.rfind("\nQuestion:")
    cut = len(text) if cut < 0 else cut + len("\nQuestion:")
    stop_nll = _stop_nll(text, cut)
    crc = 0
    for match in _TOKEN.finditer(text):
        token = match.group()
        crc = zlib.crc32(token.encode("utf-8"), crc)
        u = (crc & 0xFFFFFF) / 0x1000000
        if match.start() >= cut and stop_nll is not None:
            lp = -(stop_nll + 0.01 * u)
        else:
            lp = -(0.05 + 3.0 * u)
        tokens.append(token)
        offsets.append(match.start())
        # The first echoed token has no context, so no logprob.
        logprobs.append(None if len(tokens) == 1 else lp)
    return tokens, offsets, logprobs


def count_tokens(text: str) -> int:
    return sum(1 for _ in _TOKEN.finditer(text))


def continuation_logprobs(prompt: str, continuation: str) -> list[float]:
    """What a client reads back from ``echo``: tokens at or after the cut."""
    _, offsets, logprobs = echo(prompt + continuation)
    cut = len(prompt)
    return [lp for off, lp in zip(offsets, logprobs) if off >= cut and lp is not None]


class FakeBackend:
    """In-process backend answering from the fake; optionally records a script.

    ``script`` is any object with ``add_completion``/``add_logprobs``, such
    as ``gensco.llm.ScriptedBackend``.
    """

    backend_id = BACKEND_ID

    def __init__(self, script=None) -> None:
        self.script = script

    def complete(self, req) -> str:
        text = complete(req.prompt)
        if self.script is not None:
            self.script.add_completion(req, text)
        return text

    def token_logprobs(self, req) -> list[float]:
        logprobs = continuation_logprobs(req.prompt, req.continuation)
        if self.script is not None:
            self.script.add_logprobs(req, logprobs)
        return logprobs


# --- seeded dataset ---------------------------------------------------------


def _sentence(rng: random.Random, subject: str) -> str:
    person = f"{rng.choice(FIRST)} {rng.choice(LAST)}"
    year = rng.randint(1890, 2020)
    work = f"{rng.choice(WORDS)} {rng.choice(WORDS)}"
    forms = (
        f"{subject} is a {rng.choice(ADJECTIVES)} {rng.choice(NOUNS)} first noted in "
        f"{rng.choice(PLACES)} in {year}, and it was later associated with {person}.",
        f"In {year}, {person} {rng.choice(VERBS)} the {rng.choice(ADJECTIVES)} "
        f"{rng.choice(NOUNS)} \"{work}\" together with members of {subject}.",
        f"The {rng.choice(NOUNS)} was based in {rng.choice(PLACES)} for {rng.randint(2, 40)} "
        f"years before moving to {rng.choice(PLACES)}, where {person} joined it.",
        f"{person} (born {year} in {rng.choice(PLACES)}) is a {rng.choice(ADJECTIVES)} "
        f"figure who {rng.choice(VERBS)} several works connected to {subject}.",
        f"It received a regional award in {year + rng.randint(1, 9)} and was described "
        f"by critics as {rng.choice(ADJECTIVES)} and {rng.choice(ADJECTIVES)}.",
    )
    return rng.choice(forms)


def _passage(rng: random.Random, title: str, extra: str = "") -> list[str]:
    # A fixed sentence count keeps prompt lengths, and so the work per
    # instance, nearly the same for every seed.
    sentences = [_sentence(rng, title) for _ in range(SENTENCES_PER_PASSAGE)]
    if extra:
        sentences.insert(rng.randrange(len(sentences) + 1), extra)
    return [s + " " for s in sentences[:-1]] + [sentences[-1]]


def _question(rng: random.Random, depth: int) -> str:
    film = f"{rng.choice(WORDS)} {rng.choice(WORDS)} {rng.choice(WORDS)}"
    relations = rng.sample(RELATIONS, depth)
    return _QUESTION_HEAD + _HOP_JOIN.join(relations) + f" of film {film}?"


def make_record(rng: random.Random, instance_id: str, target: Plan) -> dict:
    """One 2WikiMultiHop record whose question carries ``target``'s plan."""
    while True:
        question = _question(rng, target.depth)
        if plan_of(question) == target:
            break
    gold = gold_answer(question)
    titles: list[str] = []
    while len(titles) < PASSAGES_PER_INSTANCE:
        title = f"{rng.choice(FIRST)} {rng.choice(LAST)} ({rng.choice(NOUNS)})"
        if title not in titles:
            titles.append(title)
    supporting = rng.sample(range(PASSAGES_PER_INSTANCE), target.depth)
    context = []
    for pos, title in enumerate(titles):
        extra = ""
        if pos == supporting[-1]:
            extra = f"Its best-known member is {gold}."
        context.append([title, _passage(rng, title, extra)])
    return {
        "_id": instance_id,
        "type": "compositional",
        "question": question,
        "answer": gold,
        "context": context,
        "supporting_facts": [[titles[pos], 0] for pos in supporting],
        "evidences": [],
    }


def make_dataset(seed: int, n: int) -> tuple[list[dict], list[Plan]]:
    """``n`` records (a multiple of the block size) and their plans."""
    if n <= 0 or n % len(PLAN_BLOCK):
        raise ValueError(f"instance count must be a positive multiple of {len(PLAN_BLOCK)}")
    rng = random.Random(seed)
    records, plans = [], []
    for block in range(n // len(PLAN_BLOCK)):
        pairs = list(PLAN_BLOCK)
        rng.shuffle(pairs)
        correct = [i < CORRECT_PER_BLOCK for i in range(len(pairs))]
        rng.shuffle(correct)
        for (depth, stop_level), ok in zip(pairs, correct):
            target = Plan(depth, stop_level, ok)
            records.append(make_record(rng, f"bench-{seed}-{len(records):05d}", target))
            plans.append(target)
    return records, plans


def expected_calls(plan: Plan, passages: int = PASSAGES_PER_INSTANCE) -> dict[str, int]:
    """LLM calls per purpose that gensco-stop must make for one plan.

    ``levels`` passages are selected: all ``depth`` hops, or one fewer than
    the stop level. Every selected level scores each passage; one more
    sub-question is asked (FIN, or the one the stop test rejects); every
    level from 2 that reached the stop test made two scorer calls.
    """
    levels = plan.stop_level - 1 if plan.stop_level else plan.depth
    stop_tests = levels - 1 + (1 if plan.stop_level else 0)
    return {
        "decomposition": levels + 1,
        "stop": 2 * stop_tests,
        "relevance": passages * levels,
        "answer": 1,
    }
