"""Per-level candidate scoring: every passage is appended to the greedy
prefix, the scorer's mean NLL of the target text is read, and the best
candidate wins (argmin, ties to the lowest passage index)."""

from __future__ import annotations

import math
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from .llm import LlmGateway, ScorerRequest
from .models import Passage, ScoredCandidate
from .prompts import render_scoring_prompt

MIN_NLL = "min_nll"
MAX_NLL = "max_nll"

T = TypeVar("T")
R = TypeVar("R")

# Each calling thread keeps one scorer pool for its whole life, so no
# thread starts per level; (executor class, workers, executor).
_pools = threading.local()


@dataclass(frozen=True)
class LevelSelection:
    level: int
    candidates: tuple[ScoredCandidate, ...]
    chosen: ScoredCandidate


def _pool(workers: int) -> ThreadPoolExecutor:
    held = getattr(_pools, "held", None)
    # The class is looked up on every call, so a pool made before the
    # module's ThreadPoolExecutor was swapped (by a tracer) is replaced.
    if held is None or held[0] is not ThreadPoolExecutor or held[1] != workers:
        if held is not None:
            held[2].shutdown(wait=False)
        held = _pools.held = (
            ThreadPoolExecutor,
            workers,
            ThreadPoolExecutor(max_workers=workers, thread_name_prefix="gensco-scorer"),
        )
    return held[2]


def map_in_order(fn: Callable[[T], R], items: Sequence[T], concurrency: int) -> list[R]:
    """``fn`` over ``items``, results in item order.

    With ``concurrency`` of 2 or more the calls run on the calling
    thread's long-lived scorer pool of that many workers, so at most
    ``concurrency`` are in flight. The first failure in item order is
    raised once the calls in flight have finished; calls not yet started
    by then are dropped. No call outlives this function.
    """
    if concurrency < 2 or len(items) < 2:
        return [fn(item) for item in items]
    pool = _pool(concurrency)
    futures = [pool.submit(fn, item) for item in items]
    try:
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        # After a failure (or an interrupt) start no more calls, and let
        # those in flight finish.
        for future in futures:
            future.cancel()
        wait(futures)
    # Calls start in item order, so any cancelled one comes after the
    # first failure and is never read.
    return [future.result() for future in futures]


def select_best(
    candidates: Sequence[ScoredCandidate], score_sign: str = MIN_NLL
) -> ScoredCandidate:
    if score_sign == MAX_NLL:
        return min(candidates, key=lambda c: (-c.score, c.passage_index))
    return min(candidates, key=lambda c: (c.score, c.passage_index))


def score_level(
    gateway: LlmGateway,
    prefix: Sequence[Passage],
    candidates: Sequence[Passage],
    target: str,
    level: int,
    concurrency: int = 1,
    score_sign: str = MIN_NLL,
) -> LevelSelection:
    """Score every candidate continuation of the greedy prefix.

    Issues exactly one scorer call per candidate, at most ``concurrency``
    at once; results are merged in passage-index order regardless of
    completion order, and any single failure aborts the whole level (no
    partial argmin) once the level's other calls have finished.
    """
    if not candidates:
        raise ValueError("score_level needs at least one candidate")
    if not target.strip():
        raise ValueError("score_level target must be non-empty")
    ordered = sorted(candidates, key=lambda p: p.index)

    def score_one(passage: Passage) -> ScoredCandidate:
        prompt = render_scoring_prompt(list(prefix) + [passage])
        resp = gateway.score_continuation(
            ScorerRequest(prompt=prompt.text, continuation=" " + target),
            purpose="relevance",
        )
        if not math.isfinite(resp.mean_nll):
            raise ValueError(
                f"non-finite score {resp.mean_nll!r} for passage {passage.index}"
            )
        return ScoredCandidate(level=level, passage_index=passage.index, score=resp.mean_nll)

    scored = map_in_order(score_one, ordered, concurrency)
    chosen = select_best(scored, score_sign)
    return LevelSelection(level=level, candidates=tuple(scored), chosen=chosen)
