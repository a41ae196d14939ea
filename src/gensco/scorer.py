"""Candidate selection and scorer-call fan-out: the best candidate of a
level wins (argmin mean NLL, ties to the lowest passage index), and a
level's scorer calls run on a long-lived per-thread pool."""

from __future__ import annotations

import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from typing import Callable, Sequence, TypeVar

from .models import MAX_NLL, MIN_NLL, ScoredCandidate

T = TypeVar("T")
R = TypeVar("R")

# Each calling thread keeps one scorer pool for its whole life, so no
# thread starts per level; (executor class, workers, executor).
_pools = threading.local()


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

