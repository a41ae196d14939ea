import threading
import time

import pytest
from hypothesis import given, strategies as st

from gensco.llm import ScorerRequest, ScriptedBackend, ScriptMiss
from gensco.models import Passage, ScoredCandidate
from gensco.prompts import render_scoring_prompt
from gensco.scorer import MAX_NLL, score_level, select_best

from helpers import (
    TRACE_SCORES_LEVEL_1,
    TRACE_SCORES_LEVEL_2,
    TRACE_SUBQ_1,
    TRACE_SUBQ_2,
    InFlight,
    in_thread,
    scripted_gateway,
    trace_instance,
)


def backend_with_scores(prefix, candidates, target, scores):
    backend = ScriptedBackend()
    for p in candidates:
        prompt = render_scoring_prompt(list(prefix) + [p])
        backend.add_logprobs(
            ScorerRequest(prompt=prompt.text, continuation=" " + target),
            [-scores[p.index]],
        )
    return backend


class TestSelectBest:
    def test_lower_score_wins(self):
        best = select_best([ScoredCandidate(1, 3, 0.2), ScoredCandidate(1, 1, 0.9)])
        assert best.passage_index == 3

    def test_tie_lower_index_wins(self):
        best = select_best([ScoredCandidate(1, 1, 0.5), ScoredCandidate(1, 2, 0.5)])
        assert best.passage_index == 1

    def test_tie_higher_index_loses(self):
        best = select_best([ScoredCandidate(1, 2, 0.5), ScoredCandidate(1, 1, 0.5)])
        assert best.passage_index == 1


class TestScoreLevel:
    def test_worked_example_level_one_picks_passage_eight(self):
        inst = trace_instance()
        backend = backend_with_scores([], inst.passages, TRACE_SUBQ_1, TRACE_SCORES_LEVEL_1)
        sel = score_level(
            scripted_gateway(backend), [], inst.passages, TRACE_SUBQ_1, level=1
        )
        assert sel.chosen.passage_index == 8
        assert sel.chosen.score == pytest.approx(-0.988)
        assert len(sel.candidates) == 10

    def test_worked_example_level_two_includes_prefix(self):
        inst = trace_instance()
        prefix = [inst.passage_by_index(8)]
        backend = backend_with_scores(
            prefix, inst.passages, TRACE_SUBQ_2, TRACE_SCORES_LEVEL_2
        )
        sel = score_level(
            scripted_gateway(backend), prefix, inst.passages, TRACE_SUBQ_2, level=2
        )
        assert sel.chosen.passage_index == 1

    def test_tie_break_lowest_index(self):
        candidates = (Passage(1, "", "a"), Passage(2, "", "b"))
        backend = backend_with_scores([], candidates, "q?", {1: 0.5, 2: 0.5})
        sel = score_level(scripted_gateway(backend), [], candidates, "q?", level=1)
        assert sel.chosen.passage_index == 1

    def test_singleton(self):
        candidates = (Passage(7, "", "only"),)
        backend = backend_with_scores([], candidates, "q?", {7: 123.0})
        sel = score_level(scripted_gateway(backend), [], candidates, "q?", level=1)
        assert sel.chosen.passage_index == 7

    def test_exactly_k_scorer_calls(self):
        inst = trace_instance()
        backend = backend_with_scores([], inst.passages, TRACE_SUBQ_1, TRACE_SCORES_LEVEL_1)
        gw = scripted_gateway(backend)
        score_level(gw, [], inst.passages, TRACE_SUBQ_1, level=1)
        assert gw.stats()["scorer_calls"] == {"relevance": 10}

    def test_concurrent_merge_is_index_ordered(self):
        inst = trace_instance()
        backend = backend_with_scores([], inst.passages, TRACE_SUBQ_1, TRACE_SCORES_LEVEL_1)
        sequential = score_level(
            scripted_gateway(backend), [], inst.passages, TRACE_SUBQ_1, level=1
        )
        concurrent = score_level(
            scripted_gateway(backend), [], inst.passages, TRACE_SUBQ_1, level=1,
            concurrency=4,
        )
        assert concurrent == sequential
        assert [c.passage_index for c in concurrent.candidates] == list(range(1, 11))

    def test_at_most_concurrency_calls_in_flight(self):
        inst = trace_instance()
        backend = backend_with_scores([], inst.passages, TRACE_SUBQ_1, TRACE_SCORES_LEVEL_1)
        flight = InFlight()
        backend.token_logprobs = flight.wrap(backend.token_logprobs)
        score_level(
            scripted_gateway(backend), [], inst.passages, TRACE_SUBQ_1, level=1,
            concurrency=2,
        )
        assert flight.peak == 2
        assert flight.finished == 10

    def test_pool_threads_live_across_levels(self):
        inst = trace_instance()
        backend = backend_with_scores([], inst.passages, TRACE_SUBQ_1, TRACE_SCORES_LEVEL_1)
        flight = InFlight(hold=0.0)
        backend.token_logprobs = flight.wrap(backend.token_logprobs)

        def levels():
            counts = []
            for _ in range(20):
                gateway = scripted_gateway(backend)  # fresh cache: every call runs
                score_level(gateway, [], inst.passages, TRACE_SUBQ_1, level=1, concurrency=2)
                counts.append(threading.active_count())
            return counts

        counts = in_thread(levels)
        assert max(counts[1:]) <= counts[0]
        assert flight.finished == 200
        assert len(flight.threads) <= 2  # the same workers served every level

    def test_failure_raised_after_in_flight_calls_finish(self):
        candidates = tuple(Passage(i, "", f"body {i}") for i in range(1, 7))
        scores = {i: 0.1 * i for i in range(2, 7)}
        # Passage 1 is not scripted: its call fails at once, while the
        # other worker's call is held open.
        backend = backend_with_scores([], candidates[1:], "q?", scores)
        flight = InFlight(hold=0.1)
        backend.token_logprobs = flight.wrap(backend.token_logprobs)
        with pytest.raises(ScriptMiss):
            score_level(
                scripted_gateway(backend), [], candidates, "q?", level=1, concurrency=2
            )
        started = flight.started
        assert flight.finished == started < len(candidates)
        time.sleep(0.15)
        assert flight.started == started

    def test_failed_candidate_aborts_level(self):
        candidates = (Passage(1, "", "a"), Passage(2, "", "b"))
        backend = backend_with_scores([], candidates[:1], "q?", {1: 0.5})
        with pytest.raises(ScriptMiss):
            score_level(scripted_gateway(backend), [], candidates, "q?", level=1)

    def test_max_nll_sign_flips_choice(self):
        candidates = (Passage(1, "", "a"), Passage(2, "", "b"))
        backend = backend_with_scores([], candidates, "q?", {1: 0.2, 2: 0.9})
        sel = score_level(
            scripted_gateway(backend), [], candidates, "q?", level=1,
            score_sign=MAX_NLL,
        )
        assert sel.chosen.passage_index == 2

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            score_level(scripted_gateway(ScriptedBackend()), [], [], "q?", level=1)

    def test_blank_target_rejected(self):
        with pytest.raises(ValueError):
            score_level(
                scripted_gateway(ScriptedBackend()), [], [Passage(0, "", "b")], " ",
                level=1,
            )


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=12, unique=True),
    st.integers(-100, 100),
)
def test_argmin_shift_invariance(scores, shift):
    base = [ScoredCandidate(1, i, s) for i, s in enumerate(scores)]
    shifted = [ScoredCandidate(1, i, s + shift) for i, s in enumerate(scores)]
    assert select_best(base).passage_index == select_best(shifted).passage_index
