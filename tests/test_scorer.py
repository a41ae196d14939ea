import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing

import pytest
from hypothesis import given, strategies as st

from gensco.llm import ScorerRequest, ScriptedBackend, ScriptMiss
from gensco.models import MultiHopInstance, Passage, ScoredCandidate, StopReason, Variant
from gensco.pipeline import PipelineConfig, Score, run_instance
from gensco.prompts import render_scoring_prompt
from gensco.scorer import MAX_NLL, select_best

from helpers import (
    TRACE_SCORES_LEVEL_1,
    TRACE_SUBQ_2,
    InFlight,
    ScriptedPlan,
    build_instance_script,
    plan_requests,
    scripted_gateway,
    trace_instance,
    trace_plan,
)


def one_level_cfg(**overrides):
    """One level of the no-decomposition variant: exactly one relevance Score."""
    return PipelineConfig(variant=Variant.NO_QD, max_levels=1, **overrides)


ONE_LEVEL = one_level_cfg()


def instance(passages):
    return MultiHopInstance("score-test", "q?", "a", tuple(passages))


def one_level(passages, scores, cfg=ONE_LEVEL):
    """The level-1 trace entry for a score table."""
    plan = ScriptedPlan(subquestions=[], level_scores=[scores], answer="x")
    return plan_requests(instance(passages), cfg, plan)[0][0].levels[0]


def one_level_gateway(inst, scores, flight=None, workers=1):
    """A gateway scripted for one level of ``inst``; with ``workers`` of 2
    or more it has a scorer pool of that many workers."""
    backend = ScriptedBackend()
    plan = ScriptedPlan(subquestions=[], level_scores=[scores], answer="x")
    build_instance_script(backend, inst, ONE_LEVEL, plan)
    if flight is not None:
        backend.token_logprobs = flight.wrap(backend.token_logprobs)
    pool = ThreadPoolExecutor(workers) if workers >= 2 else None
    return scripted_gateway(backend, scorer_pool=pool)


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
    """A level scores every candidate appended to the greedy prefix."""

    def test_worked_example_level_one_picks_passage_eight(self):
        (trace, _), _ = plan_requests(trace_instance(), PipelineConfig(), trace_plan())
        level = trace.levels[0]
        assert level.chosen_index == 8
        assert level.candidates[7].score == pytest.approx(-0.988)
        assert len(level.candidates) == 10

    def test_worked_example_level_two_includes_prefix(self):
        inst = trace_instance()
        (trace, _), log = plan_requests(inst, PipelineConfig(), trace_plan())
        (request,) = [r for r, _ in log if r.purpose == "relevance" and r.level == 2]
        prefix = [inst.passage_by_index(8)]
        assert [req.prompt for req in request.requests] == [
            render_scoring_prompt(prefix + [p]).text for p in inst.passages
        ]
        assert {req.continuation for req in request.requests} == {" " + TRACE_SUBQ_2}
        assert trace.levels[1].chosen_index == 1

    def test_tie_break_lowest_index(self):
        level = one_level([Passage(1, "", "a"), Passage(2, "", "b")], {1: 0.5, 2: 0.5})
        assert level.chosen_index == 1

    def test_singleton(self):
        level = one_level([Passage(7, "", "only")], {7: 123.0})
        assert level.chosen_index == 7

    def test_exactly_k_scorer_calls(self):
        inst = trace_instance()
        gw = one_level_gateway(inst, TRACE_SCORES_LEVEL_1)
        run_instance(inst, ONE_LEVEL, gw)
        assert gw.stats()["scorer_calls"] == {"relevance": 10}

    def test_concurrent_merge_is_index_ordered(self):
        inst = trace_instance()
        shuffled = MultiHopInstance(inst.id, inst.question, "a", inst.passages[::-1])
        gw = one_level_gateway(shuffled, TRACE_SCORES_LEVEL_1)
        sequential = run_instance(shuffled, ONE_LEVEL, gw)
        with closing(one_level_gateway(shuffled, TRACE_SCORES_LEVEL_1, workers=4)) as pooled:
            concurrent = run_instance(shuffled, ONE_LEVEL, pooled)
        assert concurrent == sequential
        candidates = concurrent[0].levels[0].candidates
        assert [c.passage_index for c in candidates] == list(range(1, 11))

    def test_at_most_concurrency_calls_in_flight(self):
        inst = trace_instance()
        flight = InFlight()
        with closing(one_level_gateway(inst, TRACE_SCORES_LEVEL_1, flight, workers=2)) as gw:
            run_instance(inst, ONE_LEVEL, gw)
        assert flight.peak == 2
        assert flight.finished == 10

    def test_pool_threads_live_across_levels(self):
        inst = trace_instance()
        flight = InFlight(hold=0.0)
        counts = []
        with closing(one_level_gateway(inst, TRACE_SCORES_LEVEL_1, workers=2)) as gw:
            # Counted at the gateway, so calls the cache answers count too.
            gw.score_continuation = flight.wrap(gw.score_continuation)
            for _ in range(20):
                run_instance(inst, ONE_LEVEL, gw)
                counts.append(threading.active_count())
        assert max(counts[1:]) <= counts[0]
        assert flight.finished == 200
        assert len(flight.threads) <= 2  # the same workers served every level

    def test_pool_threads_end_with_the_gateway(self):
        inst = trace_instance()
        flight = InFlight(hold=0.0)
        gw = one_level_gateway(inst, TRACE_SCORES_LEVEL_1, flight, workers=2)
        run_instance(inst, ONE_LEVEL, gw)
        gw.close()
        assert flight.finished == 10 and flight.threads
        assert not any(thread.is_alive() for thread in flight.threads)

    def test_failure_raised_after_in_flight_calls_finish(self):
        # Request 1 fails at once, while the other worker's call is held open.
        requests = [ScorerRequest(f"passage {i}", " q") for i in range(1, 7)]
        backend = ScriptedBackend()
        for req in requests[1:]:
            backend.add_logprobs(req, [-1.0])
        flight = InFlight(hold=0.1)
        backend.token_logprobs = flight.wrap(backend.token_logprobs)
        with closing(scripted_gateway(backend, scorer_pool=ThreadPoolExecutor(2))) as gw:
            with pytest.raises(ScriptMiss):
                gw.score_many(requests, "relevance")
            started = flight.started
            assert flight.finished == started < 6
            time.sleep(0.15)
            assert flight.started == started

    def test_failed_candidate_aborts_level(self):
        scores = {1: 0.5, 2: 0.7}
        gw = one_level_gateway(instance([Passage(1, "", "a"), Passage(2, "", "b")]), scores)
        # Passage 3's scoring request was never scripted.
        inst = instance([Passage(1, "", "a"), Passage(2, "", "b"), Passage(3, "", "c")])
        with pytest.raises(ScriptMiss):
            run_instance(inst, ONE_LEVEL, gw)
        assert gw.stats()["generator_calls"] == {}

    def test_max_nll_sign_flips_choice(self):
        passages = [Passage(1, "", "a"), Passage(2, "", "b")]
        level = one_level(passages, {1: 0.2, 2: 0.9}, one_level_cfg(score_sign=MAX_NLL))
        assert level.chosen_index == 2

    def test_empty_candidates_rejected(self):
        # Once dedupe_pool has taken every passage, the loop stops instead
        # of scoring an empty level.
        cfg = PipelineConfig(variant=Variant.NO_QD, max_levels=3, dedupe_pool=True)
        plan = ScriptedPlan(subquestions=[], level_scores=[{7: 1.0}], answer="x")
        (trace, _), log = plan_requests(instance([Passage(7, "", "only")]), cfg, plan)
        assert trace.selected_sequence == (7,)
        assert trace.stop_reason is StopReason.MAX_LEVELS
        assert [len(r.requests) for r, _ in log if isinstance(r, Score)] == [1]

    def test_blank_target_rejected(self):
        # A blank sub-question is terminal, so no level scores a blank target.
        plan = ScriptedPlan(subquestions=["  "], level_scores=[], answer="x")
        (trace, _), log = plan_requests(trace_instance(), PipelineConfig(), plan)
        assert trace.stop_reason is StopReason.FIN_KEYWORD
        assert not [r for r, _ in log if isinstance(r, Score)]


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=12, unique=True),
    st.integers(-100, 100),
)
def test_argmin_shift_invariance(scores, shift):
    base = [ScoredCandidate(1, i, s) for i, s in enumerate(scores)]
    shifted = [ScoredCandidate(1, i, s + shift) for i, s in enumerate(scores)]
    assert select_best(base).passage_index == select_best(shifted).passage_index
