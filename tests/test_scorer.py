import threading
import time

import pytest
from hypothesis import given, strategies as st

from gensco.llm import ScorerRequest, ScriptedBackend, ScriptMiss
from gensco.models import MultiHopInstance, Passage, ScoredCandidate, StopReason, Variant
from gensco.pipeline import PipelineConfig, Score, run_instance
from gensco.prompts import render_scoring_head, render_scoring_tails
from gensco.scorer import MAX_NLL, select_best

from helpers import (
    TRACE_SCORES_LEVEL_1,
    TRACE_SUBQ_2,
    InFlight,
    ScriptedPlan,
    build_instance_script,
    plan_requests,
    scoring_pool,
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


def one_level_gateway(inst, scores, flight=None):
    """A gateway scripted for one level of ``inst``, its scorer calls
    counted by ``flight``."""
    backend = ScriptedBackend()
    plan = ScriptedPlan(subquestions=[], level_scores=[scores], answer="x")
    build_instance_script(backend, inst, ONE_LEVEL, plan)
    if flight is not None:
        backend.token_logprobs = flight.wrap(backend.token_logprobs)
    return scripted_gateway(backend)


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

    @pytest.mark.parametrize("order", [(1, 2, 3), (3, 2, 1)], ids=["ascending", "descending"])
    def test_max_nll_tie_goes_to_the_lowest_index(self, order):
        scores = {1: 0.2, 2: 0.9, 3: 0.9}
        candidates = [ScoredCandidate(1, i, scores[i]) for i in order]
        assert select_best(candidates, MAX_NLL).passage_index == 2


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
        head, tails = render_scoring_head(prefix), render_scoring_tails(inst.passages)
        assert [req.prompt for req in request.requests] == [head + tail for tail in tails]
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
        pooled = one_level_gateway(shuffled, TRACE_SCORES_LEVEL_1)
        with scoring_pool(3) as fan_out:
            concurrent = run_instance(shuffled, ONE_LEVEL, pooled, fan_out=fan_out)
        assert concurrent == sequential
        candidates = concurrent[0].levels[0].candidates
        assert [c.passage_index for c in candidates] == list(range(1, 11))

    def test_at_most_concurrency_calls_in_flight(self):
        inst = trace_instance()
        flight = InFlight()
        gw = one_level_gateway(inst, TRACE_SCORES_LEVEL_1, flight)
        with scoring_pool(1) as fan_out:
            run_instance(inst, ONE_LEVEL, gw, fan_out=fan_out)
        assert flight.peak == 2
        assert flight.finished == 10

    def test_pool_threads_live_across_levels(self):
        inst = trace_instance()
        flight = InFlight(hold=0.0)
        counts = []
        gw = one_level_gateway(inst, TRACE_SCORES_LEVEL_1)
        # Counted at the requests score_many sends through the pool.
        score_many = gw.score_many
        gw.score_many = lambda requests, purpose, fan_out: score_many(
            requests, purpose, lambda fetch, misses: fan_out(flight.wrap(fetch), misses)
        )
        with scoring_pool(1) as fan_out:
            for _ in range(20):
                run_instance(inst, ONE_LEVEL, gw, fan_out=fan_out)
                counts.append(threading.active_count())
        assert max(counts[1:]) <= counts[0]
        assert flight.finished == 200
        assert len(flight.threads) <= 2  # the same workers served every level

    def test_failure_raised_after_in_flight_calls_finish(self):
        # Request 1 fails at once, while the other worker's call is held open.
        requests = [ScorerRequest(f"passage {i}", " q") for i in range(1, 7)]
        backend = ScriptedBackend()
        for req in requests[1:]:
            backend.add_logprobs(req, [-1.0])
        flight = InFlight(hold=0.1)
        backend.token_logprobs = flight.wrap(backend.token_logprobs)
        gw = scripted_gateway(backend)
        with scoring_pool(1) as fan_out:
            with pytest.raises(ScriptMiss):
                list(fan_out(gw.score_continuation, requests))
            started = flight.started
            assert flight.finished == started < 6
            time.sleep(0.15)
            assert flight.started == started

    def test_interrupt_of_the_caller_stops_new_requests_and_propagates(self):
        requests = [ScorerRequest(f"passage {i}", " q") for i in range(1, 9)]
        backend = ScriptedBackend()
        for req in requests:
            backend.add_logprobs(req, [-1.0])
        scripted = backend.token_logprobs

        def interrupted_on_the_caller(req):
            if threading.current_thread() is threading.main_thread():
                raise KeyboardInterrupt
            return scripted(req)

        flight = InFlight(hold=0.1)
        backend.token_logprobs = flight.wrap(interrupted_on_the_caller)
        gw = scripted_gateway(backend)
        with scoring_pool(1) as fan_out:
            with pytest.raises(KeyboardInterrupt):
                list(fan_out(gw.score_continuation, requests))
            started = flight.started
            assert flight.finished == started <= 3
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
        assert trace.stop_reason is StopReason.POOL_EXHAUSTED
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
