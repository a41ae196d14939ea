import threading

import pytest
from hypothesis import given, strategies as st

from gensco.llm import LlmGateway, ScriptedBackend, ScriptMiss
from gensco.models import MultiHopInstance, Passage, ScoredCandidate, StopReason, Variant
from gensco.pipeline import PipelineConfig, Score, run_instance
from gensco.prompts import render_scoring_head, render_scoring_tails
from gensco.scorer import MAX_NLL, select_best

from helpers import (
    TRACE_SCORES_LEVEL_1,
    TRACE_SUBQ_2,
    ScriptedPlan,
    build_instance_script,
    plan_requests,
    replies_for,
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


def one_level_gateway(inst, scores):
    """A gateway scripted for one level of ``inst``."""
    backend = ScriptedBackend()
    plan = ScriptedPlan(subquestions=[], level_scores=[scores], answer="x")
    build_instance_script(backend, inst, ONE_LEVEL, plan)
    return scripted_gateway(backend)


def one_level_server(serve, inst, scores, hold=0.005):
    """A loopback stub that answers one level of ``inst``, each reply held
    ``hold`` seconds so that the calls in flight overlap."""
    plan = ScriptedPlan(subquestions=[], level_scores=[scores], answer="x")
    return serve(replies_for(plan_requests(inst, ONE_LEVEL, plan)[1], hold))


def http_gateway(server, scorer_concurrency):
    backend = server.backend()
    return LlmGateway(backend, backend, scorer_concurrency=scorer_concurrency)


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

    def test_concurrent_merge_is_index_ordered(self, serve):
        inst = trace_instance()
        shuffled = MultiHopInstance(inst.id, inst.question, "a", inst.passages[::-1])
        gw = one_level_gateway(shuffled, TRACE_SCORES_LEVEL_1)
        sequential = run_instance(shuffled, ONE_LEVEL, gw)
        server = one_level_server(serve, shuffled, TRACE_SCORES_LEVEL_1)
        concurrent = run_instance(shuffled, ONE_LEVEL, http_gateway(server, 3))
        assert server.peak[None] == 3
        (trace, record), (expected, expected_record) = concurrent, sequential
        assert trace == expected
        assert (record.predicted_answer, record.context_order) == (
            expected_record.predicted_answer, expected_record.context_order
        )
        candidates = trace.levels[0].candidates
        assert [c.passage_index for c in candidates] == list(range(1, 11))

    def test_at_most_concurrency_calls_in_flight(self, serve):
        inst = trace_instance()
        server = one_level_server(serve, inst, TRACE_SCORES_LEVEL_1)
        gw = http_gateway(server, 2)
        run_instance(inst, ONE_LEVEL, gw)
        assert server.peak[None] == 2
        assert gw.stats()["scorer_calls"] == {"relevance": 10}

    def test_pooled_connections_live_across_levels(self, serve):
        inst = trace_instance()
        server = one_level_server(serve, inst, TRACE_SCORES_LEVEL_1, hold=0.0)
        gw = http_gateway(server, 2)
        counts = []
        for _ in range(20):
            run_instance(inst, ONE_LEVEL, gw)
            counts.append(threading.active_count())
        assert max(counts[1:]) <= counts[0]
        assert gw.stats()["scorer_calls"] == {"relevance": 200}
        assert server.connections() <= 2  # the same connections served every level

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
