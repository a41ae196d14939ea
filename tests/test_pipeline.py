import threading

import pytest

from gensco.decomposition import DecompositionState
from gensco.llm import ScorerRequest, ScriptedBackend
from gensco.models import Dataset, StopReason, SubQuestion, Variant, replay_trace
from gensco.pipeline import PipelineConfig, run_instance, should_stop
from gensco.prompts import FIN_KEYWORD, load_shots, render_stop_prompt
from gensco.scripting import ScriptedPlan, build_instance_script

from helpers import (
    TRACE_ANSWER,
    TRACE_SCORES_LEVEL_1,
    TRACE_SUBQ_1,
    InFlight,
    in_thread,
    scripted_gateway,
    trace_instance,
    trace_plan,
)


def run_trace_example(variant=Variant.STOP, plan=None, **cfg_overrides):
    inst = trace_instance()
    cfg = PipelineConfig.for_dataset(Dataset.TWO_WIKI, variant, **cfg_overrides)
    shots = load_shots(Dataset.TWO_WIKI)
    backend = ScriptedBackend()
    build_instance_script(backend, inst, cfg, plan or trace_plan(), shots)
    gateway = scripted_gateway(backend)
    return run_instance(inst, cfg, gateway, shots), gateway


class TestWorkedTrace:
    def test_stop_variant_selects_eight_then_one(self):
        (trace, record), _ = run_trace_example()
        assert trace.selected_sequence == (8, 1)
        assert record.context_order == (8, 1)
        assert record.predicted_answer == TRACE_ANSWER
        assert trace.stop_reason is StopReason.FIN_KEYWORD
        assert replay_trace(trace)

    def test_max_variant_matches_on_same_script(self):
        (trace, record), _ = run_trace_example(variant=Variant.MAX)
        assert trace.selected_sequence == (8, 1)
        assert record.predicted_answer == TRACE_ANSWER

    def test_answer_call_issued_once(self):
        _, gateway = run_trace_example()
        stats = gateway.stats()
        assert stats["generator_calls"]["answer"] == 1
        assert stats["generator_calls"]["decomposition"] == 3
        assert stats["scorer_calls"]["relevance"] == 20
        assert stats["scorer_calls"]["stop"] == 2

    def test_scorer_pool_matches_sequential_and_keeps_thread_count(self):
        sequential, sequential_gateway = run_trace_example()

        def instances():
            return [
                (run_trace_example(scorer_concurrency=2), threading.active_count())
                for _ in range(5)
            ]

        runs = in_thread(instances)
        for (result, gateway), _ in runs:
            assert result == sequential
            assert gateway.stats() == sequential_gateway.stats()
        counts = [count for _, count in runs]
        assert max(counts[1:]) <= counts[0]


class TestStoppingRules:
    def stop_state(self):
        inst = trace_instance()
        p8 = inst.passage_by_index(8)
        state = DecompositionState(question=inst.question)
        state.record(SubQuestion(1, TRACE_SUBQ_1), p8)
        return inst, state, [p8]

    def scripted_stop_pair(self, inst, selected, prior, candidate_text, without, with_c):
        backend = ScriptedBackend()
        backend.add_logprobs(
            ScorerRequest(
                render_stop_prompt(selected, prior).text, " " + inst.question
            ),
            [-without],
        )
        backend.add_logprobs(
            ScorerRequest(
                render_stop_prompt(selected, prior + [candidate_text]).text,
                " " + inst.question,
            ),
            [-with_c],
        )
        return scripted_gateway(backend)

    def check(self, without, with_c, scorer_concurrency=1, flight=None):
        inst, state, selected = self.stop_state()
        candidate = SubQuestion(2, "What is the place of birth of Thea Sharrock?")
        gateway = self.scripted_stop_pair(
            inst, selected, [TRACE_SUBQ_1], candidate.text, without, with_c
        )
        if flight is not None:
            gateway.scorer.token_logprobs = flight.wrap(gateway.scorer.token_logprobs)
        cfg = PipelineConfig(variant=Variant.STOP, scorer_concurrency=scorer_concurrency)
        return should_stop(state, selected, candidate, cfg, gateway)

    def test_strictly_increasing_nll_stops(self):
        assert self.check(1.5, 1.8) is StopReason.LIKELIHOOD_STOP

    def test_equal_nll_continues(self):
        assert self.check(1.5, 1.5) is None

    def test_decreasing_nll_continues(self):
        assert self.check(1.8, 1.5) is None

    @pytest.mark.parametrize("scorer_concurrency", [1, 2])
    @pytest.mark.parametrize(
        "without, with_c, expected",
        [(1.5, 1.8, StopReason.LIKELIHOOD_STOP), (1.8, 1.5, None)],
    )
    def test_stop_pair_scored_concurrently_with_two_scorer_workers(
        self, scorer_concurrency, without, with_c, expected
    ):
        flight = InFlight(hold=0.02)
        assert self.check(without, with_c, scorer_concurrency, flight) is expected
        assert flight.finished == 2
        assert flight.peak == scorer_concurrency

    def test_fin_keyword_stop(self):
        inst, state, selected = self.stop_state()
        candidate = SubQuestion(2, FIN_KEYWORD, terminal=True)
        cfg = PipelineConfig(variant=Variant.STOP)
        reason = should_stop(
            state, selected, candidate, cfg, scripted_gateway(ScriptedBackend())
        )
        assert reason is StopReason.FIN_KEYWORD

    def test_repeated_subquestion_stop(self):
        inst, state, selected = self.stop_state()
        candidate = SubQuestion(2, TRACE_SUBQ_1.upper())
        cfg = PipelineConfig(variant=Variant.MAX)
        reason = should_stop(
            state, selected, candidate, cfg, scripted_gateway(ScriptedBackend())
        )
        assert reason is StopReason.REPEATED_SUBQUESTION

    def test_level_one_likelihood_test_skipped(self):
        state = DecompositionState(question="Q?")
        candidate = SubQuestion(1, "Sub one?")
        cfg = PipelineConfig(variant=Variant.STOP)
        # No scripted stop responses exist: a level-1 likelihood call would miss.
        assert should_stop(state, [], candidate, cfg, scripted_gateway(ScriptedBackend())) is None


class TestVariants:
    def test_max_levels_one_stops_with_one_passage(self):
        plan = trace_plan()
        (trace, record), _ = run_trace_example(max_levels=1, plan=plan)
        assert trace.selected_sequence == (8,)
        assert trace.stop_reason is StopReason.MAX_LEVELS

    def test_fin_at_level_one_yields_empty_selection(self):
        plan = ScriptedPlan(
            subquestions=[FIN_KEYWORD], level_scores=[], answer="no context answer"
        )
        (trace, record), _ = run_trace_example(plan=plan)
        assert trace.selected_sequence == ()
        assert trace.stop_reason is StopReason.FIN_KEYWORD
        assert record.predicted_answer == "no context answer"
        assert record.context_order == ()

    def test_no_qd_repeated_passage_stop(self):
        inst = trace_instance()
        # Same score table at both levels: the same passage wins again.
        plan = ScriptedPlan(
            subquestions=[],
            level_scores=[TRACE_SCORES_LEVEL_1, TRACE_SCORES_LEVEL_1],
            answer="x",
        )
        cfg = PipelineConfig.for_dataset(Dataset.TWO_WIKI, Variant.NO_QD)
        backend = ScriptedBackend()
        build_instance_script(backend, inst, cfg, plan)
        gateway = scripted_gateway(backend)
        trace, record = run_instance(inst, cfg, gateway, ())
        assert trace.selected_sequence == (8,)
        assert trace.stop_reason is StopReason.REPEATED_PASSAGE
        # Every level targeted the original question, not a sub-question.
        assert all(lv.sub_question.text == inst.question for lv in trace.levels)
        assert gateway.stats()["generator_calls"] == {"answer": 1}

    def test_stop_variant_never_selects_more_than_max(self):
        # Same scripted decomposition; the stop variant's extra rule can
        # only shorten the selection.
        stopping = trace_plan(stop_nlls={2: (1.5, 1.9)})
        (stop_trace, _), _ = run_trace_example(variant=Variant.STOP, plan=stopping)
        (max_trace, _), _ = run_trace_example(variant=Variant.MAX)
        assert len(stop_trace.selected_sequence) <= len(max_trace.selected_sequence)
        assert stop_trace.stop_reason is StopReason.LIKELIHOOD_STOP
        assert stop_trace.selected_sequence == (8,)

    def test_dedupe_pool_prunes_selected(self):
        inst = trace_instance()
        plan = ScriptedPlan(
            subquestions=[],
            level_scores=[TRACE_SCORES_LEVEL_1, TRACE_SCORES_LEVEL_1],
            answer="x",
        )
        cfg = PipelineConfig.for_dataset(
            Dataset.TWO_WIKI, Variant.NO_QD, dedupe_pool=True, max_levels=2
        )
        backend = ScriptedBackend()
        build_instance_script(backend, inst, cfg, plan)
        trace, _ = run_instance(inst, cfg, scripted_gateway(backend), ())
        # Passage 8 is pruned after selection, so level 2 picks the runner-up.
        assert trace.selected_sequence == (8, 5)


class TestShuffleAblation:
    def test_shuffled_context_recorded(self):
        cfg_overrides = dict(shuffle=True, shuffle_seed=11)
        (trace, record), _ = run_trace_example(**cfg_overrides)
        assert trace.selected_sequence == (8, 1)
        assert record.context_order == (1, 8)
        assert record.permutation == (1, 0)

    def test_unshuffled_order_preserved(self):
        (trace, record), _ = run_trace_example()
        assert record.context_order == trace.selected_sequence
        assert record.permutation is None


class TestCallBudget:
    def test_budget_counts(self, tmp_path):
        from gensco.datasets import DatasetConfig, load
        from helpers import build_synthetic_script, write_synthetic_dataset

        path = tmp_path / "syn.json"
        write_synthetic_dataset(path, 1, n_passages=5)
        inst = load(DatasetConfig(Dataset.SYNTHETIC, str(path)))[0]
        cfg = PipelineConfig(variant=Variant.MAX, max_levels=3, shots=2)
        backend = build_synthetic_script([inst], cfg)
        gateway = scripted_gateway(backend)
        shots = load_shots(Dataset.SYNTHETIC)
        trace, record = run_instance(inst, cfg, gateway, shots)
        stats = gateway.stats()
        assert stats["generator_calls"]["answer"] == 1
        assert stats["generator_calls"]["decomposition"] <= 4
        assert stats["scorer_calls"]["relevance"] == 15
        assert len(trace.selected_sequence) == 3
