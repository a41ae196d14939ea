import hashlib
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing

import pytest

from gensco.llm import ScriptedBackend
from gensco.models import Dataset, StopReason, Variant, replay_trace
from gensco.pipeline import Generate, PipelineConfig, greedy_loop, run_instance
from gensco.prompts import FIN_KEYWORD, load_shots
from gensco.scorer import MAX_NLL, MIN_NLL

from helpers import (
    TRACE_ANSWER,
    TRACE_SCORES_LEVEL_1,
    TRACE_SUBQ_1,
    TRACE_SUBQ_2,
    InFlight,
    ScriptedPlan,
    build_instance_script,
    plan_requests,
    scripted_gateway,
    trace_instance,
    trace_plan,
)

# Every request of the worked trace (stop variant, 2Wiki defaults and
# shots) in the order the loop makes it: purpose, level and the first 16
# hex digits of its fingerprint. The max variant makes the same requests
# without the stop pair. Recorded from build_instance_script as it was
# before the loop became a generator.
GOLDEN_STOP_REQUESTS = [
    ("decomposition", 1, "c9f5daead11a581d"),
    ("relevance", 1, "faf3457e2c644832"),
    ("relevance", 1, "8cb7c5b7b5e5a454"),
    ("relevance", 1, "e68e2a0c6ac5ae12"),
    ("relevance", 1, "135106ad48163b9a"),
    ("relevance", 1, "9631f8e87c2f6d96"),
    ("relevance", 1, "0a1cd2a45c8204d3"),
    ("relevance", 1, "9bff7861fbabf6ac"),
    ("relevance", 1, "8175c8db14086976"),
    ("relevance", 1, "f4f2cb1e670a8176"),
    ("relevance", 1, "a802d7dfbfaf7f65"),
    ("decomposition", 2, "dcdad318a836d2ed"),
    ("stop", 2, "8a735956bc597e9c"),
    ("stop", 2, "fb6e42d9b46c1cde"),
    ("relevance", 2, "cfe4aab0f18b4549"),
    ("relevance", 2, "72ef12e1d52071bb"),
    ("relevance", 2, "c15584e3f52a16b8"),
    ("relevance", 2, "5c63a831fb597b83"),
    ("relevance", 2, "393a6e34d971e319"),
    ("relevance", 2, "c57b2c74f68d1ed7"),
    ("relevance", 2, "4adfaf94de1f616a"),
    ("relevance", 2, "99d5744648a52113"),
    ("relevance", 2, "e2af37afaae54993"),
    ("relevance", 2, "fc54f02e9773b767"),
    ("decomposition", 3, "f75bf0e510cc0ebc"),
    ("answer", 0, "99a866d07552a6ef"),
]
# sha256 of ScriptedBackend.to_file for each variant's worked-trace script.
GOLDEN_SCRIPT_SHA256 = {
    Variant.STOP: "05847b565f02011443a9291c585e5fca3d7090421a262ba9b5e2ef4c4a10c851",
    Variant.MAX: "a739647b1016199d0df2108c2cbd19054fa68a5a35828187027c4a27b3f3ffdc",
}


def run_trace_example(variant=Variant.STOP, plan=None, gateway=None, **cfg_overrides):
    """The worked trace through ``gateway`` (by default a fresh scripted one)."""
    inst = trace_instance()
    cfg = PipelineConfig.for_dataset(Dataset.TWO_WIKI, variant, **cfg_overrides)
    shots = load_shots(Dataset.TWO_WIKI)
    gateway = gateway or scripted_gateway(ScriptedBackend())
    build_instance_script(gateway.scorer, inst, cfg, plan or trace_plan(), shots)
    return run_instance(inst, cfg, gateway, shots), gateway


class TestWorkedTrace:
    def test_stop_variant_selects_eight_then_one(self):
        (trace, record), _ = run_trace_example()
        assert trace.selected_sequence == (8, 1)
        assert record.context_order == (8, 1)
        assert record.predicted_answer == TRACE_ANSWER
        assert trace.stop_reason is StopReason.FIN_KEYWORD
        assert replay_trace(trace)

    def test_max_nll_trace_replays_under_its_own_rule(self):
        (trace, _), _ = run_trace_example(score_sign=MAX_NLL)
        assert replay_trace(trace, MAX_NLL)
        assert not replay_trace(trace, MIN_NLL)

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
        # Five runs through one gateway with a 2-worker scorer pool, and the
        # same five through one without a pool.
        sequential_gateway = scripted_gateway(ScriptedBackend())
        pool = ThreadPoolExecutor(2)
        runs = []
        with closing(scripted_gateway(ScriptedBackend(), scorer_pool=pool)) as gateway:
            for _ in range(5):
                sequential, _ = run_trace_example(gateway=sequential_gateway)
                result, _ = run_trace_example(gateway=gateway)
                runs.append((result, threading.active_count()))
        for result, _ in runs:
            assert result == sequential
        assert gateway.stats() == sequential_gateway.stats()
        counts = [count for _, count in runs]
        assert max(counts[1:]) <= counts[0]


class TestGoldenPrompts:
    """Scripts are recorded from the loop itself, so a ScriptMiss cannot
    expose drift in how it composes prompts; these pins do."""

    @pytest.mark.parametrize("variant", [Variant.STOP, Variant.MAX])
    def test_worked_trace_requests_pinned(self, variant, tmp_path):
        inst = trace_instance()
        cfg = PipelineConfig.for_dataset(Dataset.TWO_WIKI, variant)
        shots = load_shots(Dataset.TWO_WIKI)
        _, log = plan_requests(inst, cfg, trace_plan(), shots)
        seen = []
        for request, _ in log:
            if isinstance(request, Generate):
                fingerprints = [request.request.fingerprint]
            else:
                fingerprints = [r.fingerprint for r in request.requests]
            seen += [(request.purpose, request.level, f[:16]) for f in fingerprints]
        assert seen == [
            r for r in GOLDEN_STOP_REQUESTS if variant is Variant.STOP or r[0] != "stop"
        ]
        backend = ScriptedBackend()
        build_instance_script(backend, inst, cfg, trace_plan(), shots)
        backend.to_file(tmp_path / "script.json")
        digest = hashlib.sha256((tmp_path / "script.json").read_bytes()).hexdigest()
        assert digest == GOLDEN_SCRIPT_SHA256[variant]


class TestStoppingRules:
    """The stop tests, run on the worked trace under plans."""

    def check(self, without, with_c, workers=1, flight=None):
        """The worked trace with a level-2 stop pair, through a gateway with
        a scorer pool of ``workers`` (none at 1); its stop reason."""
        plan = trace_plan(stop_nlls={2: (without, with_c)})
        inst = trace_instance()
        backend = ScriptedBackend()
        build_instance_script(backend, inst, PipelineConfig(), plan)
        if flight is not None:
            # Count only the stop pair: its continuation is the question.
            plain, counted = backend.token_logprobs, flight.wrap(backend.token_logprobs)
            backend.token_logprobs = lambda req: (
                counted if req.continuation == " " + inst.question else plain
            )(req)
        pool = ThreadPoolExecutor(workers) if workers >= 2 else None
        with closing(scripted_gateway(backend, scorer_pool=pool)) as gateway:
            trace, _ = run_instance(inst, PipelineConfig(), gateway)
        if trace.stop_reason is StopReason.LIKELIHOOD_STOP:
            assert trace.selected_sequence == (8,)
            return trace.stop_reason
        assert (trace.selected_sequence, trace.stop_reason) == ((8, 1), StopReason.FIN_KEYWORD)
        return None

    def test_strictly_increasing_nll_stops(self):
        assert self.check(1.5, 1.8) is StopReason.LIKELIHOOD_STOP

    def test_equal_nll_continues(self):
        assert self.check(1.5, 1.5) is None

    def test_decreasing_nll_continues(self):
        assert self.check(1.8, 1.5) is None

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "without, with_c, expected",
        [(1.5, 1.8, StopReason.LIKELIHOOD_STOP), (1.8, 1.5, None)],
    )
    def test_stop_pair_scored_concurrently_with_two_scorer_workers(
        self, workers, without, with_c, expected
    ):
        flight = InFlight(hold=0.02)
        assert self.check(without, with_c, workers, flight) is expected
        assert flight.finished == 2
        assert flight.peak == workers

    def test_fin_keyword_stop(self):
        plan = ScriptedPlan([TRACE_SUBQ_1, FIN_KEYWORD], [TRACE_SCORES_LEVEL_1], "x")
        (trace, _), log = plan_requests(trace_instance(), PipelineConfig(), plan)
        assert (trace.selected_sequence, trace.stop_reason) == ((8,), StopReason.FIN_KEYWORD)
        assert "stop" not in {r.purpose for r, _ in log}

    def test_repeated_subquestion_stop(self):
        plan = ScriptedPlan(
            [TRACE_SUBQ_1, TRACE_SUBQ_1.upper()], [TRACE_SCORES_LEVEL_1], "x"
        )
        cfg = PipelineConfig(variant=Variant.MAX)
        (trace, _), _ = plan_requests(trace_instance(), cfg, plan)
        assert trace.stop_reason is StopReason.REPEATED_SUBQUESTION
        assert trace.selected_sequence == (8,)

    def test_level_one_likelihood_test_skipped(self):
        (trace, _), log = plan_requests(trace_instance(), PipelineConfig(), trace_plan())
        assert [r.level for r, _ in log if r.purpose == "stop"] == [2]
        assert [lv.sub_question.text for lv in trace.levels] == [TRACE_SUBQ_1, TRACE_SUBQ_2]


class TestVariants:
    @pytest.mark.parametrize("variant", [Variant.BM25, Variant.PRECOMPUTED])
    def test_baseline_variant_rejected_before_any_request(self, variant):
        loop = greedy_loop(trace_instance(), PipelineConfig(variant=variant), (), "scripted")
        with pytest.raises(ValueError, match=variant.value):
            next(loop)

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
