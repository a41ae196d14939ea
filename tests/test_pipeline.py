import functools
import hashlib
import math
import threading
from collections import Counter
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from gensco.baselines import bm25_rank
from gensco import llm, pipeline
from gensco.llm import MalformedResponse, ScorerRequest, ScriptedBackend
from gensco.models import (
    Dataset,
    MultiHopInstance,
    Passage,
    StopReason,
    Variant,
    replay_trace,
)
from gensco.pipeline import (
    GENSCO_VARIANTS,
    Generate,
    PipelineConfig,
    Score,
    drive,
    greedy_loop,
    run_instance,
)
from gensco.prompts import FIN_KEYWORD, concat_passages, load_shots
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
    scoring_pool,
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
        # Five runs that score two requests at once, on one pool, and the
        # same five through a gateway that scores one at a time.
        sequential_gateway = scripted_gateway(ScriptedBackend())
        runs = []
        with scoring_pool(1) as fan_out:
            gateway = scripted_gateway(ScriptedBackend(), fan_out=fan_out)
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
        """The worked trace with a level-2 stop pair, each Score scored on up
        to ``workers`` threads at once; its stop reason."""
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
        with scoring_pool(workers - 1) as fan_out:
            trace, _ = run_instance(
                inst, PipelineConfig(), scripted_gateway(backend, fan_out=fan_out)
            )
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

    @pytest.mark.parametrize("without, with_c", [(math.nan, 1.2), (1.5, math.nan)],
                             ids=["without-nan", "with-candidate-nan"])
    def test_stop_pair_with_a_nan_side_fails_the_instance(self, without, with_c):
        # NaN > x and x > NaN are both false: unchecked, the test would
        # never fire and the instance would go on to level 3.
        with pytest.raises(MalformedResponse, match="mean NLL of nan"):
            self.check(without, with_c)

    def test_nan_relevance_score_fails_the_instance(self):
        plan = trace_plan()
        plan.level_scores = [{**TRACE_SCORES_LEVEL_1, 3: math.nan}, plan.level_scores[1]]
        with pytest.raises(MalformedResponse, match="mean NLL of nan"):
            run_trace_example(plan=plan)

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

    @pytest.mark.parametrize("variant, calls", [(Variant.MAX, 6), (Variant.STOP, 8)])
    def test_pool_emptied_by_dedupe_pool_is_its_own_stop_reason(self, variant, calls):
        # Two passages and four levels: level 3 finds no candidate left and
        # makes no call, neither its decomposition nor its stop pair.
        inst = MultiHopInstance("dedupe", "q?", "a", (Passage(1, "", "a"), Passage(2, "", "b")))
        plan = ScriptedPlan(
            ["first?", "second?", "third?"],
            [{1: 0.1, 2: 0.5}, {2: 0.3}],
            "x",
            stop_nlls={2: (1.0, 0.5), 3: (1.0, 0.5)},
        )
        cfg = PipelineConfig(variant=variant, max_levels=4, dedupe_pool=True)
        (trace, _), log = plan_requests(inst, cfg, plan)
        assert trace.stop_reason is StopReason.POOL_EXHAUSTED
        assert (len(trace.levels), trace.selected_sequence) == (2, (1, 2))
        made = sum(len(r.requests) if isinstance(r, Score) else 1 for r, _ in log)
        assert made == calls
        assert max(r.level for r, _ in log) == 2


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

    def test_no_qd_stops_when_an_earlier_passage_is_reselected(self):
        # Passage 1, then 2, then 1 again: the repeat is of the first
        # selection, not the last one.
        table = {i: 1.0 for i in range(1, 11)}
        plan = ScriptedPlan(
            subquestions=[],
            level_scores=[{**table, 1: 0.1}, {**table, 2: 0.1}, {**table, 1: 0.1}],
            answer="x",
        )
        cfg = PipelineConfig.for_dataset(Dataset.TWO_WIKI, Variant.NO_QD, max_levels=4)
        (trace, _), _ = plan_requests(trace_instance(), cfg, plan)
        assert trace.stop_reason is StopReason.REPEATED_PASSAGE
        assert trace.selected_sequence == (1, 2)
        assert len(trace.levels) == 2

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


class TestRankedLoop:
    def run(self, cfg, ranking=None):
        (trace, record), log = plan_requests(
            trace_instance(), cfg, ScriptedPlan([], [], "London"), ranking=ranking
        )
        assert [request.purpose for request, _ in log] == ["answer"]
        assert trace.levels == () and trace.stop_reason is None
        assert record.context_order == trace.selected_sequence
        return trace.selected_sequence

    def test_bm25_keeps_its_first_top_k(self):
        inst = trace_instance()
        ranked = bm25_rank(inst.question, inst.passages, 1.2, 0.75)
        cfg = PipelineConfig.for_dataset(Dataset.TWO_WIKI, Variant.BM25)
        assert cfg.top_k == 5
        assert self.run(cfg) == tuple(p.index for p in ranked[:5])

    def test_precomputed_keeps_its_first_top_k(self):
        cfg = PipelineConfig.for_dataset(Dataset.TWO_WIKI, Variant.PRECOMPUTED, top_k=2)
        assert self.run(cfg, [3, 1, 4, 2]) == (3, 1)

    def test_top_k_beyond_the_ranking_keeps_it_whole(self):
        cfg = PipelineConfig.for_dataset(Dataset.TWO_WIKI, Variant.PRECOMPUTED, top_k=5)
        assert self.run(cfg, [7, 2, 9]) == (7, 2, 9)

    def test_precomputed_without_a_ranking_is_refused_by_name(self):
        inst = trace_instance()
        cfg = PipelineConfig.for_dataset(Dataset.TWO_WIKI, Variant.PRECOMPUTED)
        gateway = scripted_gateway(ScriptedBackend())
        with pytest.raises(ValueError, match=f"{inst.id!r}.*'precomputed'.*needs a ranking"):
            run_instance(inst, cfg, gateway)
        assert gateway.stats()["generator_calls"] == {}

    def test_bm25_reads_k1_and_b_from_the_config(self):
        inst = trace_instance()
        cfg = PipelineConfig.for_dataset(
            Dataset.TWO_WIKI, Variant.BM25, top_k=10, bm25_k1=0.5, bm25_b=0.0
        )
        ranked = bm25_rank(inst.question, inst.passages, 0.5, 0.0)
        assert ranked != bm25_rank(inst.question, inst.passages, 1.2, 0.75)
        assert self.run(cfg) == tuple(p.index for p in ranked)


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


SCORING_INSTRUCTION = "Generate a question based on the context."
# Per level, the lowest and the highest score go to different passages.
LEVEL_SCORES = [
    {1: 0.5, 2: 0.1, 3: 0.9, 4: 0.4, 5: 0.3},
    {1: 0.2, 2: 0.6, 3: 0.5, 4: 0.7, 5: 0.8},
    {1: 0.9, 2: 0.8, 3: 0.6, 4: 0.1, 5: 0.2},
]


def whole_scoring_prompt(passages):
    """A relevance prompt rendered as one text, prefix and candidate together."""
    return f"{SCORING_INSTRUCTION}\nContext: {concat_passages(passages)}\nQuestion:"


def mixed_title_instance(body_chars=40):
    """Five passages, the odd ones without a title, bodies of ``body_chars``
    characters that differ from the first one."""
    bodies = [(f"{letter} body. " * body_chars)[:body_chars] for letter in "ABCDE"]
    passages = tuple(
        Passage(i, "" if i % 2 else f"Title {i}", bodies[i - 1]) for i in range(1, 6)
    )
    return MultiHopInstance("relevance-levels", "q?", "a", passages)


def count_request_work(monkeypatch) -> Counter:
    """Count, while the test runs, the bytes llm hashes ("hashed") and the
    strs it escapes as JSON ("escaped", and their length, "chars")."""
    work = Counter()
    sha256, dumps = hashlib.sha256, llm.orjson.dumps

    class Counted:
        """A sha256 state that counts the bytes it is given."""

        def __init__(self, state, data=b""):
            self.state = state
            self.update(data)

        def update(self, data):
            work["hashed"] += len(data)
            self.state.update(data)

        def copy(self):
            return Counted(self.state.copy())

        def hexdigest(self):
            return self.state.hexdigest()

    def counted_dumps(value):
        if type(value) is str:
            work["escaped"] += 1
            work["chars"] += len(value)
        return dumps(value)

    monkeypatch.setattr(llm.hashlib, "sha256", lambda data=b"": Counted(sha256(), data))
    monkeypatch.setattr(llm.orjson, "dumps", counted_dumps)
    # An empty cache of Generator heads, dropped with the counted states it keeps.
    monkeypatch.setattr(
        llm, "_shared_generator_start",
        functools.lru_cache(maxsize=8, typed=True)(llm._generator_start),
    )
    return work


class TestRequestWork:
    def test_worked_trace_hashes_and_escapes_each_piece_once(self, monkeypatch):
        # The worked trace with 2Wiki shots makes 3 decomposition requests,
        # 2 relevance Scores of 10, 1 stop pair and 1 answer request. Each
        # instance escapes its 10 passage tails once; each Score its head
        # and continuation, and the stop pair its 2 tails; each Generator
        # request its tail and its stop sequence. The decomposition header
        # and the answer instruction and shots are escaped and hashed once
        # per run, by the first instance. Escaping and hashing every
        # prompt whole would take 38 escapes of 8,996 characters and
        # 10,123 bytes hashed per instance.
        work = count_request_work(monkeypatch)
        cfg = PipelineConfig.for_dataset(Dataset.TWO_WIKI, Variant.STOP)
        shots = load_shots(Dataset.TWO_WIKI)
        per_instance = []
        for _ in range(2):
            before = work.copy()
            plan_requests(trace_instance(), cfg, trace_plan(), shots)
            per_instance.append(work - before)
        first, warm = per_instance
        assert warm == {"escaped": 10 + 3 * 2 + 2 + 4 * 2, "chars": 2944, "hashed": 4817}
        assert first - warm == {"escaped": 2, "chars": 2408, "hashed": 2520}


class TestRelevanceRequests:
    """A level's relevance requests are built from one rendered and hashed
    prefix, and equal the requests of each whole prompt."""

    @pytest.mark.parametrize("score_sign", [MIN_NLL, MAX_NLL])
    @pytest.mark.parametrize("dedupe_pool", [False, True], ids=["full-pool", "dedupe-pool"])
    def test_each_level_equals_the_whole_prompt_requests(self, dedupe_pool, score_sign):
        inst = mixed_title_instance()
        cfg = PipelineConfig(
            variant=Variant.MAX, max_levels=3, dedupe_pool=dedupe_pool, score_sign=score_sign
        )
        plan = ScriptedPlan(["s1?", "s2?", "s3?"], LEVEL_SCORES, "a")
        (trace, _), log = plan_requests(inst, cfg, plan)
        relevance = [request for request, _ in log if request.purpose == "relevance"]
        assert [r.level for r in relevance] == [1, 2, 3]
        assert [len(r.requests) for r in relevance] == ([5, 4, 3] if dedupe_pool else [5, 5, 5])
        for request, level in zip(relevance, trace.levels):
            selected = trace.selected_sequence[: request.level - 1]
            prefix = [inst.passage_by_index(i) for i in selected]
            expected = tuple(
                ScorerRequest(whole_scoring_prompt(prefix + [p]), " " + level.sub_question.text)
                for p in request.passages
            )
            assert request.requests == expected
            assert [r.fingerprint for r in request.requests] == [r.fingerprint for r in expected]
        assert len(set(trace.selected_sequence)) == 3

    def test_a_levels_prefix_is_hashed_once(self, monkeypatch):
        work = count_request_work(monkeypatch)
        inst = mixed_title_instance(body_chars=2000)
        cfg = PipelineConfig(variant=Variant.MAX, max_levels=3)
        plan = ScriptedPlan(["s1?", "s2?", "s3?"], LEVEL_SCORES, "a")
        counts = []

        def reply(request):
            counts.append((request, work["hashed"]))
            return plan.reply(request)

        trace, _ = drive(greedy_loop(inst, cfg, (), "scripted"), reply)
        (i,) = [i for i, (r, _) in enumerate(counts) if r.purpose == "relevance" and r.level == 3]
        (request, after), (_, before) = counts[i], counts[i - 1]
        prefix = [inst.passage_by_index(j) for j in trace.selected_sequence[:2]]
        head = f"{SCORING_INSTRUCTION}\nContext: {concat_passages(prefix)} "
        tails = [f"{concat_passages([p])}\nQuestion:" for p in request.passages]
        assert [r.prompt for r in request.requests] == [head + tail for tail in tails]
        n = len(tails)
        assert n >= 3 and len(head) > 4000
        assert after - before < 2 * len(head) + sum(map(len, tails)) + n * 64


# What each function the loops call would have to reject, were its only
# caller able to pass it: a blank or passage-less history line, a stop
# pair without passages or earlier sub-questions, scoring tails of no
# candidate, a shuffle of fewer than two passages (one would loop
# forever), BM25 over no passage, and a baseline in the greedy loop.
CALLER_GUARANTEES = {
    "render_decomposition_prompt": lambda question, history: all(
        subq.strip() and isinstance(passage, Passage) for subq, passage in history
    ),
    "render_stop_prompt": lambda passages, asked, subquestion: bool(passages and asked),
    "render_scoring_tails": lambda candidates: bool(candidates),
    "shuffle_sequence": lambda sequence, seed: len(sequence) >= 2,
    "bm25_rank": lambda question, passages, k1, b: bool(passages),
    "greedy_loop": lambda inst, cfg, *rest: cfg.variant in GENSCO_VARIANTS,
}
# Repeats that differ only in case and spacing, blank and multi-line
# completions, and FIN alone and inside a line.
SUBQUESTION_LINES = [
    "Who?", "Where?", "who?", " WHO?  ", "What year?", "Where?\nWho?", "", "   ", "\nWho?",
    FIN_KEYWORD, f"Who? {FIN_KEYWORD}",
]


@st.composite
def drawn_runs(draw):
    """An instance of 1-6 passages, a config of any variant and a plan for it."""
    indices = draw(st.lists(st.integers(0, 20), min_size=1, max_size=6, unique=True))
    passages = tuple(
        Passage(i, draw(st.sampled_from(["", f"Title {i}"])), f"Body {i}.") for i in indices
    )
    inst = MultiHopInstance("drawn", "Where was it?", "here", passages)
    variant = draw(st.sampled_from(list(Variant)))
    max_levels = draw(st.integers(1, 7))
    cfg = PipelineConfig(
        variant=variant,
        max_levels=max_levels,
        shots=draw(st.integers(0, 2)),
        dedupe_pool=draw(st.booleans()),
        score_sign=draw(st.sampled_from([MIN_NLL, MAX_NLL])),
        shuffle=draw(st.booleans()),
        shuffle_seed=draw(st.integers(0, 2**32)),
        top_k=draw(st.integers(1, 7)),
    )
    scores = st.sampled_from([0.1, 0.5, 0.5, 2.0])  # ties too
    plan = ScriptedPlan(
        subquestions=draw(st.lists(
            st.sampled_from(SUBQUESTION_LINES), min_size=max_levels, max_size=max_levels
        )),
        level_scores=[
            {i: draw(scores) for i in indices} for _ in range(max_levels)
        ],
        answer="a",
        # Equal, increasing and decreasing pairs.
        stop_nlls={
            level: draw(st.sampled_from([(1.0, 1.0), (1.0, 2.0), (2.0, 1.0)]))
            for level in range(2, max_levels + 1)
        },
    )
    ranking = draw(st.permutations(indices)) if variant is Variant.PRECOMPUTED else None
    return inst, cfg, plan, ranking


class TestCallerGuarantees:
    """The functions the loops call trust their inputs; these draws show
    that the loops, their only callers, never pass one those functions
    could not handle."""

    def test_no_call_gets_an_input_its_only_caller_rules_out(self):
        calls = Counter()

        def guarded(name, holds):
            real = getattr(pipeline, name)

            def wrapped(*args):
                assert holds(*args), f"{name}{args!r}"
                calls[name] += 1
                return real(*args)

            return mock.patch.object(pipeline, name, wrapped)

        shot_bank = load_shots(Dataset.SYNTHETIC)

        # The worked trace reaches every renderer of the stop variant, and
        # a shuffled BM25 run reaches the ranking and the shuffle.
        @settings(max_examples=300, deadline=None)
        @given(drawn_runs())
        @example((trace_instance(), PipelineConfig(), trace_plan(), None))
        @example((
            trace_instance(),
            PipelineConfig(variant=Variant.BM25, shuffle=True),
            ScriptedPlan([], [], "a"),
            None,
        ))
        def check(run):
            inst, cfg, plan, ranking = run
            with ExitStack() as stack:
                for name, holds in CALLER_GUARANTEES.items():
                    stack.enter_context(guarded(name, holds))
                _, log = plan_requests(inst, cfg, plan, shot_bank, ranking)
            for request, _ in log:
                if isinstance(request, Generate):
                    assert request.request.prompt
                else:
                    assert all(r.prompt and r.continuation for r in request.requests)

        check()
        assert set(calls) == set(CALLER_GUARANTEES)
