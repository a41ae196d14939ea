"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line for its criterion (visible with
``pytest tests/test_acceptance.py -s``). The suite is scripted end to
end: no live model is contacted.
"""

import functools
import json
import math
import random
import time

from gensco import cli, metrics
from gensco.baselines import bm25_scores, shuffle_sequence
from gensco.datasets import DatasetConfig, load
from gensco.llm import ScriptedBackend
from gensco.models import Dataset, Passage, StopReason, Variant
from gensco.pipeline import PipelineConfig, run_instance
from gensco.prompts import load_shots, render_answer_prompt

from helpers import (
    TRACE_ANSWER,
    TRACE_BODIES,
    build_instance_script,
    build_synthetic_script,
    scripted_gateway,
    trace_instance,
    trace_plan,
    write_synthetic_dataset,
)
from test_baselines import FIXTURE_DOCS, oracle_bm25
from test_metrics import ORACLE_PAIRS, oracle_answer_metrics


def criterion(name):
    """Report the named criterion as PASS or FAIL when the test finishes."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL: {name}")
                raise
            print(f"PASS: {name}")

        return wrapper

    return decorate


def scripted_trace_run(variant=Variant.STOP, plan=None, **overrides):
    inst = trace_instance()
    cfg = PipelineConfig.for_dataset(Dataset.TWO_WIKI, variant, **overrides)
    shots = load_shots(Dataset.TWO_WIKI)
    backend = ScriptedBackend()
    build_instance_script(backend, inst, cfg, plan or trace_plan(), shots)
    return inst, cfg, shots, run_instance(inst, cfg, scripted_gateway(backend), shots)


@criterion("worked trace replication: stop variant selects [8, 1] in under 1 s")
def test_worked_trace_replication():
    started = time.perf_counter()
    inst, cfg, shots, (trace, record) = scripted_trace_run()
    elapsed = time.perf_counter() - started
    assert trace.selected_sequence == (8, 1)
    assert record.predicted_answer == TRACE_ANSWER
    # The answer prompt's context holds the selected passages in order.
    prompt = render_answer_prompt(
        inst.question,
        [inst.passage_by_index(i) for i in record.context_order],
        tuple(shots)[: cfg.shots],
    ).text
    assert prompt.rindex(TRACE_BODIES[8]) < prompt.rindex(TRACE_BODIES[1])
    assert elapsed < 1.0


@criterion("stopping criterion: strict NLL increase stops, ties and drops continue")
def test_stopping_criterion_suite():
    def check(without, with_candidate):
        plan = trace_plan(stop_nlls={2: (without, with_candidate)})
        _, _, _, (trace, _) = scripted_trace_run(plan=plan)
        return trace.stop_reason, trace.selected_sequence

    assert check(1.5, 1.8) == (StopReason.LIKELIHOOD_STOP, (8,))
    assert check(1.5, 1.5) == (StopReason.FIN_KEYWORD, (8, 1))
    assert check(1.8, 1.5) == (StopReason.FIN_KEYWORD, (8, 1))


@criterion("call budget: 1 answer, <= 4 decomposition, 15 relevance calls")
def test_call_budget(tmp_path):
    data_path = tmp_path / "synthetic.json"
    write_synthetic_dataset(data_path, 1, n_passages=5)
    instances = load(DatasetConfig(Dataset.SYNTHETIC, str(data_path)))
    pipe_cfg = PipelineConfig.for_dataset(Dataset.SYNTHETIC, Variant.MAX, max_levels=3)
    script_path = tmp_path / "script.json"
    build_synthetic_script(instances, pipe_cfg).to_file(script_path)
    run_dir = tmp_path / "run"
    code = cli.run_batch(
        {
            "dataset": "synthetic",
            "dataset_path": str(data_path),
            "variant": "gensco-max",
            "max_levels": 3,
            "backend": "scripted",
            "script_file": str(script_path),
        },
        run_dir,
    )
    assert code == 0
    calls = json.loads((run_dir / "manifest.json").read_text())["llm_calls"]
    assert calls["generator_calls"]["answer"] == 1
    assert calls["generator_calls"]["decomposition"] <= 4
    assert calls["scorer_calls"]["relevance"] == 15


@criterion("answer metrics match a brute-force overlap oracle on 25+ pairs")
def test_answer_metric_oracle_suite():
    assert len(ORACLE_PAIRS) >= 25
    for pred, gold in ORACLE_PAIRS:
        got = metrics.answer_metrics(pred, gold)
        em, f1, p, r = oracle_answer_metrics(pred, gold)
        assert got.em == em
        assert math.isclose(got.f1, f1, abs_tol=1e-9)
        assert math.isclose(got.precision, p, abs_tol=1e-9)
        assert math.isclose(got.recall, r, abs_tol=1e-9)
    partial = metrics.answer_metrics("london england", "london")
    assert (partial.em, partial.precision, partial.recall) == (0, 0.5, 1.0)
    assert math.isclose(partial.f1, 2 / 3, abs_tol=1e-9)


@criterion("retrieval metrics match set-arithmetic oracles, empty selection -> P=R=0")
def test_retrieval_metric_oracles():
    rng = random.Random(17)
    for _ in range(200):
        universe = range(rng.randint(1, 12))
        supports = set(rng.sample(universe, rng.randint(1, len(universe))))
        selected = rng.sample(universe, rng.randint(0, len(universe)))
        got = metrics.retrieval_metrics(selected, supports)
        chosen = set(selected)
        hit = len(chosen & supports)
        precision = hit / len(chosen) if chosen else 0.0
        recall = hit / len(supports) if chosen else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        assert got.precision == precision
        assert got.recall == recall
        assert math.isclose(got.f1, f1, abs_tol=1e-12)
        assert got.delta_hops == len(supports) - len(chosen)
    empty = metrics.retrieval_metrics([], {3, 4})
    assert (empty.precision, empty.recall, empty.f1) == (0.0, 0.0, 0.0)


@criterion("k-precision: copied -> 1.0, disjoint -> 0.0, order-invariant x100")
def test_k_precision_properties():
    passages = [
        "thea sharrock was born in london england",
        "the one and only ivan is a fantasy drama film",
        "peter levin is an american director of film",
    ]
    assert metrics.k_precision("born in london england", passages) == 1.0
    assert metrics.k_precision("zzz qqq xyzzy", passages) == 0.0
    prediction = "london fantasy footnote"
    base = metrics.k_precision(prediction, passages)
    rng = random.Random(3)
    for _ in range(100):
        shuffled = list(passages)
        rng.shuffle(shuffled)
        assert metrics.k_precision(prediction, shuffled) == base


@criterion("BM25 matches hand-computed Okapi scores; tf-monotonicity over 1000 trials")
def test_bm25_correctness():
    passages = tuple(Passage(i, "", body) for i, body in enumerate(FIXTURE_DOCS))
    for query in ("quick fox", "dog", "brown honey fish", "the lazy dog sat"):
        expected = oracle_bm25(query, FIXTURE_DOCS)
        for pos in range(len(FIXTURE_DOCS)):
            assert math.isclose(
                bm25_scores(query, passages, 1.2, 0.75)[pos], expected[pos], abs_tol=1e-9
            )
    rng = random.Random(99)
    vocabulary = "abcdefgh"
    for _ in range(1000):
        docs = [
            " ".join(rng.choices(vocabulary, k=rng.randint(1, 12)))
            for _ in range(rng.randint(2, 6))
        ]
        term = rng.choice(vocabulary)
        boosted = list(docs)
        boosted[0] = docs[0] + (" " + term) * rng.randint(1, 5)
        before = bm25_scores(
            term, tuple(Passage(i, "", d) for i, d in enumerate(docs)), 1.2, 0.75
        )[0]
        after = bm25_scores(
            term, tuple(Passage(i, "", d) for i, d in enumerate(boosted)), 1.2, 0.75
        )[0]
        assert after >= before - 1e-12


@criterion("context shuffle: non-identity, recorded, answer prompt differs byte-wise")
def test_order_matters_harness():
    rng = random.Random(7)
    for _ in range(100):
        seq = tuple(rng.sample(range(1000), rng.randint(2, 8)))
        permuted, permutation = shuffle_sequence(seq, rng.randint(0, 1 << 30))
        assert permuted != seq
        assert sorted(permuted) == sorted(seq)
        assert tuple(seq[i] for i in permutation) == permuted

    inst, cfg, shots, (trace, record) = scripted_trace_run(
        shuffle=True, shuffle_seed=11
    )
    assert record.permutation is not None
    assert tuple(trace.selected_sequence[i] for i in record.permutation) == (
        record.context_order
    )
    shot_prefix = tuple(shots)[: cfg.shots]
    shuffled_prompt = render_answer_prompt(
        inst.question,
        [inst.passage_by_index(i) for i in record.context_order],
        shot_prefix,
    ).text
    plain_prompt = render_answer_prompt(
        inst.question,
        [inst.passage_by_index(i) for i in trace.selected_sequence],
        shot_prefix,
    ).text
    assert shuffled_prompt.encode() != plain_prompt.encode()


@criterion("determinism: interrupted-and-resumed 50-instance run is byte-identical")
def test_determinism_and_resumability(tmp_path):
    data_path = tmp_path / "synthetic.json"
    write_synthetic_dataset(data_path, 50)
    instances = load(DatasetConfig(Dataset.SYNTHETIC, str(data_path)))
    pipe_cfg = PipelineConfig.for_dataset(Dataset.SYNTHETIC, Variant.MAX)
    script_path = tmp_path / "script.json"
    build_synthetic_script(instances, pipe_cfg).to_file(script_path)
    cfg = {
        "dataset": "synthetic",
        "dataset_path": str(data_path),
        "variant": "gensco-max",
        "backend": "scripted",
        "script_file": str(script_path),
    }
    resumed = tmp_path / "resumed"
    assert cli.run_batch({**cfg, "limit": 20}, resumed) == 0
    assert len((resumed / "traces.jsonl").read_bytes().splitlines()) == 20
    assert cli.run_batch(cfg, resumed) == 0
    fresh = tmp_path / "fresh"
    assert cli.run_batch(cfg, fresh) == 0
    cli.evaluate_run(resumed)
    cli.evaluate_run(fresh)
    for name in (
        "instances.jsonl",
        "traces.jsonl",
        "answers.jsonl",
        "report.json",
        "report.csv",
    ):
        assert (resumed / name).read_bytes() == (fresh / name).read_bytes(), name


@criterion("pearson matches direct formula on 200 random pairs within 1e-12")
def test_pearson_oracle():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(3, 40)
        xs = [rng.uniform(-10, 10) for _ in range(n)]
        ys = [rng.uniform(-10, 10) + 0.3 * x for x in xs]
        mx, my = sum(xs) / n, sum(ys) / n
        cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        var_x = sum((x - mx) ** 2 for x in xs)
        var_y = sum((y - my) ** 2 for y in ys)
        expected = cov / math.sqrt(var_x * var_y)
        assert abs(metrics.pearson(xs, ys) - expected) < 1e-12
    # Reference outputs observed with live models on the scatter path are
    # r = 0.138 and r = 0.238; they depend on model behavior and are
    # documented here rather than asserted.
