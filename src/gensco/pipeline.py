"""Greedy selection loop: decompose, stop-check, score, then one final
answer-generation call per instance (the baselines make only that call).

The loops are generators that build every prompt themselves and yield
their LLM requests; the caller answers them (``run_instance`` through the
gateway), so the loops' rules exist once whatever serves the calls.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional, Sequence, Union

from .baselines import bm25_rank, shuffle_sequence
from .decomposition import normalize_subquestion, parse_subquestion
from .llm import GeneratorRequest, LlmGateway, ScorerRequest, scorer_tails
from .models import (
    AnswerRecord,
    Dataset,
    GeneratorParams,
    MultiHopInstance,
    Passage,
    ScoredCandidate,
    SelectionTrace,
    StopReason,
    SubQuestion,
    TraceLevel,
    Variant,
)
from .prompts import (
    ShotExample,
    render_answer_prompt,
    render_decomposition_prompt,
    render_scoring_head,
    render_scoring_tails,
    render_stop_prompt,
)
from .scorer import MIN_NLL, select_best

# Search depth caps per dataset: bounded by the maximum supporting-passage
# count (or provided context size) of each benchmark.
DEFAULT_MAX_LEVELS = {
    Dataset.TWO_WIKI: 5,
    Dataset.ADV_HOTPOT: 2,
    Dataset.MUSIQUE: 4,
    Dataset.SYNTHETIC: 5,
}

DEFAULT_SHOTS = {
    Dataset.TWO_WIKI: 2,
    Dataset.ADV_HOTPOT: 4,
    Dataset.MUSIQUE: 3,
    Dataset.SYNTHETIC: 2,
}

# Token cap of one decomposition completion: one sub-question line.
MAX_SUBQUESTION_TOKENS = 96

# The variants greedy_loop runs; the others are retrieval baselines.
GENSCO_VARIANTS = frozenset({Variant.MAX, Variant.STOP, Variant.NO_QD})


@dataclass(frozen=True)
class PipelineConfig:
    variant: Variant = Variant.STOP
    max_levels: int = 5
    shots: int = 2
    temperature: float = 0.0
    dedupe_pool: bool = False
    score_sign: str = MIN_NLL
    shuffle: bool = False
    shuffle_seed: int = 0
    max_answer_tokens: int = 64
    top_k: int = 5
    bm25_k1: float = 1.2
    bm25_b: float = 0.75

    @classmethod
    def for_dataset(cls, dataset: Dataset, variant: Variant, **overrides) -> "PipelineConfig":
        fields = {
            "variant": variant,
            "max_levels": DEFAULT_MAX_LEVELS[dataset],
            "shots": DEFAULT_SHOTS[dataset],
        }
        fields.update(overrides)
        return cls(**fields)


@dataclass(frozen=True)
class Generate:
    """A Generator call; the loop receives the completion."""

    purpose: str  # "decomposition" | "answer"
    level: int  # 0 for the answer call
    request: GeneratorRequest


@dataclass(frozen=True)
class Score:
    """Scorer calls; the loop receives their mean NLLs in request order.

    ``passages`` holds the candidate of each relevance request (empty for
    the stop pair, whose requests are without and with the candidate).
    """

    purpose: str  # "relevance" | "stop"
    level: int
    requests: tuple[ScorerRequest, ...]
    passages: tuple[Passage, ...] = ()


Request = Union[Generate, Score]
Loop = Generator[Request, Any, Any]


def answer_step(
    inst: MultiHopInstance,
    selected_sequence: Sequence[int],
    cfg: PipelineConfig,
    shot_bank: Sequence[ShotExample],
    model_id: str,
) -> Loop:
    """Order the context (shuffled for the ablation), then make the one
    answer call; returns the AnswerRecord. Issued even for an empty
    selection."""
    context_order, permutation = tuple(selected_sequence), None
    if cfg.shuffle and len(context_order) >= 2:
        seed = cfg.shuffle_seed ^ zlib.crc32(inst.id.encode("utf-8"))
        context_order, permutation = shuffle_sequence(context_order, seed)
    prompt = render_answer_prompt(
        inst.question,
        [inst.passage_by_index(i) for i in context_order],
        tuple(shot_bank)[: cfg.shots],
    )
    answer = yield Generate(
        "answer",
        0,
        GeneratorRequest.sharing_head(
            prompt.head, prompt.tails[0], cfg.temperature, cfg.max_answer_tokens, ("\n",)
        ),
    )
    return AnswerRecord(
        instance_id=inst.id,
        predicted_answer=answer.strip(),
        context_order=context_order,
        generator_params=GeneratorParams(
            model_id=model_id, temperature=cfg.temperature, shots=cfg.shots
        ),
        permutation=permutation,
    )


def greedy_loop(
    inst: MultiHopInstance,
    cfg: PipelineConfig,
    shot_bank: Sequence[ShotExample],
    model_id: str,
) -> Loop:
    """The greedy loop on one instance; returns (trace, answer record).

    Per level: end before any call when ``dedupe_pool`` has left no
    candidate; obtain the sub-question (the original question itself for
    the no-decomposition variant) and check the stopping signals, then
    score every candidate appended to the greedy prefix and keep the best
    (``select_best``). The likelihood test (stop variant, from level 2)
    scores the original question given the decomposition without and
    with the candidate, both conditioned on the passages selected so
    far, and stops on a strict increase.
    """
    levels: list[TraceLevel] = []
    selected: list[Passage] = []
    seen: set[str] = set()
    stop_reason = StopReason.MAX_LEVELS
    passages = sorted(inst.passages, key=lambda p: p.index)
    # Each passage's scoring tail, rendered and escaped once for every level.
    tails = dict(zip((p.index for p in passages), scorer_tails(render_scoring_tails(passages))))

    for level in range(1, cfg.max_levels + 1):
        chosen_indices = {p.index for p in selected}
        pool = [p for p in passages if not (cfg.dedupe_pool and p.index in chosen_indices)]
        if not pool:  # dedupe_pool has taken every passage
            stop_reason = StopReason.POOL_EXHAUSTED
            break
        asked = [lv.sub_question.text for lv in levels]
        if cfg.variant is Variant.NO_QD:
            subq = SubQuestion(level=level, text=inst.question)
        else:
            prompt = render_decomposition_prompt(inst.question, list(zip(asked, selected)))
            raw = yield Generate(
                "decomposition",
                level,
                GeneratorRequest.sharing_head(
                    prompt.head, prompt.tails[0], cfg.temperature, MAX_SUBQUESTION_TOKENS, ("\n",)
                ),
            )
            subq = parse_subquestion(raw, level)
            if subq.terminal:
                stop_reason = StopReason.FIN_KEYWORD
                break
            if normalize_subquestion(subq.text) in seen:
                stop_reason = StopReason.REPEATED_SUBQUESTION
                break
        if cfg.variant is Variant.STOP and selected:
            pair = render_stop_prompt(selected, asked, subq.text)
            without, with_candidate = yield Score(
                "stop",
                level,
                ScorerRequest.sharing_head(
                    pair.head, scorer_tails(pair.tails), " " + inst.question
                ),
            )
            if with_candidate > without:
                stop_reason = StopReason.LIKELIHOOD_STOP
                break

        scores = yield Score(
            "relevance",
            level,
            ScorerRequest.sharing_head(
                render_scoring_head(selected), [tails[p.index] for p in pool], " " + subq.text
            ),
            tuple(pool),
        )
        candidates = tuple(
            ScoredCandidate.from_fields(level=level, passage_index=p.index, score=score)
            for p, score in zip(pool, scores)
        )
        chosen = select_best(candidates, cfg.score_sign).passage_index
        if cfg.variant is Variant.NO_QD and chosen in chosen_indices:
            # Re-selection signals exhaustion; the repeated passage is not
            # appended to the selection.
            stop_reason = StopReason.REPEATED_PASSAGE
            break
        levels.append(TraceLevel(sub_question=subq, candidates=candidates, chosen_index=chosen))
        selected.append(inst.passage_by_index(chosen))
        seen.add(normalize_subquestion(subq.text))

    trace = SelectionTrace(
        instance_id=inst.id,
        variant=cfg.variant,
        levels=tuple(levels),
        stop_reason=stop_reason,
        selected_sequence=tuple(p.index for p in selected),
    )
    record = yield from answer_step(inst, trace.selected_sequence, cfg, shot_bank, model_id)
    return trace, record


def ranked_loop(
    inst: MultiHopInstance,
    cfg: PipelineConfig,
    shot_bank: Sequence[ShotExample],
    model_id: str,
    ranking: Optional[Sequence[int]],
) -> Loop:
    """A baseline on one instance: the first ``top_k`` passages by BM25 or of
    the precomputed ``ranking``, then the answer call; returns (trace, record)."""
    if cfg.variant is Variant.BM25:
        ranked = bm25_rank(inst.question, inst.passages, cfg.bm25_k1, cfg.bm25_b)
        ranking = [p.index for p in ranked]
    selected = tuple(ranking[: cfg.top_k])
    record = yield from answer_step(inst, selected, cfg, shot_bank, model_id)
    return SelectionTrace(inst.id, cfg.variant, (), None, selected), record


def instance_loop(
    inst: MultiHopInstance,
    cfg: PipelineConfig,
    shot_bank: Sequence[ShotExample],
    model_id: str,
    ranking: Optional[Sequence[int]] = None,
) -> Loop:
    """``greedy_loop`` for a GenSco variant, ``ranked_loop`` for a baseline;
    ValueError for ``precomputed`` without a ranking."""
    if cfg.variant in GENSCO_VARIANTS:
        return greedy_loop(inst, cfg, shot_bank, model_id)
    if cfg.variant is Variant.PRECOMPUTED and ranking is None:
        raise ValueError(f"instance {inst.id!r}: variant {cfg.variant.value!r} needs a ranking")
    return ranked_loop(inst, cfg, shot_bank, model_id, ranking)


def drive(loop: Loop, answer: Callable[[Request], Any]) -> Any:
    """Run ``loop`` to its return value, sending back ``answer(request)``
    for each request it yields."""
    reply = None
    while True:
        try:
            request = loop.send(reply)
        except StopIteration as done:
            return done.value
        reply = answer(request)


def serve(gateway: LlmGateway, request: Request, fan_out: Callable = map) -> Any:
    """Answer one request through the gateway: a Generate's completion, or
    a Score's mean NLLs in request order, its misses sent as ``fan_out``
    maps them."""
    if isinstance(request, Generate):
        return gateway.generate(request.request, purpose=request.purpose)
    return gateway.score_many(request.requests, request.purpose, fan_out)


def run_instance(
    inst: MultiHopInstance,
    cfg: PipelineConfig,
    gateway: LlmGateway,
    shot_bank: Sequence[ShotExample] = (),
    ranking: Optional[Sequence[int]] = None,
    fan_out: Callable = map,
) -> tuple[SelectionTrace, AnswerRecord]:
    """Run the loop of ``cfg.variant`` on one instance through the gateway."""
    loop = instance_loop(inst, cfg, shot_bank, gateway.generator.backend_id, ranking)
    return drive(loop, lambda request: serve(gateway, request, fan_out))
