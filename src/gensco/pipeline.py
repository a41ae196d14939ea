"""Greedy selection loop: decompose, stop-check, score, then one final
answer-generation call per instance."""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional, Sequence

from .baselines import shuffle_sequence
from .decomposition import DecompositionState, is_repeat, next_subquestion
from .llm import GeneratorRequest, LlmGateway, ScorerRequest
from .models import (
    AnswerRecord,
    Dataset,
    GeneratorParams,
    MultiHopInstance,
    Passage,
    SelectionTrace,
    StopReason,
    SubQuestion,
    TraceLevel,
    Variant,
    validate_instance,
)
from .prompts import ShotExample, render_answer_prompt, render_stop_prompt
from .scorer import MIN_NLL, map_in_order, score_level

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
    scorer_concurrency: int = 1
    max_answer_tokens: int = 64
    max_subquestion_tokens: int = 96

    @classmethod
    def for_dataset(cls, dataset: Dataset, variant: Variant, **overrides) -> "PipelineConfig":
        fields = {
            "variant": variant,
            "max_levels": DEFAULT_MAX_LEVELS[dataset],
            "shots": DEFAULT_SHOTS[dataset],
        }
        fields.update(overrides)
        return cls(**fields)


def _stop_side_nll(
    gateway: LlmGateway,
    question: str,
    passages: Sequence[Passage],
    subquestions: Sequence[str],
) -> float:
    prompt = render_stop_prompt(passages, subquestions)
    resp = gateway.score_continuation(
        ScorerRequest(prompt=prompt.text, continuation=" " + question),
        purpose="stop",
    )
    return resp.mean_nll


def should_stop(
    state: DecompositionState,
    selected: Sequence[Passage],
    candidate: SubQuestion,
    cfg: PipelineConfig,
    gateway: LlmGateway,
) -> Optional[StopReason]:
    """Pre-selection stopping signals for the freshly generated sub-question.

    The likelihood test compares the scorer's mean NLL of the original
    question given the decomposition with and without the candidate,
    conditioning both sides on the passages selected so far; it only
    applies from level 2 (both sides defined) and stops on a strict
    increase. Both sides are always scored, concurrently when
    ``cfg.scorer_concurrency`` is 2 or more.
    """
    if candidate.terminal:
        return StopReason.FIN_KEYWORD
    if cfg.variant is not Variant.NO_QD and is_repeat(state, candidate):
        return StopReason.REPEATED_SUBQUESTION
    if cfg.variant is Variant.STOP and candidate.level >= 2 and selected:
        prior = [sq.text for sq, _ in state.history]
        without, with_candidate = map_in_order(
            lambda subquestions: _stop_side_nll(
                gateway, state.question, selected, subquestions
            ),
            [prior, prior + [candidate.text]],
            cfg.scorer_concurrency,
        )
        if with_candidate > without:
            return StopReason.LIKELIHOOD_STOP
    return None


def _shuffle_seed_for(instance_id: str, seed: int) -> int:
    return seed ^ zlib.crc32(instance_id.encode("utf-8"))


def run_instance(
    inst: MultiHopInstance,
    cfg: PipelineConfig,
    gateway: LlmGateway,
    shot_bank: Sequence[ShotExample] = (),
) -> tuple[SelectionTrace, AnswerRecord]:
    """Run the greedy loop on one instance and generate its answer.

    Per level: obtain the sub-question (the original question itself for
    the no-decomposition variant), evaluate the stopping signals, then
    score all candidates and extend the greedy prefix. The answer prompt
    is always issued, even when the loop stopped with an empty selection.
    """
    validate_instance(inst)
    state = DecompositionState(question=inst.question)
    levels: list[TraceLevel] = []
    selected: list[Passage] = []
    stop_reason: Optional[StopReason] = None

    for level in range(1, cfg.max_levels + 1):
        if cfg.variant is Variant.NO_QD:
            candidate_q = SubQuestion(level=level, text=inst.question, terminal=False)
        else:
            candidate_q = next_subquestion(
                state, gateway, cfg.temperature, cfg.max_subquestion_tokens
            )
        stop_reason = should_stop(state, selected, candidate_q, cfg, gateway)
        if stop_reason is not None:
            break

        pool = list(inst.passages)
        if cfg.dedupe_pool:
            chosen_indices = {p.index for p in selected}
            pool = [p for p in pool if p.index not in chosen_indices]
            if not pool:
                stop_reason = StopReason.MAX_LEVELS
                break
        selection = score_level(
            gateway,
            selected,
            pool,
            candidate_q.text,
            level,
            concurrency=cfg.scorer_concurrency,
            score_sign=cfg.score_sign,
        )
        if cfg.variant is Variant.NO_QD and any(
            p.index == selection.chosen.passage_index for p in selected
        ):
            # Re-selection signals exhaustion; the repeated passage is not
            # appended to the selection.
            stop_reason = StopReason.REPEATED_PASSAGE
            break

        chosen_passage = inst.passage_by_index(selection.chosen.passage_index)
        levels.append(
            TraceLevel(
                sub_question=candidate_q,
                candidates=selection.candidates,
                chosen_index=selection.chosen.passage_index,
            )
        )
        selected.append(chosen_passage)
        state.record(candidate_q, chosen_passage)
    else:
        stop_reason = StopReason.MAX_LEVELS

    selected_sequence = tuple(p.index for p in selected)
    trace = SelectionTrace(
        instance_id=inst.id,
        variant=cfg.variant,
        levels=tuple(levels),
        stop_reason=stop_reason,
        selected_sequence=selected_sequence,
    )

    permutation: Optional[tuple[int, ...]] = None
    context_order = selected_sequence
    if cfg.shuffle and len(selected_sequence) >= 2:
        context_order, permutation = shuffle_sequence(
            selected_sequence, _shuffle_seed_for(inst.id, cfg.shuffle_seed)
        )
    context_passages = [inst.passage_by_index(i) for i in context_order]

    prompt = render_answer_prompt(
        inst.question, context_passages, tuple(shot_bank)[: cfg.shots]
    )
    answer = gateway.generate(
        GeneratorRequest(
            prompt=prompt.text,
            temperature=cfg.temperature,
            max_output_tokens=cfg.max_answer_tokens,
            stop_sequences=("\n",),
        ),
        purpose="answer",
    ).strip()

    record = AnswerRecord(
        instance_id=inst.id,
        predicted_answer=answer,
        context_order=context_order,
        generator_params=GeneratorParams(
            model_id=gateway.generator.backend_id,
            temperature=cfg.temperature,
            shots=cfg.shots,
        ),
        permutation=permutation,
    )
    return trace, record
