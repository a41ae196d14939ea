from gensco.decomposition import normalize_subquestion, parse_subquestion
from gensco.models import Dataset, StopReason, SubQuestion, Variant
from gensco.pipeline import PipelineConfig
from gensco.prompts import FIN_KEYWORD, render_decomposition_prompt

from helpers import (
    TRACE_SCORES_LEVEL_1,
    TRACE_SUBQ_1,
    TRACE_SUBQ_2,
    ScriptedPlan,
    plan_requests,
    trace_instance,
    trace_plan,
)


def decomposition_requests(plan, inst=None):
    inst = inst or trace_instance()
    cfg = PipelineConfig.for_dataset(Dataset.TWO_WIKI, Variant.MAX)
    (trace, _), log = plan_requests(inst, cfg, plan)
    return trace, [r for r, _ in log if r.purpose == "decomposition"]


class TestNextSubquestion:
    def test_first_level_from_worked_example(self):
        inst = trace_instance()
        _, requests = decomposition_requests(trace_plan(), inst)
        assert requests[0].level == 1
        assert requests[0].request.prompt == render_decomposition_prompt(inst.question, []).text
        assert requests[0].request.max_output_tokens == 96
        assert requests[0].request.stop_sequences == ("\n",)
        assert parse_subquestion(TRACE_SUBQ_1, 1) == SubQuestion(1, TRACE_SUBQ_1, False)

    def test_second_level_conditions_on_history(self):
        inst = trace_instance()
        _, requests = decomposition_requests(trace_plan(), inst)
        p8 = inst.passage_by_index(8)
        assert requests[1].level == 2
        assert requests[1].request.prompt == (
            render_decomposition_prompt(inst.question, [(TRACE_SUBQ_1, p8)]).text
        )
        assert parse_subquestion(TRACE_SUBQ_2, 2).text == TRACE_SUBQ_2

    def test_fin_keyword_is_terminal(self):
        subq = parse_subquestion(FIN_KEYWORD, 1)
        assert subq.terminal
        assert subq.text == FIN_KEYWORD

    def test_blank_completion_is_terminal(self):
        subq = parse_subquestion("   ", 1)
        assert subq.terminal and subq.text == ""

    def test_completion_cut_at_first_line_break(self):
        assert parse_subquestion(" Sub one?\nSub two?", 1) == SubQuestion(1, "Sub one?")

    def test_level_always_history_length_plus_one(self):
        plan = ScriptedPlan(
            subquestions=["Sub 1?", "Sub 2?", "Sub 3?", FIN_KEYWORD],
            level_scores=[TRACE_SCORES_LEVEL_1] * 3,
            answer="x",
        )
        trace, requests = decomposition_requests(plan)
        assert [r.level for r in requests] == [1, 2, 3, 4]
        assert [lv.sub_question.level for lv in trace.levels] == [1, 2, 3]


class TestIsRepeat:
    """A sub-question repeats an earlier one when their normalized texts match."""

    def test_case_fold_repeat(self):
        assert normalize_subquestion("who directed x?") == normalize_subquestion(
            "Who directed X?"
        )

    def test_distinct_text_not_repeat(self):
        assert normalize_subquestion("who wrote x?") != normalize_subquestion(
            "Who directed X?"
        )

    def test_whitespace_collapsed(self):
        assert normalize_subquestion("who directed x?") == normalize_subquestion(
            "  Who  directed X?  "
        )

    def test_terminal_rejected(self):
        # A terminal completion ends the decomposition before any repeat check.
        plan = ScriptedPlan(
            subquestions=[TRACE_SUBQ_1, f"{TRACE_SUBQ_1} {FIN_KEYWORD}"],
            level_scores=[TRACE_SCORES_LEVEL_1],
            answer="x",
        )
        trace, _ = decomposition_requests(plan)
        assert trace.stop_reason is StopReason.FIN_KEYWORD


def test_normalize_definition():
    assert normalize_subquestion("  Who  Directed X?  ") == "who directed x?"
