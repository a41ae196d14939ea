import itertools

import pytest
from hypothesis import given, strategies as st

from gensco.models import Dataset, Passage
from gensco.prompts import (
    FIN_KEYWORD,
    concat_passages,
    load_shots,
    render_answer_prompt,
    render_decomposition_prompt,
    render_scoring_head,
    render_scoring_tails,
    render_stop_prompt,
)

from helpers import trace_instance

P1 = Passage(1, "", "First passage body.")
P2 = Passage(2, "Some Title", "Second passage body.")
P3 = Passage(3, "", "Third passage body.")


class TestConcat:
    def test_title_prefix(self):
        assert concat_passages([P1, P2]) == (
            "First passage body. Some Title: Second passage body."
        )

    def test_single(self):
        assert concat_passages([P1]) == "First passage body."


class TestAnswerPrompt:
    def test_context_holds_selection_order(self):
        inst = trace_instance()
        p8 = inst.passage_by_index(8)
        p1 = inst.passage_by_index(1)
        shots = load_shots(Dataset.TWO_WIKI)
        prompt = render_answer_prompt(inst.question, [p8, p1], shots)
        context_line = [
            line for line in prompt.text.splitlines() if line.startswith("Context:")
        ][-1]
        assert context_line.index(p8.body) < context_line.index(p1.body)

    def test_zero_shots_is_bare_skeleton(self):
        prompt = render_answer_prompt("Q?", [P1], ())
        assert prompt.text == (
            "Answer the question given the context.\n"
            "\n"
            "Question: Q?\n"
            "Context: First passage body.\n"
            "Answer:"
        )

    def test_shot_bank_reproduces_example_block(self):
        shots = load_shots(Dataset.TWO_WIKI)
        prompt = render_answer_prompt("Q?", [P1], shots)
        assert "Question: Which film was released earlier, Kistimaat or I'M Taraneh, 15?" in prompt.text
        assert "Answer: I'M Taraneh, 15" in prompt.text
        assert prompt.text.endswith("Answer:")

    def test_byte_stability(self):
        shots = load_shots(Dataset.SYNTHETIC)
        a = render_answer_prompt("Q?", [P1, P2], shots)
        b = render_answer_prompt("Q?", [P1, P2], shots)
        assert a.text == b.text

    def test_order_fidelity(self):
        texts = {
            render_answer_prompt("Q?", list(perm), ()).text
            for perm in itertools.permutations([P1, P2, P3])
        }
        assert len(texts) == 6
        prefix = "Answer the question given the context.\n\nQuestion: Q?\nContext: "
        assert all(t.startswith(prefix) for t in texts)


class TestDecompositionPrompt:
    def test_empty_history_ends_at_first_subquestion(self):
        prompt = render_decomposition_prompt("Q?", [])
        assert prompt.text.endswith("Subquestion 1:")
        assert FIN_KEYWORD in prompt.text
        assert 'Who is the author of the book "The Good Earth"?' in prompt.text

    def test_one_pair_ends_at_second(self):
        prompt = render_decomposition_prompt("Q?", [("Sub one?", P1)])
        tail = prompt.text.split("Question: Q?\n", 1)[1]
        assert "Subquestion 1: Sub one?" in tail
        assert "Subcontext 1: First passage body." in tail
        assert prompt.text.endswith("Subquestion 2:")


class TestStopPrompt:
    def test_three_sections(self):
        prompt = render_stop_prompt([P1], ["Sub one?"], "Sub two?")
        lines = prompt.text.splitlines()
        assert lines[1] == "Context: First passage body."
        assert lines[2] == "Decomposition: Sub one? Sub two?"
        assert lines[3] == "Question:"

    def test_context_restricted_to_selected_prefix(self):
        # The criterion's i-side conditions on passages for levels 1..i-1
        # even though the decomposition runs to level i.
        prompt = render_stop_prompt([P1, P2], ["s1?", "s2?"], "s3?")
        assert "Third passage body." not in prompt.text
        assert "Decomposition: s1? s2? s3?" in prompt.text

    @pytest.mark.parametrize("asked", [[], ["s1?"], ["s1?", "s2?"]])
    def test_pair_is_without_then_with_the_new_subquestion(self, asked):
        prompt = render_stop_prompt([P1, P2], asked, "new?")
        context = f"Context: {concat_passages([P1, P2])}"
        instruction = prompt.head.split("\n", 1)[0]
        assert [prompt.head + tail for tail in prompt.tails] == [
            f"{instruction}\n{context}\nDecomposition: {' '.join(subqs)}\nQuestion:"
            for subqs in (asked, asked + ["new?"])
        ]


class TestScoringPrompt:
    def test_single_candidate_context(self):
        inst = trace_instance()
        p8 = inst.passage_by_index(8)
        (tail,) = render_scoring_tails([p8])
        assert render_scoring_head([]) + tail == (
            "Generate a question based on the context.\n"
            f"Context: {p8.body}\n"
            "Question:"
        )

    def test_prefix_plus_candidate_order(self):
        inst = trace_instance()
        p8 = inst.passage_by_index(8)
        p1 = inst.passage_by_index(1)
        (tail,) = render_scoring_tails([p1])
        text = render_scoring_head([p8]) + tail
        assert text.index(p8.body) < text.index(p1.body)

    @pytest.mark.parametrize("prefix", [[], [P1], [P2, P1], [Passage(4, "", "")]],
                             ids=["empty", "untitled", "titled-then-untitled", "blank"])
    def test_head_plus_tail_is_the_whole_prompt(self, prefix):
        candidates = [P2, P3, Passage(5, "", ""), Passage(6, "T", "")]
        head, tails = render_scoring_head(prefix), render_scoring_tails(candidates)
        instruction = "Generate a question based on the context."
        assert [head + tail for tail in tails] == [
            f"{instruction}\nContext: {concat_passages(prefix + [p])}\nQuestion:"
            for p in candidates
        ]


@given(st.text(min_size=1, max_size=40), st.text(min_size=1, max_size=40))
def test_cross_process_stable_digest(question, body):
    a = render_scoring_tails([Passage(0, "", body)])
    b = render_scoring_tails([Passage(0, "", body)])
    assert a == b
