import itertools
import math
import random
import re
import string
from dataclasses import astuple

import pytest
from hypothesis import example, given, settings, strategies as st

from gensco.metrics import (
    AnswerMetrics,
    InstanceEval,
    RetrievalMetrics,
    aggregate,
    answer_metrics,
    evaluate_instance,
    k_precision,
    normalize_answer,
    pearson,
    retrieval_metrics,
)


def oracle_normalize(text):
    stripped = "".join(ch for ch in text.lower() if ch not in string.punctuation)
    words = [w for w in stripped.split() if w not in ("a", "an", "the")]
    return " ".join(words)


def oracle_overlap(pred, gold):
    """Brute-force multiset overlap via explicit pairing, no Counter."""
    pred_tokens = oracle_normalize(pred).split()
    gold_tokens = list(oracle_normalize(gold).split())
    overlap = 0
    for tok in pred_tokens:
        if tok in gold_tokens:
            gold_tokens.remove(tok)
            overlap += 1
    return overlap, len(oracle_normalize(pred).split()), len(oracle_normalize(gold).split())


def oracle_answer_metrics(pred, gold):
    em = int(oracle_normalize(pred) == oracle_normalize(gold))
    overlap, n_pred, n_gold = oracle_overlap(pred, gold)
    if n_pred == 0 or n_gold == 0:
        val = float(n_pred == n_gold)
        return em, val, val, val
    p = overlap / n_pred
    r = overlap / n_gold
    f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return em, f1, p, r


class TestNormalize:
    def test_articles_removed(self):
        assert normalize_answer("The Good Earth") == "good earth"

    def test_punctuation_removed(self):
        assert normalize_answer("London, England") == "london england"

    def test_empty(self):
        assert normalize_answer("") == ""

    def test_whitespace_collapsed(self):
        assert normalize_answer("  a   big   deal ") == "big deal"


def translate_normalize(text):
    """normalize_answer as it deleted punctuation with a translate table."""
    text = text.lower()
    text = text.translate(str.maketrans("", "", string.punctuation))
    text = re.sub(r"\b(a|an|the)\b", " ", text)
    return " ".join(text.split())


# Any character, surrogates included, and the ones normalization treats
# specially: the 32 ASCII punctuation marks, capital sigma (final or not
# by what follows it), dotted capital I (two characters lower-cased),
# whitespace that str.split takes but a space-only rule would not (NEL,
# U+2028, U+3000, the ASCII separators), and the articles.
NORMALIZE_PIECES = (
    st.characters(blacklist_categories=())
    | st.sampled_from(list(string.punctuation))
    | st.sampled_from(["Σ", "ΑΣ", "ΟΔΟΣ", "İ", "\x85", "\u2028", "\u3000", "\x1c", "\xa0"])
    | st.sampled_from([" ", "a", "an", "the", "The", "A", "AN"])
)


class TestNormalizeAgainstTranslateTable:
    @settings(max_examples=1500, deadline=None)
    @given(st.lists(NORMALIZE_PIECES, max_size=24).map("".join))
    @example("ΟΔΟΣ. ΑΣ! Σ")
    @example("İstanbul, the city")
    @example("a\x85an\u2028the-a.b")
    @example("t.h.e a's")
    # An article next to a character that is neither whitespace nor a word
    # character, inside one whitespace-separated token.
    @example("the\u2013end")
    @example("a\u2019s")
    @example("x_the")
    @example("the\u0301 a")
    @example("an\u2192b")
    def test_same_text_as_the_translate_table(self, text):
        assert normalize_answer(text) == translate_normalize(text)
        # normalize_answer returns its own output as it is; that is exact
        # because normalizing is idempotent.
        assert translate_normalize(translate_normalize(text)) == translate_normalize(text)


ORACLE_PAIRS = [
    ("London, England", "london england"),
    ("london england", "london"),
    ("paris", "london"),
    ("The Good Earth", "Good Earth"),
    ("the the the", "the"),
    ("New York City", "New York"),
    ("New York", "New York City"),
    ("42", "42"),
    ("42.", "42"),
    ("answer is 42", "42"),
    ("", "something"),
    ("something", ""),
    ("", ""),
    ("a b c d", "d c b a"),
    ("a a b", "a b b"),
    ("word word", "word"),
    ("word", "word word"),
    ("An Apple A Day", "apple day"),
    ("O'Brien", "obrien"),
    ("Jean-Paul Sartre", "jean paul sartre"),
    ("USA", "U.S.A."),
    ("one two three four five", "three"),
    ("three", "one two three four five"),
    ("half right half wrong", "half right totally off"),
    ("the cat sat", "a cat sat"),
    ("x y z", "x y z"),
    ("X! Y? Z.", "x y z"),
]


class TestAnswerMetricsOracle:
    @pytest.mark.parametrize("pred,gold", ORACLE_PAIRS)
    def test_matches_brute_force_oracle(self, pred, gold):
        got = answer_metrics(pred, gold)
        em, f1, p, r = oracle_answer_metrics(pred, gold)
        assert got.em == em
        assert math.isclose(got.f1, f1, abs_tol=1e-9)
        assert math.isclose(got.precision, p, abs_tol=1e-9)
        assert math.isclose(got.recall, r, abs_tol=1e-9)

    def test_derived_case(self):
        got = answer_metrics("london england", "london")
        assert (got.em, got.precision, got.recall) == (0, 0.5, 1.0)
        assert math.isclose(got.f1, 2 / 3, abs_tol=1e-12)

    def test_identity_after_normalization(self):
        got = answer_metrics("London, England", "london england")
        assert got == AnswerMetrics(em=1, f1=1.0, precision=1.0, recall=1.0)

    def test_disjoint(self):
        got = answer_metrics("paris", "london")
        assert got == AnswerMetrics(em=0, f1=0.0, precision=0.0, recall=0.0)

    @given(st.text(max_size=30), st.text(max_size=30))
    def test_bounds_invariants(self, pred, gold):
        got = answer_metrics(pred, gold)
        assert got.em <= got.f1 <= 1.0
        assert min(got.precision, got.recall) <= got.f1 <= max(got.precision, got.recall) + 1e-12
        assert got.em == 1 and got.f1 == 1.0 or got.em == 0


def k_precision_over_the_joined_text(predicted, passages):
    """k_precision as it read the passages' tokens off their normalized
    joined text."""
    pred_tokens = set(normalize_answer(predicted).split())
    if not pred_tokens:
        return 0.0
    passage_tokens = set(normalize_answer(" ".join(passages)).split())
    return sum(1 for tok in pred_tokens if tok in passage_tokens) / len(pred_tokens)


PIECE_TEXTS = st.lists(NORMALIZE_PIECES, max_size=12).map("".join)


class TestKPrecision:
    def test_partial_grounding(self):
        assert k_precision("london england", ["london is a city"]) == 0.5

    def test_full_copy(self):
        passage = "thea sharrock was born in london"
        assert k_precision("born in london", [passage]) == 1.0

    def test_empty_prediction(self):
        assert k_precision("", ["anything"]) == 0.0

    def test_disjoint_vocabulary(self):
        assert k_precision("alpha beta", ["gamma delta epsilon"]) == 0.0

    def test_order_invariant(self):
        passages = ["one two", "three four", "five six"]
        pred = "two five nine"
        base = k_precision(pred, passages)
        for perm in itertools.permutations(passages):
            assert k_precision(pred, list(perm)) == base

    @settings(max_examples=500, deadline=None)
    @given(PIECE_TEXTS, st.lists(PIECE_TEXTS, max_size=4), st.booleans())
    @example("the\u2013end", ["the\u2013end"], False)
    @example("an\u2192b a", ["an\u2192b"], False)
    def test_same_as_over_the_joined_normalized_text(self, predicted, passages, quoting):
        if quoting and passages:  # a prediction that copies from a passage
            predicted += " " + passages[0]
        assert k_precision(predicted, passages) == k_precision_over_the_joined_text(
            predicted, passages
        )


class TestRetrievalMetrics:
    def test_perfect_pair(self):
        got = retrieval_metrics([8, 1], {1, 8})
        assert got == RetrievalMetrics(1.0, 1.0, 1.0, 0)

    def test_partial(self):
        got = retrieval_metrics([8], {1, 8})
        assert got.precision == 1.0
        assert got.recall == 0.5
        assert got.delta_hops == 1
        assert math.isclose(got.f1, 2 / 3, abs_tol=1e-12)

    def test_empty_selection_convention(self):
        got = retrieval_metrics([], {1})
        assert (got.precision, got.recall, got.f1, got.delta_hops) == (0.0, 0.0, 0.0, 1)

    def test_duplicates_deduplicated(self):
        got = retrieval_metrics([8, 8, 1], {1, 8})
        assert got == retrieval_metrics([8, 1], {1, 8})

    def test_permutation_invariant(self):
        assert retrieval_metrics([1, 8], {1, 8}) == retrieval_metrics([8, 1], {1, 8})


def oracle_pearson(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    return cov / math.sqrt(vx * vy)


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_matches_direct_formula(self):
        xs = [1, 2, 3, 4]
        ys = [1.1, 1.9, 3.2, 3.8]
        assert abs(pearson(xs, ys) - oracle_pearson(xs, ys)) < 1e-12

    def test_degenerate_variance(self):
        assert pearson([1, 1, 1], [1, 2, 3]) is None
        assert pearson([1, 2, 3], [4, 4, 4]) is None
        # statistics.correlation reads this constant vector as r = 0.0.
        assert pearson([0.1] * 3, [0, 1, 2]) is None

    def test_fewer_than_two_pairs(self):
        assert pearson([], []) is None
        assert pearson([0.5], [1.0]) is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="^pearson needs two vectors of one length$"):
            pearson([1, 2], [1])


def make_record(i, em, f1=None, kp=0.5, retrieval=None, supports=None):
    f1 = float(em) if f1 is None else f1
    labels = () if retrieval is None else (*astuple(retrieval), supports)
    return InstanceEval(f"i{i}", em, f1, f1, f1, kp, *labels)


class TestAggregate:
    def test_mean_of_two(self):
        report = aggregate([make_record(0, 1), make_record(1, 0)])
        assert report.percents["em"] == 50.0
        assert report.count == 2

    def test_single_record_identity(self):
        report = aggregate([make_record(0, 1, f1=0.75)])
        assert report.means["f1"] == 0.75
        assert report.means["em"] == 1.0

    def test_linearity(self):
        rng = random.Random(5)
        records = [
            make_record(i, rng.randint(0, 1), f1=rng.random(), kp=rng.random())
            for i in range(30)
        ]
        whole = aggregate(records)
        left = aggregate(records[:10])
        right = aggregate(records[10:])
        for key in ("em", "f1", "k_precision"):
            recombined = (left.means[key] * 10 + right.means[key] * 20) / 30
            assert math.isclose(whole.means[key], recombined, abs_tol=1e-12)

    def test_delta_hops_histogram_buckets(self):
        records = [
            make_record(0, 1, retrieval=RetrievalMetrics(1, 1, 1, 0), supports=2),
            make_record(1, 0, retrieval=RetrievalMetrics(1, 0.5, 2 / 3, 1), supports=2),
            make_record(2, 0, retrieval=RetrievalMetrics(0.5, 1, 2 / 3, -1), supports=1),
        ]
        report = aggregate(records)
        assert report.delta_hops_hist == {2: {0: 1, 1: 1}, 1: {-1: 1}}

    def test_retrieval_means_cover_only_labelled_rows(self):
        records = [
            make_record(0, 1, retrieval=RetrievalMetrics(1.0, 0.5, 0.75, 0), supports=2),
            make_record(1, 0),
            make_record(2, 0, retrieval=RetrievalMetrics(0.5, 0.0, 0.0, 1), supports=1),
        ]
        means = aggregate(records).means
        assert means["em"] == 1 / 3
        assert (means["retrieval_precision"], means["retrieval_recall"]) == (0.75, 0.25)
        assert means["retrieval_f1"] == 0.375

    def test_no_labels_no_retrieval_means(self):
        report = aggregate([make_record(0, 1), make_record(1, 0)])
        assert sorted(report.means) == ["em", "f1", "k_precision", "precision", "recall"]
        assert report.delta_hops_hist == {}


class TestEvaluateInstance:
    def test_row_without_labels(self):
        row = evaluate_instance("x", "London", "London, England", ["born in London"], [1], None)
        assert vars(row) == {
            "instance_id": "x",
            "em": 0,
            "f1": pytest.approx(2 / 3),
            "precision": 1.0,
            "recall": 0.5,
            "k_precision": 1.0,
            "retrieval_precision": None,
            "retrieval_recall": None,
            "retrieval_f1": None,
            "delta_hops": None,
            "supporting_count": None,
        }

    def test_row_with_labels(self):
        row = evaluate_instance("x", "Paris", "Paris", ["Rome"], [1, 2, 2], frozenset({2, 8, 9}))
        assert (row.em, row.f1, row.k_precision) == (1, 1.0, 0.0)
        assert (row.retrieval_precision, row.retrieval_recall) == (0.5, pytest.approx(1 / 3))
        assert row.retrieval_f1 == pytest.approx(0.4)
        assert (row.delta_hops, row.supporting_count) == (1, 3)
