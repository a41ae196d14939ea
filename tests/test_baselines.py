import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from gensco.baselines import bm25_rank, bm25_scores, load_rankings, shuffle_sequence
from gensco.models import Passage

from helpers import trace_instance


def oracle_bm25(query, docs, k1=1.2, b=0.75):
    """Straight transcription of the Okapi formula, independent of the index."""
    token = lambda text: [t for t in re.split(r"[^0-9a-z]+", text.lower()) if t]
    doc_terms = [token(d) for d in docs]
    n = len(docs)
    avgdl = sum(len(t) for t in doc_terms) / n
    scores = []
    for terms in doc_terms:
        score = 0.0
        for q in token(query):
            f = terms.count(q)
            if f == 0:
                continue
            df = sum(1 for other in doc_terms if q in other)
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            score += idf * f * (k1 + 1) / (f + k1 * (1 - b + b * len(terms) / avgdl))
        scores.append(score)
    return scores


FIXTURE_DOCS = [
    "the quick brown fox jumps over the lazy dog",
    "a quick quick quick fox",
    "the dog sat on the mat",
    "brown bears eat honey and fish",
    "fox and dog play together in the field",
]


# Words in mixed case; titles empty or not; term-less (Cyrillic-only) text.
WORDS = st.sampled_from(["fox", "Fox", "DOG", "dog", "the", "Lazy", "bear", "HONEY", "1990"])
ASCII_TEXT = st.lists(WORDS, min_size=1, max_size=8).map(" ".join)
CYRILLIC_TEXT = st.sampled_from(["Теа Шаррок родилась в Лондоне.", "Питер Левин — режиссёр."])
DOCUMENTS = st.tuples(
    st.one_of(st.just(""), ASCII_TEXT, CYRILLIC_TEXT),
    st.one_of(ASCII_TEXT, CYRILLIC_TEXT),
)


class TestBm25:
    def passages(self, docs):
        return tuple(Passage(i, "", body) for i, body in enumerate(docs))

    def test_matches_oracle_on_fixture(self):
        passages = self.passages(FIXTURE_DOCS)
        for query in ("quick fox", "dog", "brown honey fox", "the lazy dog sat"):
            expected = oracle_bm25(query, FIXTURE_DOCS)
            got = [bm25_scores(query, passages, 1.2, 0.75)[pos] for pos in range(len(passages))]
            assert got == pytest.approx(expected, abs=1e-9)

    def test_trace_corpus_query_ranks_film_passage_over_footballer(self):
        inst = trace_instance()
        ranked = bm25_rank("director Ivan film", inst.passages, 1.2, 0.75)
        order = [p.index for p in ranked]
        assert order.index(8) < order.index(4)

    def test_no_shared_terms_keeps_index_order(self):
        passages = self.passages(FIXTURE_DOCS)
        ranked = bm25_rank("zzz qqq", passages, 1.2, 0.75)
        assert [p.index for p in ranked] == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize(
        "question", ["Где родилась Теа Шаррок?", "Where was Thea born?"], ids=["ru", "en"]
    )
    def test_passages_without_ascii_terms_keep_index_order(self, question):
        # The tokenizer keeps only [0-9a-z], so these passages have no terms
        # and their average length is 0.
        passages = self.passages(["Теа Шаррок родилась в Лондоне.", "Питер Левин — режиссёр."])
        assert [p.index for p in bm25_rank(question, passages, 1.2, 0.75)] == [0, 1]

    def test_single_passage(self):
        passages = self.passages(["only document"])
        assert [p.index for p in bm25_rank("anything", passages, 1.2, 0.75)] == [0]

    @settings(max_examples=200)
    @given(
        st.lists(
            st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=12),
            min_size=2,
            max_size=6,
        ),
        st.sampled_from("abcdefg"),
        st.integers(min_value=1, max_value=5),
    )
    def test_term_frequency_monotonicity(self, corpus, term, extra):
        # Appending occurrences of a query term never lowers that doc's score.
        docs = [" ".join(doc) for doc in corpus]
        boosted = list(docs)
        boosted[0] = docs[0] + (" " + term) * extra
        base = oracle_bm25(term, docs)
        passages_base = tuple(Passage(i, "", d) for i, d in enumerate(docs))
        got_base = bm25_scores(term, passages_base, 1.2, 0.75)[0]
        assert got_base == pytest.approx(base[0], abs=1e-9)
        # Only compare when document lengths stay comparable via the index.
        passages_boosted = tuple(Passage(i, "", d) for i, d in enumerate(boosted))
        assert bm25_scores(term, passages_boosted, 1.2, 0.75)[0] >= got_base - 1e-12

    @settings(max_examples=300)
    @given(
        # Passages drawn from at most three documents, so repeats and ties occur.
        st.lists(DOCUMENTS, min_size=1, max_size=3).flatmap(
            lambda docs: st.lists(st.sampled_from(docs), min_size=1, max_size=6)
        ),
        ASCII_TEXT,
    )
    def test_scores_match_the_oracle_and_rank_by_score_then_index(self, docs, question):
        passages = tuple(Passage(i, title, body) for i, (title, body) in enumerate(docs))
        scores = bm25_scores(question, passages, 1.2, 0.75)
        expected = oracle_bm25(question, [f"{title} {body}" for title, body in docs])
        assert scores == pytest.approx(expected, abs=1e-9)
        by_score = sorted(passages, key=lambda p: (-scores[p.index], p.index))
        assert bm25_rank(question, passages, 1.2, 0.75) == by_score


class TestShuffleSequence:
    def test_pair_always_swaps(self):
        for seed in range(20):
            permuted, perm = shuffle_sequence((8, 1), seed)
            assert permuted == (1, 8)
            assert perm == (1, 0)

    def test_singleton_unchanged(self):
        assert shuffle_sequence((5,), 3) == ((5,), (0,))

    def test_reproducible_non_identity(self):
        first = shuffle_sequence((3, 7, 2), 13)
        second = shuffle_sequence((3, 7, 2), 13)
        assert first == second
        assert first[0] != (3, 7, 2)

    def test_is_permutation(self):
        rng = random.Random(0)
        for _ in range(50):
            seq = tuple(rng.sample(range(100), rng.randint(2, 8)))
            permuted, perm = shuffle_sequence(seq, rng.randint(0, 10_000))
            assert sorted(permuted) == sorted(seq)
            assert sorted(perm) == list(range(len(seq)))
            assert tuple(seq[i] for i in perm) == permuted


class TestPrecomputedRankings:
    def test_load(self, tmp_path):
        path = tmp_path / "rankings.jsonl"
        path.write_text('{"instance_id": "a", "ranking": [2, 0, 1]}\n')
        assert load_rankings(path) == {"a": [2, 0, 1]}

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "rankings.jsonl"
        path.write_text('{"instance_id": "a"}\n')
        with pytest.raises(ValueError, match=":1"):
            load_rankings(path)

    @pytest.mark.parametrize(
        "line,field",
        [
            ('{"instance_id": "a", "ranking": [2.9, 0]}', "Ranking.ranking"),
            ('{"instance_id": "a", "ranking": ["1"]}', "Ranking.ranking"),
            ('{"instance_id": "a", "ranking": [true]}', "Ranking.ranking"),
            ('{"instance_id": "a", "ranking": "021"}', "Ranking.ranking"),
            ('{"instance_id": 7, "ranking": [1]}', "Ranking.instance_id"),
        ],
        ids=["float", "string", "bool", "string-ranking", "int-id"],
    )
    def test_mistyped_record_reports_line_and_field(self, tmp_path, line, field):
        path = tmp_path / "rankings.jsonl"
        path.write_text('{"instance_id": "b", "ranking": [0]}\n' + line + "\n")
        with pytest.raises(ValueError, match=f":2: .*{field}"):
            load_rankings(path)
