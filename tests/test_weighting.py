"""TF, document frequency, IDF, synonym-resolved counts, vectorization."""

import io
import itertools
import math
import string
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from synsim import (
    MEASURES,
    ComparisonConfig,
    ConfigError,
    Corpus,
    DocumentVector,
    DuplicateDocumentError,
    EmptyCorpusError,
    ProcessedDocument,
    SynonymTable,
    UnknownDocumentError,
    WeightingConfig,
    ZeroDocumentFrequencyError,
    anchor_matrix,
    build_vocabulary,
    document_frequency,
    idf,
    load_synonym_table,
    resolve_count,
    tf,
    vectorize,
)


def make_doc(doc_id: str, terms: list[str]) -> ProcessedDocument:
    return ProcessedDocument.from_terms(doc_id, terms)


def table_from(text: str) -> SynonymTable:
    return load_synonym_table(io.StringIO(text))


class TestResolveCount:
    def test_synonym_match_carries_its_count(self):
        table = table_from("A0,A1,A2\n")
        doc = make_doc("d", ["a1", "a1"])
        resolved = resolve_count("a0", doc, table)
        assert (resolved.count, resolved.matched_term) == (2, "a1")

    def test_positive_count_short_circuits(self):
        table = table_from("A0,A1,A2\n")
        doc = make_doc("d", ["a0", "a0", "a0", "a1"])
        resolved = resolve_count("a0", doc, table)
        assert (resolved.count, resolved.matched_term) == (3, None)

    def test_no_match_anywhere(self):
        table = table_from("A0,A1,A2\n")
        doc = make_doc("d", ["z"])
        resolved = resolve_count("a0", doc, table)
        assert (resolved.count, resolved.matched_term) == (0, None)

    def test_first_position_wins_over_frequency(self):
        table = table_from("A0,A1,A2\n")
        doc = make_doc("d", ["a1"] + ["a2"] * 5)
        resolved = resolve_count("a0", doc, table)
        assert (resolved.count, resolved.matched_term) == (1, "a1")

    def test_missing_table_raises(self):
        # As in modified document_frequency, None is not "no synonyms";
        # a positive raw count does not excuse it either.
        doc = make_doc("d", ["b"])
        for term in ("a", "b"):
            with pytest.raises(ConfigError, match="requires a synonym table"):
                resolve_count(term, doc, None)


class TestTf:
    def test_direct_ratio(self):
        assert tf(2, 3) == pytest.approx(2 / 3)

    def test_absent_term(self):
        assert tf(0, 5) == 0.0

    def test_empty_document_convention(self):
        assert tf(0, 0) == 0.0

    def test_own_terms_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            counts = rng.integers(1, 9, size=rng.integers(1, 12))
            total = int(counts.sum())
            assert math.fsum(tf(int(c), total) for c in counts) == pytest.approx(1.0)


class TestDocumentFrequency:
    def test_traditional_counts_containing_docs(self, toy_corpus):
        assert document_frequency(toy_corpus, "t1", "traditional") == 2
        assert document_frequency(toy_corpus, "t2", "traditional") == 2
        assert document_frequency(toy_corpus, "t3", "traditional") == 2

    def test_absent_term_without_synonyms(self, toy_corpus):
        assert document_frequency(toy_corpus, "zz", "traditional") == 0
        assert document_frequency(toy_corpus, "zz", "modified", SynonymTable.empty()) == 0

    def test_modified_unions_synonym_postings(self):
        corpus = Corpus(
            [
                make_doc("d1", ["a0"]),
                make_doc("d2", ["x"]),
                make_doc("d3", ["a1"]),
            ]
        )
        table = table_from("A0,A1\n")
        assert document_frequency(corpus, "a0", "traditional") == 1
        assert document_frequency(corpus, "a0", "modified", table) == 2

    def test_modified_reads_each_row_once(self):
        # A row's modified df is the size of the union of its postings;
        # every term of the row shares it, so each list is read once.
        corpus = Corpus(
            [
                make_doc("d1", ["a", "x"]),
                make_doc("d2", ["b"]),
                make_doc("d3", ["c", "d"]),
                make_doc("d4", ["x"]),
            ]
        )
        reads = Counter()

        class CountedPostings(dict):
            def get(self, term, default=None):
                reads[term] += 1
                return super().get(term, default)

        corpus.postings = CountedPostings(corpus.postings)
        table = table_from("a,b,c,d\n")
        assert [document_frequency(corpus, t, "modified", table) for t in "abcd"] == [3] * 4
        assert reads == {"a": 1, "b": 1, "c": 1, "d": 1}
        # A term in no row has its traditional df.
        assert document_frequency(corpus, "x", "modified", table) == 2

    def test_modified_memo_outlives_a_freed_table(self):
        # Rows built from lists are no constants of this code, so the first
        # is freed with its table, and the second, built right after, would
        # take its address if the memo did not keep the row.
        corpus = Corpus([make_doc("d1", ["a"]), make_doc("d2", ["b"]), make_doc("d3", ["c"])])
        first = SynonymTable(rows=(tuple(["a", "b"]),))
        assert document_frequency(corpus, "a", "modified", first) == 2
        del first
        second = SynonymTable(rows=(tuple(["c", "x"]),))
        assert document_frequency(corpus, "c", "modified", second) == 1

    def test_modified_without_a_table_raises(self, toy_corpus):
        # The corpus's own table is not a silent default here.
        with pytest.raises(ConfigError, match="requires a synonym table"):
            document_frequency(toy_corpus, "t1", "modified")
        with pytest.raises(ConfigError, match="requires a synonym table"):
            idf(toy_corpus, "t1", "modified")

    def test_modified_never_below_traditional(self, fixture_corpus):
        table = fixture_corpus.synonym_table
        for term in fixture_corpus.vocabulary:
            trad = document_frequency(fixture_corpus, term, "traditional")
            mod = document_frequency(fixture_corpus, term, "modified", table)
            assert mod >= trad


class TestIdf:
    def four_doc_corpus(self, df: int) -> Corpus:
        docs = [
            make_doc(f"d{i}", ["shared"] if i < df else [f"only{i}"]) for i in range(4)
        ]
        return Corpus(docs)

    def test_half_the_corpus(self):
        corpus = self.four_doc_corpus(df=2)
        assert idf(corpus, "shared", "traditional", "plus_one_when_zero") == 1.0

    def test_ubiquitous_term_weighs_nothing(self):
        corpus = self.four_doc_corpus(df=4)
        assert idf(corpus, "shared", "traditional", "plus_one_when_zero") == 0.0

    def test_zero_df_smoothed(self):
        corpus = self.four_doc_corpus(df=2)
        assert idf(corpus, "ghost", "traditional", "plus_one_when_zero") == 2.0

    def test_zero_df_unsmoothed_raises(self):
        corpus = self.four_doc_corpus(df=2)
        with pytest.raises(ZeroDocumentFrequencyError) as err:
            idf(corpus, "ghost", "traditional", "none")
        assert "ghost" in str(err.value)

    def test_unknown_smoothing_raises_whatever_the_df(self):
        corpus = self.four_doc_corpus(df=2)
        for term in ("shared", "ghost"):
            with pytest.raises(ConfigError, match="unknown smoothing 'bogus'"):
                idf(corpus, term, "traditional", "bogus")

    def test_nonincreasing_in_df(self):
        for size in (3, 5, 20):
            docs = [make_doc(f"d{i}", [f"w{i}"]) for i in range(size)]
            corpus = Corpus(docs)
            values = [
                math.log2(size / df) for df in range(1, size + 1)
            ]
            assert values == sorted(values, reverse=True)
            assert all(v >= 0 for v in values)

    def test_modified_idf_never_above_traditional(self, fixture_corpus):
        table = fixture_corpus.synonym_table
        for term in fixture_corpus.vocabulary:
            trad = idf(fixture_corpus, term, "traditional", "plus_one_when_zero")
            mod = idf(fixture_corpus, term, "modified", "plus_one_when_zero", table)
            assert mod <= trad


class TestCorpus:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateDocumentError):
            Corpus([make_doc("d", ["a"]), make_doc("d", ["b"])])

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            Corpus([])

    def test_unknown_document(self, toy_corpus):
        with pytest.raises(UnknownDocumentError):
            toy_corpus.document("nope")

    def test_postings(self, toy_corpus):
        assert toy_corpus.postings == {
            "t1": ["d1", "d2"],
            "t2": ["d1", "d3"],
            "t3": ["d2", "d3"],
        }
        assert toy_corpus.vocabulary == frozenset({"t1", "t2", "t3"})
        # A plain dict: asking for an absent term's df stores nothing.
        assert type(toy_corpus.postings) is dict
        assert document_frequency(toy_corpus, "absent") == 0
        assert toy_corpus.vocabulary == frozenset({"t1", "t2", "t3"})


class TestVectorize:
    def test_toy_corpus_hand_computed_weight(self, toy_corpus):
        config = WeightingConfig(mode="traditional")
        vocabulary = build_vocabulary(toy_corpus.document("d1"), toy_corpus.document("d2"))
        vec = vectorize(toy_corpus.document("d1"), toy_corpus, vocabulary, config)
        assert vec.get("t1") == pytest.approx((2 / 3) * math.log2(3 / 2), abs=1e-9)

    def test_empty_table_matches_traditional_bitwise(self, toy_corpus):
        vocabulary = tuple(sorted(toy_corpus.vocabulary))
        trad = WeightingConfig(mode="traditional")
        mod = WeightingConfig(mode="modified", synonym_table=SynonymTable.empty())
        for doc_id in toy_corpus.ids:
            doc = toy_corpus.document(doc_id)
            left = vectorize(doc, toy_corpus, vocabulary, trad)
            right = vectorize(doc, toy_corpus, vocabulary, mod)
            assert left.weights == right.weights

    def test_synonym_gives_weight_to_absent_term(self):
        # toy corpus plus d4=[t4], with t4 and t3 declared synonymous
        corpus = Corpus(
            [
                make_doc("d1", ["t1", "t1", "t2"]),
                make_doc("d2", ["t1", "t3"]),
                make_doc("d3", ["t2", "t3", "t3"]),
                make_doc("d4", ["t4"]),
            ]
        )
        table = table_from("t4,t3\n")
        resolved = resolve_count("t4", corpus.document("d2"), table)
        assert (resolved.count, resolved.matched_term) == (1, "t3")
        vocabulary = ("t1", "t2", "t3", "t4")
        trad = vectorize(
            corpus.document("d2"), corpus, vocabulary, WeightingConfig(mode="traditional")
        )
        mod = vectorize(
            corpus.document("d2"),
            corpus,
            vocabulary,
            WeightingConfig(mode="modified", synonym_table=table),
        )
        assert trad.get("t4") == 0.0
        assert mod.get("t4") > 0.0

    def test_weights_nonnegative_everywhere(self, fixture_corpus):
        table = fixture_corpus.synonym_table
        vocabulary = tuple(sorted(fixture_corpus.vocabulary))
        for mode_config in (
            WeightingConfig(mode="traditional"),
            WeightingConfig(mode="modified", synonym_table=table),
        ):
            for doc_id in fixture_corpus.ids:
                vec = vectorize(
                    fixture_corpus.document(doc_id), fixture_corpus, vocabulary, mode_config
                )
                assert all(w >= 0 for w in vec.weights.values())

    def test_raw_idf_variant_changes_only_idf(self):
        corpus = Corpus(
            [
                make_doc("d1", ["a0", "all"]),
                make_doc("d2", ["x", "a1", "all"]),
                make_doc("d3", ["y", "all"]),
                make_doc("d4", ["z", "all"]),
            ]
        )
        table = table_from("A0,A1\n")
        vocabulary = ("a0", "all")
        doc = corpus.document("d2")
        resolved_vec = vectorize(
            doc, corpus, vocabulary,
            WeightingConfig(mode="modified", synonym_table=table, modified_idf="resolved"),
        )
        raw_vec = vectorize(
            doc, corpus, vocabulary,
            WeightingConfig(mode="modified", synonym_table=table, modified_idf="raw"),
        )
        trad_vec = vectorize(doc, corpus, vocabulary, WeightingConfig(mode="traditional"))
        # same resolved TF of 1/3; df 2 vs 1 under the two variants
        assert resolved_vec.get("a0") == pytest.approx((1 / 3) * math.log2(4 / 2))
        assert raw_vec.get("a0") == pytest.approx((1 / 3) * math.log2(4 / 1))
        # "all" is in every document: its idf is 0, so no scheme stores it.
        for vec in (resolved_vec, raw_vec, trad_vec):
            assert "all" not in vec.weights

    def test_modified_mode_requires_a_table(self):
        with pytest.raises(ConfigError):
            WeightingConfig(mode="modified")

    def test_zero_df_term_of_an_outsider_is_smoothed_on_every_call(self, toy_corpus):
        # A document from outside the corpus holds a term of df 0: its df
        # is smoothed to one, so it weighs tf * log2(N), both when first
        # computed and when served from the memo.
        outsider = make_doc("x", ["t1", "t9"])
        vocabulary = ("t1", "t9")
        for _ in range(2):
            smoothed = vectorize(outsider, toy_corpus, vocabulary, WeightingConfig())
            assert smoothed.get("t9") == pytest.approx(0.5 * math.log2(3))
        assert toy_corpus.idf_memo("traditional", None)["t9"] == math.log2(3)

    def test_idf_memo_is_keyed_by_setting_and_table(self, toy_corpus):
        table = table_from("t1,t2\n")
        memo = toy_corpus.idf_memo("modified", table)
        assert toy_corpus.idf_memo("modified", table_from("t1,t2\n")) is memo
        # A table built by hand from plain tuples keys the same memo.
        assert toy_corpus.idf_memo("modified", SynonymTable(rows=(("t1", "t2"),))) is memo
        assert toy_corpus.idf_memo("modified", SynonymTable.empty()) is not memo
        assert toy_corpus.idf_memo("traditional", table) is not memo
        # Traditional idf ignores the table.
        assert toy_corpus.idf_memo("traditional", table) is toy_corpus.idf_memo(
            "traditional", None
        )


def test_build_vocabulary_sorted_union():
    a = make_doc("a", ["a", "b"])
    b = make_doc("b", ["b", "c"])
    assert build_vocabulary(a, b) == ("a", "b", "c")


def test_build_vocabulary_empty():
    a = make_doc("a", [])
    b = make_doc("b", [])
    assert build_vocabulary(a, b) == ()


def test_weighting_config_has_no_smoothing_field():
    fields = ["mode", "synonym_table", "modified_idf"]
    assert list(WeightingConfig._fields) == list(vars(WeightingConfig())) == fields


def test_document_vector_holds_only_weights():
    assert list(DocumentVector._fields) == list(vars(DocumentVector())) == ["weights"]
    assert DocumentVector({"a": 0.5}).get("a") == 0.5


def test_one_wide_row_weights_in_memory_linear_in_its_width():
    # A copy of the rest of a 5000-term row per term would hold 25 million
    # references, about 200 MB; the table holds the row once.
    words = ["".join(w) for w in itertools.product(string.ascii_lowercase, repeat=3)][:5000]
    text = ",".join(words) + "\ntram,streetcar\n"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        table = load_synonym_table(io.StringIO(text))
        corpus = Corpus(
            [
                make_doc("d0", [words[7], "tram", "x"]),
                make_doc("d1", ["streetcar", "x"]),
                make_doc("d2", [words[-1], words[0], "y"]),
                make_doc("d3", ["y"]),
            ],
            synonym_table=table,
        )
        config = WeightingConfig(mode="modified", synonym_table=table)
        vector = vectorize(corpus.document("d0"), corpus, words, config)
        report = anchor_matrix(corpus, "d2", corpus.ids, MEASURES, ComparisonConfig())
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # d0 holds the row's eighth term, so every row term resolves in d0 and
    # has the row's modified df of 2 among 4 documents: a weight of 1/3.
    assert len(table.rows[0]) == 5000
    assert list(vector.weights) == words
    assert set(vector.weights.values()) == {1 / 3}
    assert len(report.rows) == len(corpus.ids) * len(MEASURES)
    assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MB"
