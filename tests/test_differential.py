"""Differential tests: fast paths against plain references kept here.

``compare_pair`` and ``anchor_matrix`` weight the anchor's own terms once
per call and, per pair, resolve only the other side's terms that each side
reaches through a synonym candidate (``reached_terms``). The reference below
is the direct reading of the scheme: vectorize both documents over the
pair's term union under both weightings, on a corpus of its own (so it
shares no idf memo with the scorer under test), then compute each measure
with plain left-to-right loops over that union, sharing no dot product,
norm or sorted term order with ``synsim.similarity``. Every score must
agree bit for bit.

``document_frequency`` reads the corpus's posting lists and memoises a
modified df per synonym row on the corpus; it is checked against the
scheme's definition, a count of the documents where the term's (resolved)
count is positive, with several tables asked of one corpus.

``preprocess`` resolves each distinct whitespace chunk through a memo
(to the tuple of terms it yields, possibly empty), counts a document's
chunks in one pass and builds the document without the constructor's
checks; its reference runs the stages one after another. A new chunk
that ends in a non-letter takes the memo entry of the chunk without that
character, when the memo holds it, instead of being analysed; texts that
mix pieces with their trailing-separator variants check that every entry
still equals the chunk's own analysis.
"""

import io
import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from synsim import (
    MEASURES,
    ComparisonConfig,
    Corpus,
    ProcessedDocument,
    RawDocument,
    SynonymTable,
    WeightingConfig,
    anchor_matrix,
    build_vocabulary,
    compare_pair,
    document_frequency,
    filter_stopwords,
    load_synonym_table,
    normalize,
    preprocess,
    resolve_count,
    stem,
    tokenize,
    vectorize,
)
import synsim.pipeline
from synsim.pipeline import _ChunkTerms, _chunk_terms
from synsim.weighting import reached_terms

TERMS = ("alpha", "beta", "gamma", "delta", "eps", "zeta", "eta")


def reference_scores(corpus, id_a, id_b, measure, config):
    """(traditional, modified) of one pair, recomputed from scratch."""
    fresh = Corpus(corpus.docs, synonym_table=corpus.synonym_table)
    a, b = fresh.document(id_a), fresh.document(id_b)
    vocabulary = build_vocabulary(a, b)
    table = config.synonym_table if config.synonym_table is not None else fresh.synonym_table
    # Smoothing "none" raises on a term of document frequency zero, which a
    # pair's own terms never have.
    traditional = WeightingConfig(mode="traditional", smoothing="none")
    modified = WeightingConfig(
        mode="modified",
        smoothing="none",
        synonym_table=table,
        modified_idf=config.modified_idf,
    )
    scores = []
    for weighting in (traditional, modified):
        x = vectorize(a, fresh, vocabulary, weighting).weights
        y = vectorize(b, fresh, vocabulary, weighting).weights
        scores.append(reference_measure(measure, x, y, vocabulary).hex())
    return tuple(scores)


def reference_measure(measure, x, y, vocabulary):
    """``measure`` of the weight maps ``x`` and ``y``, added left to right over
    their sorted term union ``vocabulary``; a term one side lacks adds ``+0.0``."""
    xy = xx = yy = 0.0
    for term in vocabulary:
        a, b = x.get(term, 0.0), y.get(term, 0.0)
        xy += a * b
        xx += a * a
        yy += b * b
    if measure == "cosine":
        nx, ny = math.sqrt(xx), math.sqrt(yy)
        return 0.0 if nx == 0.0 or ny == 0.0 else min(xy / (nx * ny), 1.0)
    if measure == "jaccard":
        denominator = xx + yy - xy
        return 0.0 if denominator == 0.0 else min(xy / denominator, 1.0)
    assert measure == "dice"
    denominator = xx + yy
    return 0.0 if denominator == 0.0 else min(2.0 * xy / denominator, 1.0)


def hexed(result):
    return (result.traditional.hex(), result.modified.hex())


documents = st.lists(
    st.lists(st.sampled_from(TERMS), max_size=8), min_size=2, max_size=6
)
# Rows draw from the same small alphabet, so a term often sits in several
# rows; the loader keeps the lowest row for it and drops rows under two terms.
tables = st.lists(
    st.lists(st.sampled_from(TERMS), min_size=1, max_size=4), max_size=4
).map(lambda rows: load_synonym_table(io.StringIO("".join(",".join(r) + "\n" for r in rows))))
comparisons = st.builds(
    ComparisonConfig,
    modified_idf=st.sampled_from(("resolved", "raw")),
    synonym_table=st.one_of(st.none(), st.just(SynonymTable.empty()), tables),
)


def build_corpus(term_lists, table):
    docs = [ProcessedDocument.from_terms(f"d{i}", terms) for i, terms in enumerate(term_lists)]
    return Corpus(docs, synonym_table=table)


def test_anchor_matrix_skips_a_reached_term_absent_from_the_corpus():
    # d0 reaches z through the row a,z, but z occurs in no document, so its
    # raw df is 0. The pair d0/d2 never holds z, so the scorer must not
    # weight it; a weight for z would lengthen d0's modified vector, and d0
    # shares a with d2, so the pair's modified scores would move.
    table = load_synonym_table(io.StringIO("a,z\n"))
    corpus = build_corpus([["a"], ["b"], ["a", "b"]], table)
    config = ComparisonConfig(modified_idf="raw")
    report = anchor_matrix(corpus, "d0", ["d2"], MEASURES, config)
    for row in report.rows:
        assert hexed(row) == reference_scores(corpus, "d0", "d2", row.measure, config)


@settings(max_examples=150, deadline=None)
@given(documents, tables, st.lists(comparisons, min_size=1, max_size=3), st.data())
def test_compare_pair_matches_reference(term_lists, table, configs, data):
    # Several settings in a row on one corpus: its memos must keep them apart.
    corpus = build_corpus(term_lists, table)
    for config in configs:
        id_a = data.draw(st.sampled_from(corpus.ids))
        id_b = data.draw(st.sampled_from(corpus.ids))
        for measure in MEASURES:
            got = compare_pair(corpus, id_a, id_b, measure, config)
            assert hexed(got) == reference_scores(corpus, id_a, id_b, measure, config)


@settings(max_examples=100, deadline=None)
@given(documents, tables, st.lists(comparisons, min_size=1, max_size=3), st.data())
def test_anchor_matrix_matches_reference(term_lists, table, configs, data):
    corpus = build_corpus(term_lists, table)
    for config in configs:
        anchor = data.draw(st.sampled_from(corpus.ids))
        targets = data.draw(st.lists(st.sampled_from(corpus.ids), min_size=1, max_size=5))
        report = anchor_matrix(corpus, anchor, targets, MEASURES, config)
        for row in report.rows:
            assert (row.anchor_id, row.traditional.hex(), row.modified.hex()) == (
                anchor,
                *reference_scores(corpus, anchor, row.target_id, row.measure, config),
            )


@settings(max_examples=150, deadline=None)
@given(documents, tables, st.lists(st.sampled_from(TERMS), max_size=8))
def test_reached_terms_are_the_missing_terms_that_resolve(term_lists, table, terms):
    doc = ProcessedDocument.from_terms("d0", term_lists[0])
    expected = [
        t for t in terms if t not in doc.counts and resolve_count(t, doc, table).count > 0
    ]
    assert reached_terms(terms, doc, table) == expected


@settings(max_examples=150, deadline=None)
@given(documents, tables)
def test_document_frequency_counts_the_documents_that_resolve(term_lists, table):
    # The scheme's definition: traditional df counts the documents holding
    # the term, modified df those where its resolved count is positive.
    corpus = build_corpus(term_lists, table)
    for term in [*corpus.vocabulary, "absent"]:
        assert document_frequency(corpus, term) == sum(
            term in doc.counts for doc in corpus
        )
        assert document_frequency(corpus, term, "modified", table) == sum(
            resolve_count(term, doc, table).count > 0 for doc in corpus
        )


@settings(max_examples=150, deadline=None)
@given(documents, tables, tables)
def test_modified_df_memo_serves_each_row_and_table_its_own(term_lists, first, second):
    # The two tables often share terms but not rows. Each term is asked
    # twice, in two orders, so most answers come from the corpus's memo.
    corpus = build_corpus(term_lists, first)
    terms = [*TERMS, "absent"]
    for table in (first, second):
        for term in [*terms, *reversed(terms)]:
            assert document_frequency(corpus, term, "modified", table) == sum(
                resolve_count(term, doc, table).count > 0 for doc in corpus
            )


# Every whitespace class str.split uses, and U+200B, which is not whitespace.
WHITESPACE = " \t\n\u00a0\u2028\x1c\u3000"
ALPHABET = (
    "abzAZ"
    "аәғқңөұүһіӘҒҚҢӨҰҮҺІ"
    "İΣσςß\u0301²Ⅻ½_07.,-'!"
    "\u200b" + WHITESPACE
)


def reference_preprocess(doc, stopwords, lexicon):
    tokens = [normalize(t) for t in tokenize(doc.text)]
    kept = filter_stopwords(tokens, stopwords)
    return ProcessedDocument.from_terms(doc.id, [stem(t, lexicon) for t in kept])


def listed(doc):
    """A processed document with its counts in order."""
    return doc.id, list(doc.counts.items()), doc.total_tokens


def lexical_setting(data, words):
    """Stopwords and a stem lexicon over ``words``, which may map to ""."""
    stopwords = frozenset(data.draw(st.lists(st.sampled_from(words))))
    entries = data.draw(
        st.dictionaries(st.sampled_from(words), st.sampled_from(["", *words]))
    )
    return stopwords, entries


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(ALPHABET, min_size=1, max_size=5), min_size=1, max_size=6), st.data())
def test_preprocess_with_shared_memo_matches_plain_chain(pieces, data):
    # Texts repeat a few pieces, so chunks and tokens recur within and
    # across documents and the memo is hit.
    texts = data.draw(
        st.lists(
            st.lists(st.sampled_from([*pieces, *WHITESPACE]), max_size=20).map("".join),
            min_size=1,
            max_size=4,
        )
    )
    docs = [RawDocument(f"d{i}", text) for i, text in enumerate(texts)]
    words = sorted({normalize(t) for text in texts for t in tokenize(text)}) or ["a"]
    # Two settings in a row: each memo serves one setting only.
    for _ in range(2):
        stopwords, lexicon = lexical_setting(data, words)
        terms = _ChunkTerms(stopwords, lexicon)
        for doc in docs:
            expected = listed(reference_preprocess(doc, stopwords, lexicon))
            for out in (
                preprocess(doc, stopwords, lexicon, terms),
                preprocess(doc, stopwords, lexicon),
            ):
                assert listed(out) == expected
                # Built without the constructor's checks, yet a document
                # the validating constructor accepts and equals.
                assert type(out) is ProcessedDocument
                assert out == ProcessedDocument(out.id, dict(out.counts), out.total_tokens)


# Non-letters that may end a chunk whose prefix is a word: punctuation, a
# superscript, a combining mark, "_", a digit and a hyphen.
TRAILING = (".", ",", "!", "²", "\u0301", "_", "0", "-")


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.text(ALPHABET.removesuffix(WHITESPACE), min_size=1, max_size=4),
        min_size=1,
        max_size=3,
    ),
    st.data(),
)
def test_preprocess_reuses_a_prefix_entry_only_where_exact(pieces, data):
    # Each piece, and each piece followed by one or two separators, in any
    # order, so a variant comes both before and after its bare piece.
    variants = [p + s for p in pieces for s in ("", *TRAILING, *(t * 2 for t in TRAILING))]
    texts = data.draw(
        st.lists(
            st.lists(st.sampled_from(variants), max_size=12).map(" ".join),
            min_size=1,
            max_size=3,
        )
    )
    docs = [RawDocument(f"d{i}", text) for i, text in enumerate(texts)]
    words = sorted({normalize(t) for text in texts for t in tokenize(text)}) or ["a"]
    stopwords, lexicon = lexical_setting(data, words)
    seen = []

    def counted(chunk, stopwords, lexicon):
        seen.append(chunk)
        return _chunk_terms(chunk, stopwords, lexicon)

    terms = _ChunkTerms(stopwords, lexicon)
    with mock.patch.object(synsim.pipeline, "_chunk_terms", counted):
        for doc in docs:
            expected = listed(reference_preprocess(doc, stopwords, lexicon))
            assert listed(preprocess(doc, stopwords, lexicon, terms)) == expected
    assert len(seen) == len(set(seen))
    assert set(terms) == {chunk for text in texts for chunk in text.split()}
    for chunk, value in terms.items():
        assert value == _chunk_terms(chunk, stopwords, lexicon)
