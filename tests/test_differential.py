"""Differential tests: fast paths against plain references kept here.

``compare_pair`` and ``anchor_matrix`` weight the anchor's own terms once
per call and, per pair, resolve only the other side's terms that each side
reaches through a synonym candidate (``reached_terms``). The reference below
is the direct reading of the scheme and calls none of synsim's weighting
code: it weights both documents over the pair's term union under both
schemes with ``count / total * log2(n / df)``, finding a resolved count by
scanning the synonym rows for the lowest one holding the term and a df by
scanning every document, then computes each measure with plain
left-to-right loops over that union, sharing no dot product, norm or
sorted term order with ``synsim.similarity``. Every score must agree bit
for bit. Metamorphic properties check that the scores do not depend on
the corpus's document order, on a synonym row no document reaches, or on
whether the corpus's own table is named explicitly.

``document_frequency`` reads the corpus's posting lists and memoises a
modified df per synonym row on the corpus; it is checked against the
scheme's definition, a count of the documents where the term's (resolved)
count is positive, with several tables asked of one corpus.

``preprocess`` resolves each distinct whitespace chunk through a memo
(to the tuple of terms it yields, possibly empty), counts a document's
chunks in one pass and builds the document through ``from_terms``, without
the constructor's checks. Its reference calls none of synsim's
preprocessing code: it splits the text into runs of ``str.isalpha``
characters itself, lowercases each with ``str.lower``, drops those in the
stopwords and stems the rest with ``lexicon.get``, and counts the terms
through the checking constructor. The memo looks up a non-alphabetic
chunk token by token, so each distinct word is normalized once; a new
chunk that ends in a non-letter takes the memo entry of the chunk without
that character, when the memo holds it, instead of being analysed. Texts
that mix pieces with their trailing-separator variants check that every
entry equals the reference's analysis of its key.
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
    anchor_matrix,
    compare_pair,
    document_frequency,
    load_synonym_table,
    normalize,
    preprocess,
    resolve_count,
)
import synsim.pipeline
from synsim.pipeline import _ChunkTerms
from synsim.weighting import reached_terms

TERMS = ("alpha", "beta", "gamma", "delta", "eps", "zeta", "eta")


def reference_count(term, doc, mode, rows):
    """``term``'s count in ``doc``. In modified mode a term ``doc`` lacks
    takes the count of the first other term of the lowest row holding it,
    in row order, that ``doc`` holds."""
    count = doc.counts.get(term, 0)
    if count or mode == "traditional":
        return count
    for row in rows:
        if term in row:
            for other in row:
                if other != term and doc.counts.get(other, 0):
                    return doc.counts[other]
            return 0
    return 0


def reference_weights(doc, docs, vocabulary, mode, rows, modified_idf):
    """TF-IDF weights of ``doc`` over ``vocabulary`` among ``docs``, zeros left out."""
    df_mode = mode if modified_idf == "resolved" else "traditional"
    weights = {}
    for term in vocabulary:
        count = reference_count(term, doc, mode, rows)
        if count == 0:
            continue
        df = sum(reference_count(term, d, df_mode, rows) > 0 for d in docs)
        # A pair's terms occur in a document of the corpus: doc itself.
        assert df >= 1
        weight = count / doc.total_tokens * math.log2(len(docs) / df)
        if weight != 0.0:
            weights[term] = weight
    return weights


def reference_scores(corpus, id_a, id_b, measure, config):
    """(traditional, modified) of one pair, recomputed from scratch."""
    a, b = corpus.document(id_a), corpus.document(id_b)
    vocabulary = sorted(set(a.counts) | set(b.counts))
    table = config.synonym_table if config.synonym_table is not None else corpus.synonym_table
    scores = []
    for mode in ("traditional", "modified"):
        x, y = (
            reference_weights(doc, corpus.docs, vocabulary, mode, table.rows, config.modified_idf)
            for doc in (a, b)
        )
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


def drawn_call(corpus, data):
    """An anchor and its targets, drawn from ``corpus``."""
    anchor = data.draw(st.sampled_from(corpus.ids))
    return anchor, data.draw(st.lists(st.sampled_from(corpus.ids), min_size=1, max_size=5))


def matrix_hexed(corpus, call, config):
    """Every row of ``anchor_matrix`` on ``call``, its scores as ``float.hex``."""
    report = anchor_matrix(corpus, *call, MEASURES, config)
    return [(row.target_id, row.measure, *hexed(row)) for row in report.rows]


@settings(max_examples=100, deadline=None)
@given(documents, tables, comparisons, st.data())
def test_scores_do_not_depend_on_document_order(term_lists, table, config, data):
    corpus = build_corpus(term_lists, table)
    shuffled = Corpus(data.draw(st.permutations(corpus.docs)), synonym_table=table)
    call = drawn_call(corpus, data)
    assert matrix_hexed(shuffled, call, config) == matrix_hexed(corpus, call, config)


@settings(max_examples=100, deadline=None)
@given(documents, tables, comparisons, st.data())
def test_a_row_no_document_reaches_changes_no_score(term_lists, table, config, data):
    # The row's terms are outside TERMS, so no document and no other row
    # holds them; it is appended to whichever table the scorer uses.
    def extended(t):
        return SynonymTable(rows=(*t.rows, ("absent", "missing")))

    corpus = build_corpus(term_lists, table)
    call = drawn_call(corpus, data)
    own = config.synonym_table
    widened = ComparisonConfig(config.modified_idf, None if own is None else extended(own))
    assert matrix_hexed(build_corpus(term_lists, extended(table)), call, widened) == (
        matrix_hexed(corpus, call, config)
    )


@settings(max_examples=100, deadline=None)
@given(documents, tables, comparisons, st.data())
def test_naming_the_corpus_table_changes_no_score(term_lists, table, config, data):
    corpus = build_corpus(term_lists, table)
    call = drawn_call(corpus, data)
    named = ComparisonConfig(config.modified_idf, synonym_table=corpus.synonym_table)
    assert matrix_hexed(corpus, call, named) == (
        matrix_hexed(corpus, call, ComparisonConfig(config.modified_idf))
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


def reference_tokens(text):
    """The maximal runs of ``str.isalpha`` characters in ``text``, in order."""
    tokens, run = [], ""
    for char in text + " ":
        if char.isalpha():
            run += char
        elif run:
            tokens.append(run)
            run = ""
    return tokens


def reference_terms(text, stopwords, lexicon):
    """The terms of ``text`` in order: each token lowercased, kept if not a
    stopword, then stemmed."""
    words = [token.lower() for token in reference_tokens(text)]
    return [lexicon.get(word, word) for word in words if word not in stopwords]


def reference_preprocess(doc, stopwords, lexicon):
    # Counted here, not through from_terms, which preprocess uses.
    terms = reference_terms(doc.text, stopwords, lexicon)
    counts: dict[str, int] = {}
    for term in terms:
        counts[term] = counts.get(term, 0) + 1
    return ProcessedDocument(id=doc.id, counts=counts, total_tokens=len(terms))


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
    words = sorted({t.lower() for text in texts for t in reference_tokens(text)}) or ["a"]
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
    words = sorted({t.lower() for text in texts for t in reference_tokens(text)}) or ["a"]
    stopwords, lexicon = lexical_setting(data, words)
    seen = []

    def counted(word):
        seen.append(word)
        return normalize(word)

    terms = _ChunkTerms(stopwords, lexicon)
    with mock.patch.object(synsim.pipeline, "normalize", counted):
        for doc in docs:
            expected = listed(reference_preprocess(doc, stopwords, lexicon))
            assert listed(preprocess(doc, stopwords, lexicon, terms)) == expected
    # No word is normalized twice per memo. The keys are the chunks and
    # their tokens, each mapped to its own analysis.
    assert len(seen) == len(set(seen))
    chunks = {chunk for text in texts for chunk in text.split()}
    assert set(terms) == chunks | {t for chunk in chunks for t in reference_tokens(chunk)}
    for chunk, value in terms.items():
        assert value == tuple(reference_terms(chunk, stopwords, lexicon))
