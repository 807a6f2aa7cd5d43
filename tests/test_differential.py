"""Differential tests: pair scoring against a plain per-pair reference.

``compare_pair`` and ``anchor_matrix`` weight each document once per
corpus and setting and restrict to the pair afterwards. The reference below
is the direct reading of the scheme: vectorize both documents over the
pair's term union under both weightings, on a corpus of its own (so it
shares no idf memo with the scorer under test), then run each measure.
Every score must agree bit for bit.
"""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from synsim import (
    MEASURES,
    ComparisonConfig,
    Corpus,
    ProcessedDocument,
    SynonymTable,
    WeightingConfig,
    anchor_matrix,
    build_vocabulary,
    compare_pair,
    load_synonym_table,
    similarity,
    vectorize,
)

TERMS = ("alpha", "beta", "gamma", "delta", "eps", "zeta", "eta")


def reference_scores(corpus, id_a, id_b, measure, config):
    """(traditional, modified) of one pair, recomputed from scratch."""
    fresh = Corpus(corpus.docs, synonym_table=corpus.synonym_table)
    a, b = fresh.document(id_a), fresh.document(id_b)
    vocabulary = build_vocabulary(a, b)
    table = config.synonym_table if config.synonym_table is not None else fresh.synonym_table
    traditional = WeightingConfig(mode="traditional", smoothing=config.smoothing)
    modified = WeightingConfig(
        mode="modified",
        smoothing=config.smoothing,
        synonym_table=table,
        modified_idf=config.modified_idf,
    )
    scores = []
    for weighting in (traditional, modified):
        x = vectorize(a, fresh, vocabulary, weighting)
        y = vectorize(b, fresh, vocabulary, weighting)
        scores.append(similarity(measure, x, y).value.hex())
    return tuple(scores)


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
    lambda smoothing, modified_idf, override: ComparisonConfig(
        smoothing=smoothing, modified_idf=modified_idf, synonym_table=override
    ),
    st.sampled_from(("plus_one_when_zero", "none")),
    st.sampled_from(("resolved", "raw")),
    st.one_of(st.none(), st.just(SynonymTable.empty()), tables),
)


def build_corpus(term_lists, table):
    docs = [ProcessedDocument.from_terms(f"d{i}", terms) for i, terms in enumerate(term_lists)]
    return Corpus(docs, synonym_table=table)


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
