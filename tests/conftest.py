"""Shared fixtures: the bundled two-cluster corpus and a tiny toy corpus."""

from pathlib import Path

import pytest

from synsim import (
    Corpus,
    ProcessedDocument,
    load_corpus,
    load_stem_lexicon,
    load_stopwords,
    load_synonym_table,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
TRANSIT = FIXTURES / "corpus" / "transit"
ORCHARD = FIXTURES / "corpus" / "orchard"
KK = FIXTURES / "kk"


@pytest.fixture
def toy_corpus() -> Corpus:
    """Three tiny documents over the terms t1..t3."""
    return Corpus(
        [
            ProcessedDocument.from_terms("d1", ["t1", "t1", "t2"]),
            ProcessedDocument.from_terms("d2", ["t1", "t3"]),
            ProcessedDocument.from_terms("d3", ["t2", "t3", "t3"]),
        ]
    )


@pytest.fixture(scope="session")
def fixture_stopwords():
    return load_stopwords(FIXTURES / "stopwords.txt")


@pytest.fixture(scope="session")
def fixture_lexicon():
    return load_stem_lexicon(FIXTURES / "stems.tsv")


@pytest.fixture(scope="session")
def fixture_table(fixture_lexicon):
    return load_synonym_table(FIXTURES / "synonyms.txt", fixture_lexicon)


@pytest.fixture(scope="session")
def fixture_corpus(fixture_stopwords, fixture_lexicon, fixture_table) -> Corpus:
    """The bundled 20-document corpus: transit cluster a01-a10, orchard
    cluster b01-b10, with the bundled synonym table attached."""
    return load_corpus(
        [TRANSIT, ORCHARD],
        stopwords=fixture_stopwords,
        lexicon=fixture_lexicon,
        synonym_table=fixture_table,
    )


@pytest.fixture(scope="session")
def kk_corpus() -> Corpus:
    """The Kazakh set: oil cluster m01-m05, steppe cluster s01-s05, with
    its own stopwords, stems and synonym table attached."""
    lexicon = load_stem_lexicon(KK / "stems.tsv")
    return load_corpus(
        [KK / "corpus" / "oil", KK / "corpus" / "steppe"],
        stopwords=load_stopwords(KK / "stopwords.txt"),
        lexicon=lexicon,
        synonym_table=load_synonym_table(KK / "synonyms.txt", lexicon),
    )
