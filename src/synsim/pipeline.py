"""Text preparation: tokenize, normalize, drop stopwords, stem, count.

The stages are deliberately small pure functions so each can be tested in
isolation; ``preprocess`` applies them in a fixed order, once per distinct
whitespace chunk, and reduces a raw document to a bag of stemmed term counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, filterfalse, groupby
from sys import intern
from typing import Container, Iterable, Mapping


@dataclass(frozen=True)
class RawDocument:
    """An unprocessed input text with a caller-chosen id."""

    id: str
    text: str


@dataclass(frozen=True)
class ProcessedDocument:
    """A document reduced to stemmed-term counts.

    Every count is at least 1. ``total_tokens`` is the number of tokens that
    survived filtering, which equals the sum of all counts; it is the
    term-frequency denominator.
    """

    id: str
    counts: Mapping[str, int] = field(default_factory=dict)
    total_tokens: int = 0

    def __post_init__(self):
        if self.counts and min(self.counts.values()) < 1:
            term = next(t for t, c in self.counts.items() if c < 1)
            raise ValueError(f"document {self.id!r}: term {term!r} has a count below 1")
        if self.total_tokens != sum(self.counts.values()):
            raise ValueError(
                f"document {self.id!r}: total_tokens={self.total_tokens} "
                f"does not equal the sum of counts {sum(self.counts.values())}"
            )

    @classmethod
    def from_terms(cls, doc_id: str, terms: Iterable[str]) -> "ProcessedDocument":
        """Build directly from an iterable of already-stemmed terms."""
        counts: dict[str, int] = {}
        total = 0
        for term in terms:
            counts[term] = counts.get(term, 0) + 1
            total += 1
        return cls(id=doc_id, counts=counts, total_tokens=total)


def tokenize(text: str) -> list[str]:
    """Split text into maximal runs of ``str.isalpha`` characters.

    Every other character is a separator and is discarded: whitespace,
    punctuation and digits, but also ``_``, superscripts such as ``²``,
    letter-like numerals such as ``Ⅻ`` and combining marks such as U+0301.
    So "a-b c7d" yields ["a", "b", "c", "d"] and "a_b x²y" yields
    ["a", "b", "x", "y"].
    """
    return ["".join(run) for is_letter, run in groupby(text, key=str.isalpha) if is_letter]


def normalize(token: str) -> str:
    """Lowercase a token using the Unicode case tables.

    Covers the Cyrillic letters specific to Kazakh (Ә, Ғ, Қ, Ң, Ө, Ұ, Ү, Һ,
    І) as ordinary case pairs; nothing is transliterated.
    """
    return token.lower()


def filter_stopwords(tokens: Iterable[str], stopwords) -> list[str]:
    """Drop every token that is a member of ``stopwords``, keeping order."""
    return [t for t in tokens if t not in stopwords]


def stem(token: str, lexicon: Mapping[str, str]) -> str:
    """Reduce a normalized token to its stem: its lexicon entry, else the token unchanged."""
    return lexicon.get(token, token)


def _chunk_terms(
    chunk: str, stopwords: Container[str], lexicon: Mapping[str, str]
) -> tuple[str, ...]:
    """The terms of one whitespace chunk, in order: tokenize, normalize, drop stopwords, stem.

    A chunk of stopwords, digits or punctuation yields ``()``; the common
    chunk yields one term; a chunk such as "a-b" yields several. "" is a
    term, because a lexicon may map to it. An alphabetic chunk is its own
    single token.
    """
    # Interned, so that the equal terms of different chunks ("word",
    # "word.") are one object, and term lookups in the counts, the postings
    # and the idf memos match by identity.
    return tuple(
        intern(stem(word, lexicon))
        for word in map(normalize, (chunk,) if chunk.isalpha() else tokenize(chunk))
        if word not in stopwords
    )


def preprocess(
    doc: RawDocument,
    stopwords: Container[str],
    lexicon: Mapping[str, str],
    terms: dict[str, tuple[str, ...]] | None = None,
) -> ProcessedDocument:
    """Run the full preparation chain on one document.

    Order is fixed: tokenize, normalize, remove stopwords, stem. Stopwords
    are matched on normalized surface forms, before stemming.

    ``terms`` memoizes the tuple of terms each whitespace chunk of the text
    yields (see ``_chunk_terms``), so each distinct chunk is analysed once
    and the chunks of a document are counted in one pass. Calls may share
    one memo only when they pass the same ``stopwords`` and ``lexicon``;
    without ``terms`` a fresh memo is used. Counts are in first-occurrence
    order either way.
    """
    if terms is None:
        terms = {}
    # Whitespace is never a letter, so tokens never span whitespace chunks.
    chunks = doc.text.split()
    for chunk in filterfalse(terms.__contains__, chunks):
        terms[chunk] = _chunk_terms(chunk, stopwords, lexicon)
    counts = Counter(chain.from_iterable(map(terms.__getitem__, chunks)))
    return ProcessedDocument(id=doc.id, counts=dict(counts), total_tokens=sum(counts.values()))
