"""Text preparation: tokenize, normalize, drop stopwords, stem, count.

The stages are deliberately small pure functions so each can be tested in
isolation; ``preprocess`` applies them in a fixed order, once per distinct
token, and reduces a raw document to a bag of stemmed term counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby
from typing import Container, Iterable, Mapping

# Marks a token missing from a ``preprocess`` memo. None marks a stopword
# there; "" cannot, because a lexicon may map a token to "", which is a term.
_MISSING = object()


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


def preprocess(
    doc: RawDocument,
    stopwords: Container[str],
    lexicon: Mapping[str, str],
    terms: dict[str, str | None] | None = None,
) -> ProcessedDocument:
    """Run the full preparation chain on one document.

    Order is fixed: tokenize, normalize, remove stopwords, stem. Stopwords
    are matched on normalized surface forms, before stemming.

    ``terms`` memoizes each token's term (None for a stopword) so each
    distinct token is analysed once. Calls may share one memo only when
    they pass the same ``stopwords`` and ``lexicon``; without ``terms`` a
    fresh memo is used. Counts are in first-occurrence order either way.
    """
    if terms is None:
        terms = {}
    counts: dict[str, int] = {}
    total = 0
    # Whitespace is never a letter, so tokens never span whitespace chunks,
    # and distinct chunks in first-occurrence order keep the terms' order.
    for chunk, n in Counter(doc.text.split()).items():
        for token in (chunk,) if chunk.isalpha() else tokenize(chunk):
            term = terms.get(token, _MISSING)
            if term is _MISSING:
                word = normalize(token)
                term = terms[token] = None if word in stopwords else stem(word, lexicon)
            if term is not None:
                counts[term] = counts.get(term, 0) + n
                total += n
    return ProcessedDocument(id=doc.id, counts=counts, total_tokens=total)
