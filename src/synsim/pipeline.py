"""Text preparation: tokenize, normalize, drop stopwords, stem, count.

The stages are deliberately small pure functions so each can be tested in
isolation; ``preprocess`` applies them in a fixed order, once per distinct
word, and reduces a raw document to a bag of stemmed term counts.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain, groupby
from sys import intern
from typing import Container, Iterable, Mapping, NamedTuple


class RawDocument(NamedTuple):
    """An unprocessed input text with a caller-chosen id; a named tuple."""

    id: str
    text: str


class _Frozen:
    """Base of the records that check their fields or cache derived state.

    A subclass names its fields in order in ``_fields``, as a named tuple
    does, and its ``__init__`` stores them in the instance ``__dict__``,
    where ``cached_property`` stores derived values too. This base compares
    records of one type by their fields, hashes the tuple of the fields,
    shows them as ``Name(field=value, ...)`` and raises ``AttributeError``
    on any assignment or deletion. Pickling and copying restore the
    ``__dict__`` as it is, cached values included.
    """

    _fields: tuple[str, ...]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ProcessedDocument(_Frozen):
    """A document reduced to stemmed-term counts: ``id`` and ``counts``, its only fields.

    Every count is at least 1; the constructor checks it. ``preprocess``
    builds through ``from_terms``, which skips the check because counting
    guarantees it. ``counts`` defaults to a new empty dict. ``total_tokens``
    is computed from the counts once, on first use.
    """

    _fields = __match_args__ = ("id", "counts")

    def __init__(self, id: str, counts: Mapping[str, int] | None = None):
        counts = {} if counts is None else counts
        for term, count in counts.items():
            if count < 1:
                raise ValueError(f"document {id!r}: term {term!r} has a count below 1")
        self.__dict__.update(id=id, counts=counts)

    @classmethod
    def from_terms(cls, doc_id: str, terms: Iterable[str]) -> "ProcessedDocument":
        """Count already-stemmed terms, in first-occurrence order.

        Built without ``__init__``'s check: each counted term occurs at least once.
        """
        doc = object.__new__(cls)
        doc.__dict__.update(id=doc_id, counts=dict(Counter(terms)))
        return doc

    @cached_property
    def total_tokens(self) -> int:
        """The tokens that survived filtering, the tf denominator: the sum of the counts."""
        return sum(self.counts.values())


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


class _ChunkTerms(dict):
    """Memo from each whitespace chunk to the terms it yields, for one setting.

    It is bound to one ``stopwords`` and one ``lexicon`` object. A chunk it
    has not seen is analysed on lookup, stored and returned. An alphabetic
    chunk is its own token: normalized, dropped if a stopword, else stemmed;
    this is the only place a word is analysed. Any other chunk yields the
    terms of its tokens, each looked up, and so stored, as a chunk of its
    own. So each distinct word is analysed at most once per memo, and the
    keys are the chunks and their tokens. A new chunk that ends in a
    non-letter ("word." after "word") first takes the entry of the chunk
    without that character when the memo holds it: ``tokenize`` splits at
    every non-letter, so that character adds no token. A chunk of
    stopwords, digits or punctuation yields ``()``; "" is a term, because a
    lexicon may map to it.
    """

    __slots__ = ("stopwords", "lexicon")

    def __init__(self, stopwords: Container[str], lexicon: Mapping[str, str]):
        super().__init__()
        self.stopwords = stopwords
        self.lexicon = lexicon

    def __missing__(self, chunk: str) -> tuple[str, ...]:
        if chunk.isalpha():
            word = normalize(chunk)
            # Interned, so that the equal terms of different chunks ("word",
            # "Word") are one object, and term lookups in the counts, the
            # postings and the idf memos match by identity.
            terms = () if word in self.stopwords else (intern(stem(word, self.lexicon)),)
        # dict.get, unlike indexing, does not call __missing__ for the prefix.
        elif chunk[-1:].isalpha() or (terms := self.get(chunk[:-1])) is None:
            # Every token is alphabetic, so this goes one level deep.
            terms = tuple(chain.from_iterable(map(self.__getitem__, tokenize(chunk))))
        self[chunk] = terms
        return terms


def preprocess(
    doc: RawDocument,
    stopwords: Container[str],
    lexicon: Mapping[str, str],
    terms: _ChunkTerms | None = None,
) -> ProcessedDocument:
    """Run the full preparation chain on one document.

    Order is fixed: tokenize, normalize, remove stopwords, stem. Stopwords
    are matched on normalized surface forms, before stemming.

    ``terms`` memoizes the tuple of terms each whitespace chunk of the text
    yields (see ``_ChunkTerms``), so each distinct chunk and each distinct
    word is analysed at most once, a chunk ending in a non-letter whose
    prefix is memoised not at all, and the chunks of a document are
    counted in one pass. It is a ``_ChunkTerms(stopwords, lexicon)``, and calls
    may share it only when they pass those same two objects; any other
    memo raises ``ValueError``.
    Without ``terms`` a fresh memo is used. Counts are in first-occurrence
    order either way.
    """
    if terms is None:
        terms = _ChunkTerms(stopwords, lexicon)
    elif not (
        isinstance(terms, _ChunkTerms)
        and terms.stopwords is stopwords
        and terms.lexicon is lexicon
    ):
        raise ValueError("the chunk memo is not bound to these stopwords and this lexicon")
    # Whitespace is never a letter, so tokens never span whitespace chunks.
    return ProcessedDocument.from_terms(
        doc.id, chain.from_iterable(map(terms.__getitem__, doc.text.split()))
    )
