"""Loading and indexing of the three lexical resources.

All three file formats are UTF-8 text, one entry per line, with blank lines
and ``#`` comment lines ignored; a leading byte-order mark is dropped:

* stopwords: one word per line
* stem lexicon: ``surface<TAB>stem`` per line, later duplicates win
* synonym table: one comma-separated row of mutually synonymous words per
  line; entries are normalized and stemmed at load so the table lives in
  the same term space as processed documents

Loaded structures are immutable and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterator

from .errors import LexiconFormatError
from .pipeline import normalize, stem


@dataclass(frozen=True)
class StopwordList:
    """Set of normalized surface forms to be removed before weighting."""

    words: frozenset[str] = frozenset()

    def __contains__(self, word: str) -> bool:
        return word in self.words

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class StemLexicon:
    """Mapping from normalized surface form to its stem."""

    entries: dict[str, str] = field(default_factory=dict)

    def lookup(self, surface: str) -> str | None:
        """The stem for ``surface``, or None when the form is not listed."""
        return self.entries.get(surface)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class SynonymRow:
    """One row of the synonym table: an ordered group of distinct stems."""

    terms: tuple[str, ...]


@dataclass(frozen=True)
class SynonymTable:
    """Ordered synonym rows, the only field; the indexes derive from them.

    ``candidates`` and ``reached_by`` are computed once, on first use, so a
    table built by hand behaves like a loaded one. Tables compare by their
    rows and are hashable, so a table can key a memo.
    """

    rows: tuple[SynonymRow, ...] = ()

    @classmethod
    def empty(cls) -> "SynonymTable":
        return cls()

    @cached_property
    def candidates(self) -> dict[str, tuple[str, ...]]:
        """Each term's synonyms: the other terms, in order, of the lowest row holding it."""
        candidates: dict[str, tuple[str, ...]] = {}
        for row in self.rows:
            for term in row.terms:
                if term not in candidates:
                    candidates[term] = tuple(t for t in row.terms if t != term)
        return candidates

    @cached_property
    def reached_by(self) -> dict[str, tuple[str, ...]]:
        """For each term, the terms whose ``candidates`` hold it.

        A document containing the term resolves a positive count for each
        of them. With rows ``a,b`` and ``b,c`` a document holding ``b``
        reaches ``a`` and ``c``, while one holding ``c`` reaches nothing
        (``b`` takes its candidates from the first row).
        """
        reached_by: dict[str, list[str]] = {}
        for term, synonyms in self.candidates.items():
            for synonym in synonyms:
                reached_by.setdefault(synonym, []).append(term)
        return {s: tuple(terms) for s, terms in reached_by.items()}

    def __hash__(self) -> int:
        # The first row keeps hashing O(1); tables sharing it fall back to ==.
        return hash(self.rows[:1])


def synonym_candidates(table: SynonymTable, term: str) -> tuple[str, ...]:
    """Synonyms to try for ``term``, in row position order, term excluded.

    Empty when the term occurs in no row.
    """
    return table.candidates.get(term, ())


def _open_lines(source) -> Iterator[str]:
    if isinstance(source, (str, Path)):
        # Decode errors surface as UnicodeDecodeError with the byte offset.
        text = Path(source).read_text(encoding="utf-8-sig")
    else:
        text = source.read().removeprefix("\ufeff")
    return iter(text.splitlines())


def _content_lines(source) -> Iterator[tuple[int, str]]:
    """Numbered lines with blanks and # comments removed."""
    for number, raw in enumerate(_open_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield number, line


def load_stopwords(source) -> StopwordList:
    """Read a stopword file: one word per line, normalized, deduplicated."""
    words = {normalize(line) for _, line in _content_lines(source)}
    return StopwordList(words=frozenset(words))


def load_stem_lexicon(source) -> StemLexicon:
    """Read a surface-to-stem TSV; the last entry for a surface form wins."""
    entries: dict[str, str] = {}
    for number, line in _content_lines(source):
        parts = line.split("\t")
        if len(parts) != 2:
            raise LexiconFormatError(
                f"expected exactly one TAB in {line!r}", line_number=number
            )
        surface, target = (normalize(p.strip()) for p in parts)
        if not surface or not target:
            raise LexiconFormatError(
                f"empty surface or stem in {line!r}", line_number=number
            )
        entries[surface] = target
    return StemLexicon(entries=entries)


def load_synonym_table(source, lexicon: StemLexicon | None = None) -> SynonymTable:
    """Read a synonym file into stem space.

    Each line is split on commas; every word is normalized and stemmed with
    the given lexicon, then deduplicated keeping first occurrence. Rows left
    with fewer than two distinct terms can never fire and are dropped.
    """
    lexicon = lexicon or StemLexicon()
    rows: list[SynonymRow] = []
    for _, line in _content_lines(source):
        words = [w.strip() for w in line.split(",")]
        terms: list[str] = []
        for word in words:
            if not word:
                continue
            term = stem(normalize(word), lexicon)
            if term and term not in terms:
                terms.append(term)
        if len(terms) < 2:
            continue
        rows.append(SynonymRow(terms=tuple(terms)))
    return SynonymTable(rows=tuple(rows))
