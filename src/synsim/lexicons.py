"""Loading and indexing of the three lexical resources.

All three file formats are UTF-8 text, one entry per line, with blank lines
and ``#`` comment lines ignored; a leading byte-order mark is dropped:

* stopwords: one word per line
* stem lexicon: ``surface<TAB>stem`` per line, later duplicates win
* synonym table: one comma-separated row of mutually synonymous words per
  line; entries are normalized and stemmed at load so the table lives in
  the same term space as processed documents

Loaded resources are plain builtins: the stopwords a ``frozenset``, the
stem lexicon a ``dict`` and the synonym rows tuples of terms. The stopword
set and the synonym rows are immutable. The lexicon ``dict`` is to be read
and not mutated, like ``doc.counts`` and ``Corpus.postings``; read that
way, all three are safe to share between threads.
"""

from __future__ import annotations

from functools import cached_property
from pathlib import Path
from typing import Iterator, Mapping

from .errors import ConfigError, LexiconFormatError
from .pipeline import _Frozen, normalize, stem


class SynonymTable(_Frozen):
    """Ordered synonym rows, the only field; ``row_of`` derives from them.

    ``rows`` is a tuple of rows, each a tuple of distinct terms, so a table
    is immutable, and one built by hand from plain tuples equals a loaded
    one with the same rows; any other ``rows`` or row raises
    ``ConfigError``, which names the bad row's index. ``row_of`` is
    computed once, on first use, in one pass over the rows. Tables compare
    by their rows and are hashable, so a table can key a memo.
    """

    _fields = __match_args__ = ("rows",)

    def __init__(self, rows: tuple[tuple[str, ...], ...] = ()):
        # Checks types only: building a table hashes no term.
        if not isinstance(rows, tuple):
            raise ConfigError(f"synonym rows must be a tuple, not {type(rows).__name__}")
        for index, row in enumerate(rows):
            if not isinstance(row, tuple):
                raise ConfigError(
                    f"synonym row {index} must be a tuple, not {type(row).__name__}"
                )
        self.__dict__["rows"] = rows

    @classmethod
    def empty(cls) -> "SynonymTable":
        return cls()

    @cached_property
    def row_of(self) -> dict[str, tuple[str, ...]]:
        """Each term mapped to the lowest row holding it: the row's own tuple, not a copy."""
        row_of: dict[str, tuple[str, ...]] = {}
        for row in self.rows:
            for term in row:
                row_of.setdefault(term, row)
        return row_of

    def __hash__(self) -> int:
        # One term keeps hashing O(1); tables sharing it fall back to ==.
        return hash(self.rows[0][:1]) if self.rows else 0


def _open_lines(source) -> Iterator[str]:
    if isinstance(source, (str, Path)):
        # Decode errors surface as UnicodeDecodeError with the byte offset.
        text = Path(source).read_text(encoding="utf-8-sig")
    else:
        text = source.read().removeprefix("\ufeff")
    return iter(text.splitlines())


def _content_lines(source) -> Iterator[tuple[int, str]]:
    """Numbered lines, as read, with blank and # comment lines removed."""
    for number, line in enumerate(_open_lines(source), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield number, line


def load_stopwords(source) -> frozenset[str]:
    """Read a stopword file: one word per line, normalized, deduplicated."""
    return frozenset(normalize(line.strip()) for _, line in _content_lines(source))


def load_stem_lexicon(source) -> dict[str, str]:
    """Read a surface-to-stem TSV; the last entry for a surface form wins.

    Each line is stripped, then split once at its first TAB; a line with no
    TAB or a second one raises ``LexiconFormatError``. Where stripping took
    the only TAB, a side was empty, and the message names that side.
    """
    entries: dict[str, str] = {}
    for number, raw in _content_lines(source):
        line = raw.strip()
        surface, tab, target = line.partition("\t")
        if not tab and "\t" in raw:
            side = "stem" if raw.partition("\t")[0].strip() else "surface form"
            raise LexiconFormatError(f"empty {side} in {raw!r}", number)
        if not tab or "\t" in target:
            raise LexiconFormatError(f"expected exactly one TAB in {line!r}", number)
        # The line is stripped, so both sides hold a non-space character.
        entries[normalize(surface.strip())] = normalize(target.strip())
    return entries


def load_synonym_table(source, lexicon: Mapping[str, str] | None = None) -> SynonymTable:
    """Read a synonym file into stem space.

    Each line is split on commas; every word is normalized and stemmed with
    the given lexicon, then deduplicated keeping first occurrence. Rows left
    with fewer than two distinct terms can never fire and are dropped.
    """
    lexicon = lexicon or {}
    rows: list[tuple[str, ...]] = []
    for _, line in _content_lines(source):
        # A dict keeps each term's first position, whatever the row's width.
        terms = dict.fromkeys(
            stem(normalize(word), lexicon) for word in map(str.strip, line.split(",")) if word
        )
        terms.pop("", None)
        if len(terms) < 2:
            continue
        rows.append(tuple(terms))
    return SynonymTable(rows=tuple(rows))
