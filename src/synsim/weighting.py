"""TF-IDF document vectors, traditional and synonym-aware.

The synonym-aware ("modified") scheme changes how a term's occurrence count
in a document is obtained. When the raw count is positive it is used as is
and synonyms are never consulted. When it is zero, the term's synonym row
is walked in position order and the count of the first synonym that occurs
in the document is substituted; if none occurs the count stays zero. The
resolved count feeds both components of the weight:

* term frequency uses the resolved count over the document's unchanged
  token total;
* document frequency counts a document whenever its resolved count for the
  term is positive, so a term "appears" in every document that contains
  any of its synonyms.

With an empty synonym table both schemes coincide exactly.

Weights are ``tf * log2(|D| / df)``. Since df never exceeds the corpus
size, weights are nonnegative. A df of zero (a term absent from the whole
corpus, synonyms included) is handled by the ``smoothing`` setting: the
default ``plus_one_when_zero`` replaces the zero denominator with one,
while ``none`` raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Literal, Mapping, Sequence, get_args

from .errors import (
    ConfigError,
    DuplicateDocumentError,
    EmptyCorpusError,
    UnknownDocumentError,
    ZeroDocumentFrequencyError,
    check_choice,
)
from .lexicons import SynonymTable, synonym_candidates
from .pipeline import ProcessedDocument, term_count

Mode = Literal["traditional", "modified"]
Smoothing = Literal["plus_one_when_zero", "none"]
ModifiedIdf = Literal["resolved", "raw"]

MODES = get_args(Mode)
SMOOTHINGS = get_args(Smoothing)
MODIFIED_IDFS = get_args(ModifiedIdf)


@dataclass(frozen=True)
class WeightingConfig:
    """How document vectors are to be built.

    ``modified_idf`` selects the document-frequency flavor used by the
    modified scheme: "resolved" (default) counts synonym hits into df,
    "raw" keeps the traditional df while only term frequency changes.
    """

    mode: Mode = "traditional"
    smoothing: Smoothing = "plus_one_when_zero"
    synonym_table: SynonymTable | None = None
    modified_idf: ModifiedIdf = "resolved"

    def __post_init__(self):
        check_choice("mode", self.mode, MODES)
        check_choice("smoothing", self.smoothing, SMOOTHINGS)
        check_choice("modified_idf", self.modified_idf, MODIFIED_IDFS)
        if self.mode == "modified" and self.synonym_table is None:
            raise ConfigError("mode 'modified' requires a synonym table")

    @property
    def idf_mode(self) -> Mode:
        """The document-frequency flavor behind this scheme's idf."""
        if self.mode == "modified" and self.modified_idf == "resolved":
            return "modified"
        return "traditional"


@dataclass(frozen=True)
class ResolvedCount:
    """Occurrence count after synonym resolution.

    ``matched_term`` names the synonym that supplied the count; it is None
    when the count came from the term itself or is zero.
    """

    count: int
    matched_term: str | None = None


class Corpus:
    """An ordered, immutable collection of processed documents.

    Document frequencies for both schemes are answered from an inverted
    term-to-documents index built once at construction. Idf values are
    memoised per weighting setting (see :meth:`idf_memo`) and filled
    lazily; each value is a pure function of the immutable corpus, so
    concurrent readers that race on a memo only repeat work. A corpus
    built without a synonym table holds an empty one.
    """

    def __init__(
        self,
        docs: Iterable[ProcessedDocument],
        synonym_table: SynonymTable | None = None,
    ):
        self.docs: tuple[ProcessedDocument, ...] = tuple(docs)
        if not self.docs:
            raise EmptyCorpusError("a corpus needs at least one document")
        if synonym_table is None:
            synonym_table = SynonymTable.empty()
        self.synonym_table = synonym_table
        self._by_id: dict[str, ProcessedDocument] = {}
        for doc in self.docs:
            if doc.id in self._by_id:
                raise DuplicateDocumentError(f"duplicate document id {doc.id!r}")
            self._by_id[doc.id] = doc
        postings: dict[str, list[str]] = {}
        for doc in self.docs:
            for term in doc.counts:
                postings.setdefault(term, []).append(doc.id)
        self._postings: dict[str, frozenset[str]] = {
            term: frozenset(ids) for term, ids in postings.items()
        }
        self._idf_memos: dict[tuple, dict[str, float]] = {}

    def __len__(self) -> int:
        return len(self.docs)

    def __iter__(self):
        return iter(self.docs)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._by_id

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(d.id for d in self.docs)

    @property
    def vocabulary(self) -> frozenset[str]:
        return frozenset(self._postings)

    def document(self, doc_id: str) -> ProcessedDocument:
        try:
            return self._by_id[doc_id]
        except KeyError:
            raise UnknownDocumentError(f"no document with id {doc_id!r}") from None

    def documents_with(self, term: str) -> frozenset[str]:
        """Ids of documents in which ``term`` literally occurs."""
        return self._postings.get(term, frozenset())

    def idf_memo(
        self, mode: Mode, smoothing: Smoothing, table: SynonymTable | None
    ) -> dict[str, float]:
        """Term-to-idf memo of one weighting setting, filled by :func:`vectorize`.

        Traditional idf ignores the synonym table, so its memo is shared
        by every table. A modified memo is keyed by the table itself:
        equal tables give equal idf and share it, and a table is never
        served values computed with a different one. A failed idf is not
        stored, so it fails again.
        """
        if mode == "traditional":
            table = None
        return self._idf_memos.setdefault((mode, smoothing, table), {})


def resolve_count(
    term: str,
    doc: ProcessedDocument,
    table: SynonymTable | None,
) -> ResolvedCount:
    """Occurrence count of ``term`` in ``doc``, falling back to synonyms.

    A positive raw count short-circuits; otherwise the term's synonym row
    is tried in position order and the first synonym with a positive count
    wins. No synonym row, or no synonym present, yields zero.
    """
    own = term_count(doc, term)
    if own > 0:
        return ResolvedCount(count=own)
    if table is not None:
        for candidate in synonym_candidates(table, term):
            count = term_count(doc, candidate)
            if count > 0:
                return ResolvedCount(count=count, matched_term=candidate)
    return ResolvedCount(count=0)


def reached_terms(doc: ProcessedDocument, table: SynonymTable) -> set[str]:
    """Terms outside ``doc`` whose resolved count in ``doc`` is positive.

    These are the terms whose synonym candidates hold a term of ``doc``,
    read from the table's inversion ``reached_by``; every other term
    outside ``doc`` resolves to zero there.
    """
    counts, reached_by = doc.counts, table.reached_by
    return {t for s in counts for t in reached_by.get(s, ()) if t not in counts}


def tf(count: int, total_tokens: int) -> float:
    """Term frequency: count over document size, 0 for an empty document."""
    if total_tokens == 0:
        return 0.0
    return count / total_tokens


def document_frequency(
    corpus: Corpus,
    term: str,
    mode: Mode = "traditional",
    table: SynonymTable | None = None,
) -> int:
    """Number of corpus documents in which ``term`` appears.

    Traditional mode counts literal occurrences. Modified mode counts a
    document when the term's resolved count there is positive, i.e. when
    the document contains the term or any synonym from its row in
    ``table``, which must be given; this never shrinks the traditional value.
    """
    if mode == "traditional":
        return len(corpus.documents_with(term))
    if mode != "modified":
        check_choice("mode", mode, MODES)
    if table is None:
        raise ConfigError("mode 'modified' requires a synonym table")
    matching = set(corpus.documents_with(term))
    for candidate in synonym_candidates(table, term):
        matching |= corpus.documents_with(candidate)
    return len(matching)


def idf(
    corpus: Corpus,
    term: str,
    mode: Mode = "traditional",
    smoothing: Smoothing = "plus_one_when_zero",
    table: SynonymTable | None = None,
) -> float:
    """Inverse document frequency, log base 2.

    The denominator is the document frequency (modified mode needs
    ``table``); only when it is zero does ``plus_one_when_zero`` substitute
    one (always adding one would push corpus-wide terms to negative weight).
    """
    df = document_frequency(corpus, term, mode, table)
    if df == 0:
        if smoothing == "none":
            raise ZeroDocumentFrequencyError(term)
        check_choice("smoothing", smoothing, SMOOTHINGS)
        df = 1
    return math.log2(len(corpus) / df)


def _sum_left_to_right(values: Iterable[float]) -> float:
    # Built-in sum() of floats is compensated since Python 3.12; adding left
    # to right keeps every score the same bits on every Python version.
    total = 0.0
    for value in values:
        total += value
    return total


def build_vocabulary(a: ProcessedDocument, b: ProcessedDocument) -> tuple[str, ...]:
    """Shared component order for a document pair: sorted union of terms."""
    return tuple(sorted(set(a.counts) | set(b.counts)))


@dataclass(frozen=True)
class DocumentVector:
    """Sparse TF-IDF vector; terms missing from ``weights`` are zero."""

    doc_id: str
    weights: Mapping[str, float] = field(default_factory=dict)

    def get(self, term: str) -> float:
        return self.weights.get(term, 0.0)

    @cached_property
    def norm_squared(self) -> float:
        """Sum of the squared weights in sorted term order, computed once."""
        w = self.weights
        return _sum_left_to_right(w[t] * w[t] for t in sorted(w))


def vectorize(
    doc: ProcessedDocument,
    corpus: Corpus,
    vocabulary: Sequence[str],
    config: WeightingConfig,
) -> DocumentVector:
    """TF-IDF vector of ``doc`` over ``vocabulary``.

    In modified mode the synonym-resolved count feeds tf, and idf uses the
    resolved document frequency (unless ``modified_idf`` is "raw"). Zero
    weights are not stored. Each term's idf is computed once per corpus
    and setting, and read from :meth:`Corpus.idf_memo` afterwards.
    """
    modified = config.mode == "modified"
    idf_mode = config.idf_mode
    idfs = corpus.idf_memo(idf_mode, config.smoothing, config.synonym_table)
    weights: dict[str, float] = {}
    for term in vocabulary:
        count = term_count(doc, term)
        if count == 0 and modified:
            count = resolve_count(term, doc, config.synonym_table).count
        if count == 0:
            continue
        term_idf = idfs.get(term)
        if term_idf is None:
            term_idf = idfs[term] = idf(
                corpus, term, idf_mode, config.smoothing, config.synonym_table
            )
        weight = tf(count, doc.total_tokens) * term_idf
        if weight != 0.0:
            weights[term] = weight
    return DocumentVector(doc_id=doc.id, weights=weights)
