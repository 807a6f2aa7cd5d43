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
corpus, synonyms included) reaches :func:`vectorize` only from a document
outside the corpus, and it divides by one there (``plus_one_when_zero``
smoothing); :func:`idf` also takes ``none``, which raises.
"""

from __future__ import annotations

import math
from collections import defaultdict
from functools import cached_property
from typing import Iterable, Literal, Mapping, NamedTuple, Sequence, get_args

from .errors import (
    ConfigError,
    DuplicateDocumentError,
    EmptyCorpusError,
    UnknownDocumentError,
    ZeroDocumentFrequencyError,
    check_choice,
)
from .lexicons import SynonymTable
from .pipeline import ProcessedDocument, _Frozen

Mode = Literal["traditional", "modified"]
Smoothing = Literal["plus_one_when_zero", "none"]
ModifiedIdf = Literal["resolved", "raw"]

MODES = get_args(Mode)
SMOOTHINGS = get_args(Smoothing)
MODIFIED_IDFS = get_args(ModifiedIdf)


class WeightingConfig(_Frozen):
    """How document vectors are to be built.

    ``modified_idf`` selects the document-frequency flavor used by the
    modified scheme: "resolved" (default) counts synonym hits into df,
    "raw" keeps the traditional df while only term frequency changes.
    A df of zero is always smoothed to one (see :func:`vectorize`).
    """

    _fields = __match_args__ = ("mode", "synonym_table", "modified_idf")

    def __init__(
        self,
        mode: Mode = "traditional",
        synonym_table: SynonymTable | None = None,
        modified_idf: ModifiedIdf = "resolved",
    ):
        check_choice("mode", mode, MODES)
        check_choice("modified_idf", modified_idf, MODIFIED_IDFS)
        if mode == "modified" and synonym_table is None:
            raise ConfigError("mode 'modified' requires a synonym table")
        self.__dict__.update(mode=mode, synonym_table=synonym_table, modified_idf=modified_idf)

    @property
    def idf_mode(self) -> Mode:
        """The document-frequency flavor behind this scheme's idf."""
        if self.mode == "modified" and self.modified_idf == "resolved":
            return "modified"
        return "traditional"


class ResolvedCount(NamedTuple):
    """Occurrence count after synonym resolution; a named tuple.

    ``matched_term`` names the synonym that supplied the count; it is None
    when the count came from the term itself or is zero.
    """

    count: int
    matched_term: str | None = None


class Corpus:
    """An ordered, immutable collection of processed documents.

    ``postings``, built once at construction, is a plain dict that maps
    each term to the ids of the documents holding it, in corpus order. It
    answers document frequencies for both schemes and, like ``doc.counts``,
    is public to read and must not be mutated. Idf values are memoised per
    df flavor and table (see :meth:`idf_memo`), and modified document
    frequencies per synonym row (see :func:`document_frequency`); both fill
    lazily. Each value is a pure function of the immutable corpus, so
    concurrent readers that race on a memo only repeat work. A corpus built
    without a synonym table holds an empty one.
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
        by_id: dict[str, ProcessedDocument] = {}
        postings: defaultdict[str, list[str]] = defaultdict(list)
        for doc in self.docs:
            doc_id = doc.id
            if doc_id in by_id:
                raise DuplicateDocumentError(f"duplicate document id {doc_id!r}")
            by_id[doc_id] = doc
            for term in doc.counts:
                postings[term].append(doc_id)
        self._by_id = by_id
        # A plain dict, so that looking up an absent term adds no entry.
        self.postings: dict[str, list[str]] = dict(postings)
        self._idf_memos: dict[tuple, dict[str, float]] = {}
        self._row_dfs: dict[int, tuple[tuple[str, ...], int]] = {}

    def __len__(self) -> int:
        return len(self.docs)

    def __iter__(self):
        return iter(self.docs)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(d.id for d in self.docs)

    @property
    def vocabulary(self) -> frozenset[str]:
        return frozenset(self.postings)

    def document(self, doc_id: str) -> ProcessedDocument:
        try:
            return self._by_id[doc_id]
        except KeyError:
            raise UnknownDocumentError(f"no document with id {doc_id!r}") from None

    def idf_memo(self, mode: Mode, table: SynonymTable | None) -> dict[str, float]:
        """Term-to-idf memo of one df flavor, filled by :func:`vectorize`.

        Traditional idf ignores the synonym table, so its memo is shared
        by every table. A modified memo is keyed by the table itself:
        equal tables give equal idf and share it, and a table is never
        served values computed with a different one.
        """
        if mode == "traditional":
            table = None
        return self._idf_memos.setdefault((mode, table), {})


def resolve_count(
    term: str,
    doc: ProcessedDocument,
    table: SynonymTable | None,
) -> ResolvedCount:
    """Occurrence count of ``term`` in ``doc``, falling back to synonyms.

    A positive raw count short-circuits; otherwise the term's lowest row
    (``table.row_of``) is walked in position order, stopping at the first
    term with a positive count. The term itself counts zero there, so the
    winner is another term; a term in no row, or with no row term present,
    yields zero. ``table`` is required, as in modified
    :func:`document_frequency`. :func:`vectorize` calls it only for a
    missing term whose row has a term in ``doc``, so only for a hit.
    """
    if table is None:
        raise ConfigError("mode 'modified' requires a synonym table")
    own = doc.counts.get(term, 0)
    if own > 0:
        return ResolvedCount(count=own)
    for synonym in table.row_of.get(term, ()):
        count = doc.counts.get(synonym, 0)
        if count > 0:
            return ResolvedCount(count=count, matched_term=synonym)
    return ResolvedCount(count=0)


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

    So every term whose lowest row is the same has the same modified df:
    the size of the union of the row's posting lists. It is computed once
    per corpus and row object and memoised on the corpus under the row's
    ``id``, so a lookup costs the same however wide the row; the entry
    keeps the row alive, so no other object can take that id meanwhile.
    Tables built from the same row objects share entries; equal rows of
    separately loaded tables get one each, which repeats work but never
    changes a value. A term in no row has its traditional df, unmemoised.
    """
    postings = corpus.postings
    if mode == "traditional":
        return len(postings.get(term, ()))
    if mode != "modified":
        check_choice("mode", mode, MODES)
    if table is None:
        raise ConfigError("mode 'modified' requires a synonym table")
    row = table.row_of.get(term)
    if row is None:
        return len(postings.get(term, ()))
    entry = corpus._row_dfs.get(id(row))
    if entry is None:
        df = len(set().union(*(postings.get(t, ()) for t in row)))
        entry = corpus._row_dfs[id(row)] = (row, df)
    return entry[1]


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
    one (always adding one would push corpus-wide terms to negative weight),
    while ``none`` raises. A term found in any corpus document has a df of
    at least one, so smoothing matters only for terms absent from the corpus.
    """
    check_choice("smoothing", smoothing, SMOOTHINGS)
    df = document_frequency(corpus, term, mode, table)
    if df == 0:
        if smoothing == "none":
            raise ZeroDocumentFrequencyError(term)
        df = 1
    return math.log2(len(corpus) / df)


def build_vocabulary(a: ProcessedDocument, b: ProcessedDocument) -> tuple[str, ...]:
    """Shared component order for a document pair: sorted union of terms."""
    return tuple(sorted(set(a.counts) | set(b.counts)))


class DocumentVector(_Frozen):
    """Sparse TF-IDF vector: ``weights``, its only field; missing terms are zero.

    ``weights`` defaults to a new empty dict. Its stored terms in sorted
    order are found once, on first use, and shared by :attr:`norm_squared`
    and every dot product that walks them.
    """

    _fields = __match_args__ = ("weights",)

    def __init__(self, weights: Mapping[str, float] | None = None):
        self.__dict__["weights"] = {} if weights is None else weights

    def get(self, term: str) -> float:
        return self.weights.get(term, 0.0)

    @cached_property
    def _terms(self) -> tuple[str, ...]:
        return tuple(sorted(self.weights))

    @cached_property
    def norm_squared(self) -> float:
        """Sum of the squared weights in sorted term order, computed once.

        One plain loop adds them, as in :func:`~synsim.similarity.dot`.
        """
        weights, total = self.weights, 0.0
        for term in self._terms:
            weight = weights[term]
            total += weight * weight
        return total


def vectorize(
    doc: ProcessedDocument,
    corpus: Corpus,
    vocabulary: Sequence[str],
    config: WeightingConfig,
) -> DocumentVector:
    """TF-IDF vector of ``doc`` over ``vocabulary``.

    In modified mode the synonym-resolved count feeds tf, and idf uses the
    resolved document frequency (unless ``modified_idf`` is "raw"). A term
    ``doc`` lacks reaches it only when the term's lowest row
    (``table.row_of``) has a term in ``doc``; only such a term is passed to
    :func:`resolve_count`, so every resolved count is positive. A term
    of df 0, which only a document outside ``corpus`` can hold, has its df
    smoothed to one. Zero weights are not stored. Each term's idf is
    computed once per corpus, df flavor and table, and read from
    :meth:`Corpus.idf_memo` afterwards.

    The weights keep ``vocabulary`` order. The vector sorts its terms once,
    on first use, so a sorted ``vocabulary`` makes that sort about linear.
    """
    idf_mode, table = config.idf_mode, config.synonym_table
    idfs = corpus.idf_memo(idf_mode, table)
    counts, total = doc.counts, doc.total_tokens
    present = counts.keys()
    row_of = table.row_of if config.mode == "modified" else {}
    weights: dict[str, float] = {}
    for term in vocabulary:
        count = counts.get(term)
        if count is None:
            # Every count is at least one, so a missing term resolves to a
            # positive count exactly when its lowest row has a term here.
            row = row_of.get(term)
            if row is None or present.isdisjoint(row):
                continue
            count = resolve_count(term, doc, table).count
        term_idf = idfs.get(term)
        if term_idf is None:
            term_idf = idfs[term] = idf(corpus, term, idf_mode, "plus_one_when_zero", table)
        # A positive count means a nonempty document, so this is tf().
        weight = count / total * term_idf
        if weight != 0.0:
            weights[term] = weight
    return DocumentVector(weights)
