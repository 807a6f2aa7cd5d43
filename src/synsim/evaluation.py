"""Corpus loading, pairwise traditional-vs-modified comparison, reporting.

The reporting layer mirrors a two-phase experiment: score one anchor
document against a group of similar documents and a group of dissimilar
ones, under both weighting schemes, then summarize how much the
synonym-aware scheme moved each measure (the per-group delta) and whether
it moved similar pairs more than dissimilar ones (the gap).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, astuple, dataclass
from pathlib import Path
from typing import Sequence

from .errors import (
    ConfigError,
    CorpusError,
    DuplicateDocumentError,
    EmptyCorpusError,
    check_choice,
)
from .lexicons import StemLexicon, StopwordList, SynonymTable
from .pipeline import RawDocument, preprocess
from .similarity import MEASURES, similarity
from .weighting import (
    Corpus,
    DocumentVector,
    ModifiedIdf,
    Smoothing,
    WeightingConfig,
    _sum_left_to_right,
    reached_terms,
    vectorize,
)

FORMATS = ("json", "csv")


@dataclass(frozen=True)
class ComparisonConfig:
    """Settings shared by every pair comparison in a report.

    ``synonym_table`` of None means "use the table the corpus was built
    with", which :meth:`weightings` alone decides; an explicitly empty
    table degrades the modified scheme to the traditional one.
    """

    smoothing: Smoothing = "plus_one_when_zero"
    modified_idf: ModifiedIdf = "resolved"
    synonym_table: SynonymTable | None = None

    def weightings(self, corpus: Corpus) -> tuple[WeightingConfig, WeightingConfig]:
        """The traditional and the modified weighting of ``corpus``.

        Built, and so checked, once per ``compare_pair`` or
        ``anchor_matrix`` call, not once per pair.
        """
        table = self.synonym_table
        if table is None:
            table = corpus.synonym_table
        return (
            WeightingConfig(mode="traditional", smoothing=self.smoothing),
            WeightingConfig(
                mode="modified",
                smoothing=self.smoothing,
                synonym_table=table,
                modified_idf=self.modified_idf,
            ),
        )


@dataclass(frozen=True)
class PairResult:
    """Scores of one (anchor, target) pair under one measure."""

    anchor_id: str
    target_id: str
    measure: str
    traditional: float
    modified: float
    delta: float


@dataclass(frozen=True)
class MeasureAverages:
    """Per-measure arithmetic means over one group of pairs."""

    traditional: float
    modified: float
    delta: float


@dataclass(frozen=True)
class ReportTable:
    """All pair scores for one anchor against a target group."""

    anchor_id: str
    rows: tuple[PairResult, ...]
    averages: dict[str, MeasureAverages]

    @property
    def measures(self) -> tuple[str, ...]:
        return tuple(self.averages)


@dataclass(frozen=True)
class DeltaEntry:
    """How much the modified scheme moved one measure, per group."""

    similar_delta: float
    dissimilar_delta: float
    gap: float


@dataclass(frozen=True)
class DeltaSummary:
    """Per-measure similar/dissimilar deltas and their difference."""

    entries: dict[str, DeltaEntry]


def read_documents(directory) -> list[RawDocument]:
    """Raw documents from every ``.txt`` file in ``directory``.

    The file basename without extension becomes the document id. Files are
    returned in id order.
    """
    root = Path(directory)
    if not root.is_dir():
        raise CorpusError(f"not a readable directory: {root}")
    docs = []
    for path in sorted(root.glob("*.txt"), key=lambda p: p.stem):
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise CorpusError(f"cannot read {path}: {exc}") from exc
        docs.append(RawDocument(id=path.stem, text=text))
    return docs


def load_corpus(
    directories,
    stopwords: StopwordList,
    lexicon: StemLexicon,
    synonym_table: SynonymTable | None = None,
) -> Corpus:
    """Preprocess every ``.txt`` file under one or more directories.

    An entry may also be a ``(directory, documents)`` pair holding what
    :func:`read_documents` returned for that directory, so a caller that
    needs each directory's documents reads the directory only once.
    Documents are ordered by id. A directory given twice (compared after
    resolving its path), a duplicate id across directories and an entirely
    empty corpus are errors.
    """
    if isinstance(directories, (str, Path)):
        directories = [directories]
    names = []
    places: set[Path] = set()
    raw: list[RawDocument] = []
    seen: set[str] = set()
    for entry in directories:
        directory, docs = entry if isinstance(entry, tuple) else (entry, None)
        place = Path(directory).resolve()
        if place in places:
            raise CorpusError(f"directory {directory} is given more than once")
        places.add(place)
        names.append(directory)
        for doc in read_documents(directory) if docs is None else docs:
            if doc.id in seen:
                raise DuplicateDocumentError(
                    f"document id {doc.id!r} appears in more than one directory"
                )
            seen.add(doc.id)
            raw.append(doc)
    if not raw:
        raise EmptyCorpusError(f"no .txt documents found under {names}")
    raw.sort(key=lambda d: d.id)
    terms: dict[str, str | None] = {}
    processed = [preprocess(d, stopwords, lexicon, terms) for d in raw]
    return Corpus(processed, synonym_table=synonym_table)


def compare_pair(
    corpus: Corpus,
    id_a: str,
    id_b: str,
    measure: str,
    config: ComparisonConfig = ComparisonConfig(),
) -> PairResult:
    """Traditional and modified scores of one pair under one measure."""
    return anchor_matrix(corpus, id_a, [id_b], [measure], config).rows[0]


def anchor_matrix(
    corpus: Corpus,
    anchor_id: str,
    target_ids: Sequence[str],
    measures: Sequence[str] = MEASURES,
    config: ComparisonConfig = ComparisonConfig(),
) -> ReportTable:
    """Score ``anchor_id`` against every target, with per-measure averages.

    Rows are ordered by target (in the given order), then by measure.

    A term's weight depends on the term, the document and the weighting,
    never on the pair; the pair only keeps the union of the two documents'
    terms. Outside its own terms, a document can carry a modified weight
    only for the terms it reaches through a synonym, which the table's
    inversion (``SynonymTable.reached_by``) lists. So the anchor's
    traditional vector and its modified weights over its own terms are
    built once, and each side of a pair adds only the other side's terms
    that it reaches; no synonym row is walked for a term that resolves to
    zero. Scores are bit-identical to weighting both documents over the
    pair union.
    """
    if not target_ids:
        raise CorpusError(f"anchor {anchor_id!r} has no targets to compare against")
    anchor = corpus.document(anchor_id)
    traditional, modified = config.weightings(corpus)
    table = modified.synonym_table
    anchor_terms = tuple(anchor.counts)
    a_trad = vectorize(anchor, corpus, anchor_terms, traditional)
    a_own = vectorize(anchor, corpus, anchor_terms, modified).weights
    a_reached = reached_terms(anchor, table)
    rows: list[PairResult] = []
    for target_id in target_ids:
        target = corpus.document(target_id)
        b_trad = vectorize(target, corpus, tuple(target.counts), traditional)
        b_reached = [t for t in reached_terms(target, table) if t in anchor.counts]
        b_mod = vectorize(target, corpus, (*target.counts, *b_reached), modified)
        a_to_target = [t for t in a_reached if t in target.counts]
        reached = vectorize(anchor, corpus, a_to_target, modified).weights
        a_mod = DocumentVector(doc_id=anchor_id, weights={**a_own, **reached})
        for measure in measures:
            traditional_value = similarity(measure, a_trad, b_trad).value
            modified_value = similarity(measure, a_mod, b_mod).value
            rows.append(
                PairResult(
                    anchor_id=anchor_id,
                    target_id=target_id,
                    measure=measure,
                    traditional=traditional_value,
                    modified=modified_value,
                    delta=modified_value - traditional_value,
                )
            )
    averages: dict[str, MeasureAverages] = {}
    for measure in measures:
        group = [r for r in rows if r.measure == measure]
        n = len(group)
        averages[measure] = MeasureAverages(
            traditional=_sum_left_to_right(r.traditional for r in group) / n,
            modified=_sum_left_to_right(r.modified for r in group) / n,
            delta=_sum_left_to_right(r.delta for r in group) / n,
        )
    return ReportTable(anchor_id=anchor_id, rows=tuple(rows), averages=averages)


def delta_summary(similar: ReportTable, dissimilar: ReportTable) -> DeltaSummary:
    """Per-measure group deltas and their gap.

    For each measure: the similar group's average modified-minus-traditional
    difference, the dissimilar group's, and similar minus dissimilar.
    """
    if set(similar.measures) != set(dissimilar.measures):
        raise ConfigError(
            "tables cover different measures: "
            f"{similar.measures} vs {dissimilar.measures}"
        )
    entries: dict[str, DeltaEntry] = {}
    for measure in similar.measures:
        s = similar.averages[measure]
        d = dissimilar.averages[measure]
        similar_delta = s.modified - s.traditional
        dissimilar_delta = d.modified - d.traditional
        entries[measure] = DeltaEntry(
            similar_delta=similar_delta,
            dissimilar_delta=dissimilar_delta,
            gap=similar_delta - dissimilar_delta,
        )
    return DeltaSummary(entries=entries)


def format_score(value: float) -> str:
    """Fixed six-decimal rendering used by CSV output and the CLI."""
    return f"{value:.6f}"


def render_report(report, format: str = "json") -> str:
    """Serialize a ReportTable or DeltaSummary deterministically.

    JSON carries full float precision and parses back to the exact stored
    values; CSV is a display format with scores rendered to six decimals.
    """
    check_choice("format", format, FORMATS)
    if isinstance(report, ReportTable):
        header = ("anchor", "target", "measure", "traditional", "modified", "delta")
        pairs = [
            (r.anchor_id, r.target_id, r.measure, r.traditional, r.modified, r.delta)
            for r in report.rows
        ]
        payload = {
            "anchor": report.anchor_id,
            "rows": [dict(zip(header, pair)) for pair in pairs],
            "averages": {m: asdict(a) for m, a in report.averages.items()},
        }
        rows = pairs + [
            (report.anchor_id, "average", m, *astuple(a))
            for m, a in report.averages.items()
        ]
    elif isinstance(report, DeltaSummary):
        header = ("measure", "similar_delta", "dissimilar_delta", "gap")
        payload = {"measures": {m: asdict(e) for m, e in report.entries.items()}}
        rows = [(m, *astuple(e)) for m, e in report.entries.items()]
    else:
        raise ConfigError(f"cannot render {type(report).__name__}")
    if format == "json":
        return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        # Every row ends in its three scores.
        writer.writerow([*row[:-3], *map(format_score, row[-3:])])
    return out.getvalue()
