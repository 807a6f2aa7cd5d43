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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

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
    Smoothing,
    WeightingConfig,
    build_vocabulary,
    vectorize,
)

FORMATS = ("json", "csv")


@dataclass(frozen=True)
class ComparisonConfig:
    """Settings shared by every pair comparison in a report.

    ``synonym_table`` of None means "use the table the corpus was built
    with"; an explicitly empty table degrades the modified scheme to the
    traditional one.
    """

    smoothing: Smoothing = "plus_one_when_zero"
    modified_idf: str = "resolved"
    synonym_table: SynonymTable | None = None

    def weightings(self, corpus: Corpus) -> tuple[WeightingConfig, WeightingConfig]:
        """The traditional and the modified weighting of ``corpus``.

        Built, and so checked, once per ``compare_pair`` or
        ``anchor_matrix`` call, not once per pair.
        """
        # An explicitly empty table is falsy, so test against None.
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
    for path in sorted(root.glob("*.txt")):
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
    Documents are ordered by id; a duplicate id across directories is an
    error, as is an entirely empty corpus.
    """
    if isinstance(directories, (str, Path)):
        directories = [directories]
    names = []
    raw: list[RawDocument] = []
    seen: set[str] = set()
    for entry in directories:
        if isinstance(entry, tuple):
            directory, docs = entry
        else:
            directory, docs = entry, read_documents(entry)
        names.append(directory)
        for doc in docs:
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


def _anchor_scorer(
    corpus: Corpus,
    anchor_id: str,
    measures: Sequence[str],
    config: ComparisonConfig,
) -> Callable[[str], list[PairResult]]:
    """Scorer of ``anchor_id`` against one target at a time, every measure.

    A term's weight depends on the term, the document and the weighting,
    never on the pair; the pair only keeps the union of the two documents'
    terms. So the anchor's traditional vector and its modified weights over
    its own terms are built once, and each target adds only the target's
    terms that the anchor reaches through a synonym.
    """
    anchor = corpus.document(anchor_id)
    traditional, modified = config.weightings(corpus)
    anchor_terms = tuple(anchor.counts)
    a_trad = vectorize(anchor, corpus, anchor_terms, traditional)
    a_own = vectorize(anchor, corpus, anchor_terms, modified).weights

    def score(target_id: str) -> list[PairResult]:
        target = corpus.document(target_id)
        b_trad = vectorize(target, corpus, tuple(target.counts), traditional)
        b_mod = vectorize(target, corpus, build_vocabulary(anchor, target), modified)
        target_only = tuple(t for t in target.counts if t not in anchor.counts)
        reached = vectorize(anchor, corpus, target_only, modified).weights
        a_mod = DocumentVector(doc_id=anchor_id, weights={**a_own, **reached})
        results = []
        for measure in measures:
            traditional_value = similarity(measure, a_trad, b_trad).value
            modified_value = similarity(measure, a_mod, b_mod).value
            results.append(
                PairResult(
                    anchor_id=anchor_id,
                    target_id=target_id,
                    measure=measure,
                    traditional=traditional_value,
                    modified=modified_value,
                    delta=modified_value - traditional_value,
                )
            )
        return results

    return score


def compare_pair(
    corpus: Corpus,
    id_a: str,
    id_b: str,
    measure: str,
    config: ComparisonConfig = ComparisonConfig(),
) -> PairResult:
    """Traditional and modified scores of one pair under one measure."""
    return _anchor_scorer(corpus, id_a, [measure], config)(id_b)[0]


def anchor_matrix(
    corpus: Corpus,
    anchor_id: str,
    target_ids: Sequence[str],
    measures: Sequence[str] = MEASURES,
    config: ComparisonConfig = ComparisonConfig(),
) -> ReportTable:
    """Score ``anchor_id`` against every target, with per-measure averages.

    Rows are ordered by target (in the given order), then by measure.
    """
    if not target_ids:
        raise CorpusError(f"anchor {anchor_id!r} has no targets to compare against")
    score = _anchor_scorer(corpus, anchor_id, measures, config)
    rows: list[PairResult] = []
    for target_id in target_ids:
        rows.extend(score(target_id))
    averages: dict[str, MeasureAverages] = {}
    for measure in measures:
        group = [r for r in rows if r.measure == measure]
        n = len(group)
        averages[measure] = MeasureAverages(
            traditional=sum(r.traditional for r in group) / n,
            modified=sum(r.modified for r in group) / n,
            delta=sum(r.delta for r in group) / n,
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
    if format == "json":
        return _render_json(report)
    return _render_csv(report)


def _render_json(report) -> str:
    if isinstance(report, ReportTable):
        payload = {
            "anchor": report.anchor_id,
            "rows": [
                {
                    "anchor": r.anchor_id,
                    "target": r.target_id,
                    "measure": r.measure,
                    "traditional": r.traditional,
                    "modified": r.modified,
                    "delta": r.delta,
                }
                for r in report.rows
            ],
            "averages": {
                measure: {
                    "traditional": a.traditional,
                    "modified": a.modified,
                    "delta": a.delta,
                }
                for measure, a in report.averages.items()
            },
        }
    elif isinstance(report, DeltaSummary):
        payload = {
            "measures": {
                measure: {
                    "similar_delta": e.similar_delta,
                    "dissimilar_delta": e.dissimilar_delta,
                    "gap": e.gap,
                }
                for measure, e in report.entries.items()
            }
        }
    else:
        raise ConfigError(f"cannot render {type(report).__name__}")
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


def _render_csv(report) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if isinstance(report, ReportTable):
        writer.writerow(["anchor", "target", "measure", "traditional", "modified", "delta"])
        for r in report.rows:
            writer.writerow(
                [
                    r.anchor_id,
                    r.target_id,
                    r.measure,
                    format_score(r.traditional),
                    format_score(r.modified),
                    format_score(r.delta),
                ]
            )
        for measure, a in report.averages.items():
            writer.writerow(
                [
                    report.anchor_id,
                    "average",
                    measure,
                    format_score(a.traditional),
                    format_score(a.modified),
                    format_score(a.delta),
                ]
            )
    elif isinstance(report, DeltaSummary):
        writer.writerow(["measure", "similar_delta", "dissimilar_delta", "gap"])
        for measure, e in report.entries.items():
            writer.writerow(
                [
                    measure,
                    format_score(e.similar_delta),
                    format_score(e.dissimilar_delta),
                    format_score(e.gap),
                ]
            )
    else:
        raise ConfigError(f"cannot render {type(report).__name__}")
    return out.getvalue()
