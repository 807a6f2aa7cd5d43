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
from .weighting import Corpus, Smoothing, WeightingConfig, build_vocabulary, vectorize

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

    def table_for(self, corpus: Corpus) -> SynonymTable:
        # An explicitly empty table is falsy, so test against None.
        if self.synonym_table is not None:
            return self.synonym_table
        return corpus.synonym_table


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
    processed = [preprocess(d, stopwords, lexicon) for d in raw]
    return Corpus(processed, synonym_table=synonym_table)


def _pair_results(
    corpus: Corpus,
    id_a: str,
    id_b: str,
    measures: Sequence[str],
    config: ComparisonConfig,
) -> list[PairResult]:
    """Score one pair under every requested measure, vectorizing once."""
    doc_a = corpus.document(id_a)
    doc_b = corpus.document(id_b)
    vocabulary = build_vocabulary(doc_a, doc_b)
    table = config.table_for(corpus)
    traditional_config = WeightingConfig(
        mode="traditional", smoothing=config.smoothing
    )
    modified_config = WeightingConfig(
        mode="modified",
        smoothing=config.smoothing,
        synonym_table=table,
        modified_idf=config.modified_idf,
    )
    a_trad = vectorize(doc_a, corpus, vocabulary, traditional_config)
    b_trad = vectorize(doc_b, corpus, vocabulary, traditional_config)
    a_mod = vectorize(doc_a, corpus, vocabulary, modified_config)
    b_mod = vectorize(doc_b, corpus, vocabulary, modified_config)
    results = []
    for measure in measures:
        traditional = similarity(measure, a_trad, b_trad).value
        modified = similarity(measure, a_mod, b_mod).value
        results.append(
            PairResult(
                anchor_id=id_a,
                target_id=id_b,
                measure=measure,
                traditional=traditional,
                modified=modified,
                delta=modified - traditional,
            )
        )
    return results


def compare_pair(
    corpus: Corpus,
    id_a: str,
    id_b: str,
    measure: str,
    config: ComparisonConfig = ComparisonConfig(),
) -> PairResult:
    """Traditional and modified scores of one pair under one measure."""
    return _pair_results(corpus, id_a, id_b, [measure], config)[0]


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
    rows: list[PairResult] = []
    for target_id in target_ids:
        rows.extend(_pair_results(corpus, anchor_id, target_id, measures, config))
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
