"""Corpus loading, pairwise traditional-vs-modified comparison, reporting.

The reporting layer mirrors a two-phase experiment: score one anchor
document against a group of similar documents and a group of dissimilar
ones, under both weighting schemes, then summarize how much the
synonym-aware scheme moved each measure (the per-group delta) and whether
it moved similar pairs more than dissimilar ones (the gap).

Its records only carry values, so each is a ``typing.NamedTuple``:
immutable, hashable unless it holds a dict, and a tuple of its fields.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Container, Iterable, Mapping, NamedTuple

from .errors import (
    ConfigError,
    CorpusError,
    DuplicateDocumentError,
    EmptyCorpusError,
    check_choice,
)
from .lexicons import SynonymTable
from .pipeline import RawDocument, _ChunkTerms, preprocess
from .similarity import MEASURES, similarity
from .weighting import (
    Corpus,
    DocumentVector,
    ModifiedIdf,
    WeightingConfig,
    vectorize,
)

FORMATS = ("json", "csv")


class ComparisonConfig(NamedTuple):
    """Settings shared by every pair comparison in a report; a named tuple.

    ``synonym_table`` of None means "use the table the corpus was built
    with", which :meth:`weightings` alone decides; an explicitly empty
    table degrades the modified scheme to the traditional one.

    A pair is scored only over terms of its two documents, so every document
    frequency is at least one and no setting for a zero one is needed.
    """

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
            WeightingConfig(mode="traditional"),
            WeightingConfig(
                mode="modified",
                synonym_table=table,
                modified_idf=self.modified_idf,
            ),
        )


class PairResult(NamedTuple):
    """Scores of one (anchor, target) pair under one measure, in CSV column order."""

    anchor_id: str
    target_id: str
    measure: str
    traditional: float
    modified: float
    delta: float


class MeasureAverages(NamedTuple):
    """Per-measure arithmetic means over one group of pairs; a named tuple."""

    traditional: float
    modified: float
    delta: float


class ReportTable(NamedTuple):
    """All pair scores for one anchor against a target group; a named tuple."""

    anchor_id: str
    rows: tuple[PairResult, ...]
    averages: dict[str, MeasureAverages]

    @property
    def measures(self) -> tuple[str, ...]:
        return tuple(self.averages)


class DeltaEntry(NamedTuple):
    """How much the modified scheme moved one measure, per group; a named tuple."""

    similar_delta: float
    dissimilar_delta: float
    gap: float


class DeltaSummary(NamedTuple):
    """Per-measure similar/dissimilar deltas and their difference; a named tuple."""

    entries: dict[str, DeltaEntry]


def read_documents(directory) -> list[RawDocument]:
    """Raw documents from every ``.txt`` file in ``directory``.

    The file basename without extension becomes the document id, so a
    name that is not valid UTF-8 is an error. Files are returned in id order.
    """
    root = Path(directory)
    if not root.is_dir():
        raise CorpusError(f"not a readable directory: {root}")
    docs = []
    for path in sorted(root.glob("*.txt"), key=lambda p: p.stem):
        try:
            path.name.encode("utf-8")
        except UnicodeEncodeError:  # a byte the file system decoded to a lone surrogate
            raise CorpusError(f"file name {str(path)!r} is not valid UTF-8") from None
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise CorpusError(f"cannot read {path}: {exc}") from exc
        docs.append(RawDocument(id=path.stem, text=text))
    return docs


def load_corpus(
    directories,
    stopwords: Container[str],
    lexicon: Mapping[str, str],
    synonym_table: SynonymTable | None = None,
) -> Corpus:
    """Preprocess every ``.txt`` file under one or more directories.

    An entry may also be a ``(directory, documents)`` pair holding what
    :func:`read_documents` returned for that directory, so a caller that
    needs each directory's documents reads the directory only once.
    Documents are ordered by id. A directory given twice (compared after
    resolving its path), a duplicate id across directories (naming both
    files) and an entirely empty corpus are errors.
    """
    if isinstance(directories, (str, Path)):
        directories = [directories]
    names = []
    places: set[Path] = set()
    raw: list[RawDocument] = []
    seen: dict[str, str | Path] = {}  # each id's directory
    for entry in directories:
        directory, docs = entry if isinstance(entry, tuple) else (entry, None)
        place = Path(directory).resolve()
        if place in places:
            raise CorpusError(f"directory {directory} is given more than once")
        places.add(place)
        names.append(directory)
        for doc in read_documents(directory) if docs is None else docs:
            if doc.id in seen:
                first, second = (Path(d, f"{doc.id}.txt") for d in (seen[doc.id], directory))
                raise DuplicateDocumentError(
                    f"document id {doc.id!r} appears in more than one directory: "
                    f"{first} and {second}"
                )
            seen[doc.id] = directory
            raw.append(doc)
    if not raw:
        raise EmptyCorpusError(f"no .txt documents found under {names}")
    raw.sort(key=lambda d: d.id)
    terms = _ChunkTerms(stopwords, lexicon)
    processed = [preprocess(d, stopwords, lexicon, terms) for d in raw]
    return Corpus(processed, synonym_table=synonym_table)


def _measure_names(measures) -> tuple[str, ...]:
    """Each of ``measures`` once, in first-listed order, every one checked."""
    if isinstance(measures, str):
        raise ConfigError(f"measures must be an iterable of strings, not the str {measures!r}")
    names = tuple(dict.fromkeys(measures))
    if not names:
        raise ConfigError("at least one measure is required")
    for name in names:
        check_choice("measure", name, MEASURES)
    return names


def compare_pair(
    corpus: Corpus,
    id_a: str,
    id_b: str,
    measure: str,
    config: ComparisonConfig = ComparisonConfig(),
) -> PairResult:
    """Traditional and modified scores of one pair under one measure.

    An unknown ``id_a``, then an unknown ``measure``, then an unknown
    ``id_b`` is reported, as :func:`anchor_matrix` reports it, before any
    weighting.
    """
    return anchor_matrix(corpus, id_a, [id_b], [measure], config).rows[0]


def anchor_matrix(
    corpus: Corpus,
    anchor_id: str,
    target_ids: Iterable[str],
    measures: Iterable[str] = MEASURES,
    config: ComparisonConfig = ComparisonConfig(),
) -> ReportTable:
    """Score ``anchor_id`` against every target, with per-measure averages.

    ``target_ids`` and ``measures`` may be any iterables of strings; each is
    read once, and each measure is scored once, in first-listed order. Rows
    are ordered by target (in the given order), then by measure. Before any
    weighting, an unknown anchor is reported first; then a ``str`` as
    ``target_ids``, whose characters would be read as ids; then the
    measures: a ``str``, none, or an unknown name; then each unknown target
    id; then an empty target list.

    A term's weight depends on the term, the document and the weighting,
    never on the pair; the pair only keeps the union of the two documents'
    terms. So the anchor's own terms are weighted under both schemes once
    per call. Per target, the target is weighted over its own terms plus,
    in the modified scheme, the anchor's terms it lacks, and the anchor is
    weighted over the target's terms it lacks, merged into its own modified
    weights. ``vectorize`` keeps only the lacked terms that reach the
    document through their lowest synonym row, so ``resolve_count`` is
    called only for a term that resolves to a positive count. Every
    vocabulary is sorted, or two sorted runs, so each vector's one sort of
    its terms is about linear. Scores are bit-identical to weighting both
    documents over the pair union.
    """
    anchor = corpus.document(anchor_id)
    if isinstance(target_ids, str):
        raise ConfigError(f"target_ids must be an iterable of strings, not the str {target_ids!r}")
    measures = _measure_names(measures)
    targets = [corpus.document(target_id) for target_id in target_ids]
    if not targets:
        raise CorpusError(f"anchor {anchor_id!r} has no targets to compare against")
    traditional, modified = config.weightings(corpus)
    a_terms = sorted(anchor.counts)
    a_trad = vectorize(anchor, corpus, a_terms, traditional)
    a_own = vectorize(anchor, corpus, a_terms, modified)
    rows: list[PairResult] = []
    # Per measure: sums added left to right (sum() is compensated on 3.12+).
    totals = {measure: [0.0, 0.0, 0.0] for measure in measures}
    for target in targets:
        b_terms = sorted(target.counts)
        b_trad = vectorize(target, corpus, b_terms, traditional)
        a_lacks = [t for t in a_terms if t not in target.counts]
        b_mod = vectorize(target, corpus, [*b_terms, *a_lacks], modified)
        b_lacks = [t for t in b_terms if t not in anchor.counts]
        reached = vectorize(anchor, corpus, b_lacks, modified).weights
        a_mod = DocumentVector({**a_own.weights, **reached}) if reached else a_own
        for measure in measures:
            traditional_value = similarity(measure, a_trad, b_trad).value
            modified_value = similarity(measure, a_mod, b_mod).value
            delta = modified_value - traditional_value
            rows.append(
                PairResult(
                    anchor_id=anchor_id,
                    target_id=target.id,
                    measure=measure,
                    traditional=traditional_value,
                    modified=modified_value,
                    delta=delta,
                )
            )
            total = totals[measure]
            total[0] += traditional_value
            total[1] += modified_value
            total[2] += delta
    averages = {
        measure: MeasureAverages(*(total / len(targets) for total in sums))
        for measure, sums in totals.items()
    }
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

    Records are read as tuples: a table's CSV rows are its ``rows``, then
    ``(anchor, "average", measure, *averages)`` per measure. JSON rows zip
    the CSV header with each row, as ``anchor`` and ``target`` are not field
    names; JSON averages and delta entries map field names to values.
    """
    check_choice("format", format, FORMATS)
    if isinstance(report, ReportTable):
        header = ("anchor", "target", "measure", "traditional", "modified", "delta")
        averages = report.averages.items()
        payload = {
            "anchor": report.anchor_id,
            "rows": [dict(zip(header, row)) for row in report.rows],
            "averages": {m: dict(zip(a._fields, a)) for m, a in averages},
        }
        rows = [*report.rows, *((report.anchor_id, "average", m, *a) for m, a in averages)]
    elif isinstance(report, DeltaSummary):
        header = ("measure", "similar_delta", "dissimilar_delta", "gap")
        payload = {"measures": {m: dict(zip(e._fields, e)) for m, e in report.entries.items()}}
        rows = [(m, *e) for m, e in report.entries.items()]
    else:
        raise ConfigError(f"cannot render {type(report).__name__}")
    if format == "json":
        return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    # Imported here, so that a run that writes no CSV does not load it.
    import csv

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        # Every row ends in its three scores.
        writer.writerow([*row[:-3], *map(format_score, row[-3:])])
    return out.getvalue()
