"""Corpus loading, pair comparison, report tables, delta summaries, rendering."""

import io
import json
import sys
import threading
from pathlib import Path

import pytest

import synsim.pipeline
import synsim.weighting
from synsim import (
    ComparisonConfig,
    ConfigError,
    Corpus,
    CorpusError,
    DeltaEntry,
    DeltaSummary,
    DuplicateDocumentError,
    EmptyCorpusError,
    MeasureAverages,
    PairResult,
    ReportTable,
    SynonymTable,
    UnknownDocumentError,
    anchor_matrix,
    compare_pair,
    delta_summary,
    format_score,
    load_corpus,
    load_synonym_table,
    preprocess,
    read_documents,
    render_report,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
TRANSIT = FIXTURES / "corpus" / "transit"
ORCHARD = FIXTURES / "corpus" / "orchard"
EMPTY_STOPS = frozenset()
EMPTY_LEX = {}


def write_corpus(root, files: dict):
    root.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (root / f"{name}.txt").write_text(text, encoding="utf-8")
    return root


@pytest.fixture
def planted(tmp_path):
    """Four tiny documents with one synonym pair planted across q and d."""
    directory = write_corpus(
        tmp_path / "corpus",
        {"q": "alpha shared", "d": "beta shared", "f1": "filler", "f2": "noise"},
    )
    table = load_synonym_table(io.StringIO("alpha,beta\n"))
    corpus = load_corpus(directory, EMPTY_STOPS, EMPTY_LEX, synonym_table=table)
    return corpus


def test_read_documents_sorted_ids(tmp_path):
    directory = write_corpus(tmp_path / "c", {"b": "x", "a": "y"})
    docs = read_documents(directory)
    assert [d.id for d in docs] == ["a", "b"]
    assert docs[0].text == "y"


def test_read_documents_orders_by_id_not_file_name(tmp_path):
    # "a-b.txt" sorts before "a.txt", but the id "a" sorts before "a-b".
    directory = write_corpus(tmp_path / "c", {"c": "x", "a-b": "y", "a": "z"})
    assert [d.id for d in read_documents(directory)] == ["a", "a-b", "c"]


def test_read_documents_missing_directory(tmp_path):
    with pytest.raises(CorpusError):
        read_documents(tmp_path / "nope")


def test_load_corpus_basic(tmp_path):
    directory = write_corpus(tmp_path / "c", {"a1": "x y", "a2": "y z"})
    corpus = load_corpus(directory, EMPTY_STOPS, EMPTY_LEX)
    assert len(corpus) == 2
    assert corpus.ids == ("a1", "a2")


def test_load_corpus_equals_per_document_preprocess(
    fixture_corpus, fixture_stopwords, fixture_lexicon
):
    # load_corpus shares one token memo across documents; each document
    # must still equal preprocess with a memo of its own, counts order too.
    raw = sorted(read_documents(TRANSIT) + read_documents(ORCHARD), key=lambda d: d.id)
    expected = [preprocess(d, fixture_stopwords, fixture_lexicon) for d in raw]

    def listed(docs):
        return [(d.id, list(d.counts.items()), d.total_tokens) for d in docs]

    assert listed(fixture_corpus) == listed(expected)


def test_load_corpus_analyses_each_distinct_chunk_once(tmp_path, monkeypatch):
    # "y," comes before "y" and is analysed through its token "y"; "x,"
    # comes after "x" and takes its memo entry; "x-y" finds both tokens held.
    # So each distinct word is normalized once.
    directory = write_corpus(
        tmp_path / "c", {"a": "x y, x x-y", "b": "y, z x-y x,", "c": "x y y, Z x,"}
    )
    seen = []
    normalize = synsim.pipeline.normalize

    def counted(word):
        seen.append(word)
        return normalize(word)

    monkeypatch.setattr(synsim.pipeline, "normalize", counted)
    load_corpus(directory, EMPTY_STOPS, EMPTY_LEX)
    assert sorted(seen) == ["Z", "x", "y", "z"]


def test_load_corpus_duplicate_ids_across_directories(tmp_path):
    one = write_corpus(tmp_path / "one", {"a": "x"})
    two = write_corpus(tmp_path / "two", {"a": "y"})
    with pytest.raises(DuplicateDocumentError):
        load_corpus([one, two], EMPTY_STOPS, EMPTY_LEX)


def test_load_corpus_names_a_directory_given_twice(tmp_path):
    one = write_corpus(tmp_path / "one", {"a": "x"})
    two = write_corpus(tmp_path / "two", {"b": "y"})
    roundabout = two / ".." / "two"
    with pytest.raises(CorpusError, match="given more than once") as err:
        load_corpus([one, two, roundabout], EMPTY_STOPS, EMPTY_LEX)
    assert not isinstance(err.value, DuplicateDocumentError)
    assert str(roundabout) in str(err.value)


def test_load_corpus_no_documents(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(EmptyCorpusError):
        load_corpus(empty, EMPTY_STOPS, EMPTY_LEX)


def test_compare_pair_identical_documents(tmp_path):
    directory = write_corpus(tmp_path / "c", {"a": "x y z", "b": "x y z", "c": "w"})
    corpus = load_corpus(directory, EMPTY_STOPS, EMPTY_LEX)
    for measure in ("cosine", "jaccard", "dice"):
        result = compare_pair(corpus, "a", "b", measure)
        assert result.traditional == pytest.approx(1.0, abs=1e-12)
        assert result.modified == pytest.approx(1.0, abs=1e-12)


def test_compare_pair_empty_table_zero_delta(fixture_corpus):
    config = ComparisonConfig(synonym_table=SynonymTable.empty())
    for measure in ("cosine", "jaccard", "dice"):
        result = compare_pair(fixture_corpus, "a01", "b01", measure, config)
        assert result.delta == 0.0


def test_compare_pair_scores_do_not_depend_on_table_order(planted):
    # The corpus table, then an explicit empty one, then the corpus table
    # again: each call is scored with its own table's idf only.
    empty = ComparisonConfig(synonym_table=SynonymTable.empty())
    for measure in ("cosine", "jaccard", "dice"):
        first = compare_pair(planted, "q", "d", measure)
        without = compare_pair(planted, "q", "d", measure, empty)
        again = compare_pair(planted, "q", "d", measure)
        assert first == again
        assert first.modified > first.traditional
        assert without.modified == without.traditional == first.traditional


def test_compare_pair_planted_synonym_boost(planted):
    for measure in ("cosine", "jaccard", "dice"):
        result = compare_pair(planted, "q", "d", measure)
        assert result.modified > result.traditional
        assert result.delta == pytest.approx(
            result.modified - result.traditional, abs=1e-12
        )


def test_compare_pair_unknown_id(planted):
    with pytest.raises(UnknownDocumentError):
        compare_pair(planted, "q", "missing", "cosine")


def test_anchor_matrix_looks_up_an_absent_anchor_before_its_targets(planted):
    with pytest.raises(UnknownDocumentError):
        anchor_matrix(planted, "missing", [])


def test_anchor_matrix_single_target_averages(planted):
    table = anchor_matrix(planted, "q", ["d"])
    for measure, averages in table.averages.items():
        row = next(r for r in table.rows if r.measure == measure)
        assert averages.traditional == row.traditional
        assert averages.modified == row.modified
        assert averages.delta == row.delta


def test_anchor_matrix_row_order(fixture_corpus):
    targets = ["a03", "a02", "a04"]
    table = anchor_matrix(fixture_corpus, "a01", targets, measures=("cosine", "dice"))
    assert [r.target_id for r in table.rows] == [
        "a03", "a03", "a02", "a02", "a04", "a04",
    ]
    assert [r.measure for r in table.rows[:2]] == ["cosine", "dice"]


def test_anchor_matrix_averages_match_recomputation(fixture_corpus):
    targets = [f"a{i:02d}" for i in range(2, 11)]
    table = anchor_matrix(fixture_corpus, "a01", targets)
    assert len(table.rows) == 9 * 3
    for measure, averages in table.averages.items():
        group = [r for r in table.rows if r.measure == measure]
        assert averages.traditional == pytest.approx(
            sum(r.traditional for r in group) / 9, abs=1e-9
        )
        assert averages.delta == pytest.approx(
            sum(r.delta for r in group) / 9, abs=1e-9
        )


def test_anchor_matrix_resolves_only_terms_that_hit(fixture_corpus, monkeypatch):
    # Each side of a pair resolves only the other side's terms that it
    # reaches through a synonym, so no synonym row is walked in vain.
    results = []
    resolve_count = synsim.weighting.resolve_count

    def recorded(*args, **kwargs):
        result = resolve_count(*args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(synsim.weighting, "resolve_count", recorded)
    targets = [i for i in fixture_corpus.ids if i != "a01"]
    anchor_matrix(fixture_corpus, "a01", targets)
    assert results
    assert all(r.count > 0 and r.matched_term is not None for r in results)


def test_anchor_matrix_no_targets(planted):
    with pytest.raises(CorpusError):
        anchor_matrix(planted, "q", [])


def test_concurrent_readers_share_the_idf_memos(fixture_corpus):
    # Threads fill one corpus's memos at once; a race may only repeat work.
    want = anchor_matrix(fixture_corpus, "a01", fixture_corpus.ids)
    corpus = Corpus(fixture_corpus.docs, synonym_table=fixture_corpus.synonym_table)
    results = []
    threads = [
        threading.Thread(target=lambda: results.append(anchor_matrix(corpus, "a01", corpus.ids)))
        for _ in range(6)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [want] * len(threads)


def single_measure_table(anchor, traditional, modified) -> ReportTable:
    row = PairResult(
        anchor_id=anchor,
        target_id="t",
        measure="cosine",
        traditional=traditional,
        modified=modified,
        delta=modified - traditional,
    )
    averages = {
        "cosine": MeasureAverages(
            traditional=traditional, modified=modified, delta=modified - traditional
        )
    }
    return ReportTable(anchor_id=anchor, rows=(row,), averages=averages)


def test_delta_summary_hand_example():
    similar = single_measure_table("a", 0.77, 0.79)
    dissimilar = single_measure_table("a", 0.049, 0.061)
    summary = delta_summary(similar, dissimilar)
    entry = summary.entries["cosine"]
    assert entry.similar_delta == pytest.approx(0.020, abs=1e-9)
    assert entry.dissimilar_delta == pytest.approx(0.012, abs=1e-9)
    assert entry.gap == pytest.approx(0.008, abs=1e-9)


def test_delta_summary_identical_tables():
    table = single_measure_table("a", 0.5, 0.6)
    summary = delta_summary(table, table)
    assert summary.entries["cosine"].gap == 0.0


def test_delta_summary_measure_mismatch():
    similar = single_measure_table("a", 0.5, 0.6)
    dissimilar = ReportTable(anchor_id="a", rows=(), averages={})
    with pytest.raises(ConfigError):
        delta_summary(similar, dissimilar)


def test_delta_summary_gap_recomputable(fixture_corpus):
    similar = anchor_matrix(fixture_corpus, "a01", [f"a{i:02d}" for i in range(2, 11)])
    dissimilar = anchor_matrix(fixture_corpus, "a01", [f"b{i:02d}" for i in range(1, 11)])
    summary = delta_summary(similar, dissimilar)
    for entry in summary.entries.values():
        assert entry.gap == entry.similar_delta - entry.dissimilar_delta


def test_format_score():
    assert format_score(0.5) == "0.500000"
    assert format_score(1 / 3) == "0.333333"


def test_render_json_round_trips_exactly(planted):
    table = anchor_matrix(planted, "q", ["d", "f1", "f2"])
    rendered = render_report(table, "json")
    parsed = json.loads(rendered)
    assert parsed["anchor"] == "q"
    for row, parsed_row in zip(table.rows, parsed["rows"]):
        assert parsed_row["traditional"] == row.traditional
        assert parsed_row["modified"] == row.modified
        assert parsed_row["delta"] == row.delta


def test_render_csv_columns_and_average_rows(planted):
    table = anchor_matrix(planted, "q", ["d"], measures=("cosine",))
    rendered = render_report(table, "csv")
    lines = rendered.splitlines()
    assert lines[0] == "anchor,target,measure,traditional,modified,delta"
    assert lines[1].startswith("q,d,cosine,")
    assert lines[2].startswith("q,average,cosine,")
    assert len(lines) == 3


def test_render_empty_table_is_header_only():
    table = ReportTable(anchor_id="a", rows=(), averages={})
    assert render_report(table, "csv") == "anchor,target,measure,traditional,modified,delta\n"


def test_render_delta_summary_csv():
    summary = DeltaSummary(
        entries={"cosine": DeltaEntry(similar_delta=0.02, dissimilar_delta=0.012, gap=0.008)}
    )
    rendered = render_report(summary, "csv")
    assert rendered == (
        "measure,similar_delta,dissimilar_delta,gap\n"
        "cosine,0.020000,0.012000,0.008000\n"
    )


def test_render_deterministic(planted):
    table = anchor_matrix(planted, "q", ["d", "f1"])
    for fmt in ("json", "csv"):
        assert render_report(table, fmt) == render_report(table, fmt)


def test_render_unknown_format(planted):
    table = anchor_matrix(planted, "q", ["d"])
    with pytest.raises(ConfigError):
        render_report(table, "yaml")
