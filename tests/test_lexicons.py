"""Lexicon file loading: stopwords, stem table, synonym table."""

import io
from dataclasses import fields

import pytest

from synsim import (
    LexiconFormatError,
    StemLexicon,
    SynonymRow,
    SynonymTable,
    load_stem_lexicon,
    load_stopwords,
    load_synonym_table,
    synonym_candidates,
)


def test_load_stopwords_basic():
    stops = load_stopwords(io.StringIO("ай\nал\n"))
    assert "ай" in stops
    assert "ал" in stops
    assert "мұнай" not in stops


def test_load_stopwords_empty_stream():
    stops = load_stopwords(io.StringIO(""))
    assert "anything" not in stops


def test_load_stopwords_normalizes_and_dedupes():
    stops = load_stopwords(io.StringIO("Ал\nал\n"))
    assert len(stops.words) == 1
    assert "ал" in stops


def test_load_stopwords_skips_comments_and_blanks():
    stops = load_stopwords(io.StringIO("# header\n\nthe\n"))
    assert stops.words == frozenset({"the"})


def test_load_stem_lexicon_single_entry():
    lex = load_stem_lexicon(io.StringIO("кітаптар\tкітап\n"))
    assert lex.lookup("кітаптар") == "кітап"
    assert lex.lookup("кітап") is None


def test_load_stem_lexicon_last_write_wins():
    lex = load_stem_lexicon(io.StringIO("a\tb\na\tc\n"))
    assert lex.lookup("a") == "c"


def test_load_stem_lexicon_missing_tab_is_an_error():
    with pytest.raises(LexiconFormatError) as err:
        load_stem_lexicon(io.StringIO("a b\n"))
    assert err.value.line_number == 1


def test_load_stem_lexicon_two_tabs_is_an_error():
    with pytest.raises(LexiconFormatError):
        load_stem_lexicon(io.StringIO("a\tb\tc\n"))


def test_load_stem_lexicon_empty_side_is_an_error():
    with pytest.raises(LexiconFormatError) as err:
        load_stem_lexicon(io.StringIO("ok\tfine\n\tb\n"))
    assert err.value.line_number == 2


def test_load_stem_lexicon_reports_later_line_numbers():
    with pytest.raises(LexiconFormatError) as err:
        load_stem_lexicon(io.StringIO("# comment\na\tb\n\nbroken line\n"))
    assert err.value.line_number == 4


def test_load_synonym_table_rows_and_order():
    table = load_synonym_table(io.StringIO("A0,A1,A2\nB0,B1\n"))
    assert len(table.rows) == 2
    assert table.rows[0].terms == ("a0", "a1", "a2")


def test_load_synonym_table_drops_singletons():
    table = load_synonym_table(io.StringIO("A0\n"))
    assert table.rows == ()


def test_load_synonym_table_lowest_row_wins():
    table = load_synonym_table(io.StringIO("A0,A1\nA1,C0\n"))
    assert synonym_candidates(table, "a1") == ("a0",)


def test_reached_by_inverts_the_lowest_row_candidates():
    # b takes its candidates from the first row, so c is reached from b
    # but nothing is reached from c.
    table = load_synonym_table(io.StringIO("a,b\nb,c\n"))
    assert table.reached_by == {"a": ("b",), "b": ("a", "c")}
    assert SynonymTable.empty().reached_by == {}


def test_hand_built_table_equals_the_loaded_one():
    # The indexes derive from the rows, so building rows by hand loses none.
    built = SynonymTable(rows=(SynonymRow(("a", "b")), SynonymRow(("b", "c"))))
    loaded = load_synonym_table(io.StringIO("a,b\nb,c\n"))
    assert [f.name for f in fields(SynonymTable)] == ["rows"]
    assert built == loaded
    for term in ("a", "b", "c", "z"):
        assert synonym_candidates(built, term) == synonym_candidates(loaded, term)
    assert synonym_candidates(built, "b") == ("a",)
    assert built.reached_by == loaded.reached_by == {"a": ("b",), "b": ("a", "c")}


def test_load_synonym_table_trims_spaces_and_dedupes():
    table = load_synonym_table(io.StringIO("tram , streetcar, tram\n"))
    assert table.rows[0].terms == ("tram", "streetcar")


def test_load_synonym_table_applies_stemming():
    lex = StemLexicon({"streetcars": "streetcar"})
    table = load_synonym_table(io.StringIO("Tram,Streetcars\n"), lex)
    assert table.rows[0].terms == ("tram", "streetcar")


def test_synonym_candidates_in_row_order():
    table = load_synonym_table(io.StringIO("A0,A1,A2\n"))
    assert synonym_candidates(table, "a0") == ("a1", "a2")


def test_synonym_candidates_membership_anywhere():
    table = load_synonym_table(io.StringIO("A0,A1,A2\n"))
    assert synonym_candidates(table, "a1") == ("a0", "a2")


def test_synonym_candidates_absent_term():
    table = load_synonym_table(io.StringIO("A0,A1\n"))
    assert synonym_candidates(table, "z") == ()


def test_synonym_candidates_never_contain_the_term():
    table = load_synonym_table(io.StringIO("a,b,c\nd,e\n"))
    for row in table.rows:
        for term in row.terms:
            cands = synonym_candidates(table, term)
            assert term not in cands
            assert len(cands) == len(row.terms) - 1


def test_empty_table():
    table = SynonymTable.empty()
    assert table.rows == ()
    assert synonym_candidates(table, "x") == ()


def test_loads_are_deterministic():
    text = "tram, streetcar\nquick, fast, rapid\n"
    assert load_synonym_table(io.StringIO(text)) == load_synonym_table(io.StringIO(text))


def test_load_stopwords_bad_utf8_names_byte_offset(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"ok\n\xff\n")
    with pytest.raises(UnicodeDecodeError):
        load_stopwords(path)


def _after_bom(kind, text, tmp_path):
    """``text`` behind a UTF-8 byte-order mark, as a file path or as a stream."""
    if kind == "path":
        path = tmp_path / "lexicon.txt"
        path.write_text("\ufeff" + text, encoding="utf-8")
        return path
    return io.StringIO("\ufeff" + text)


@pytest.mark.parametrize("kind", ["path", "stream"])
def test_load_stopwords_ignores_a_leading_bom(kind, tmp_path):
    stops = load_stopwords(_after_bom(kind, "and\nthe\n", tmp_path))
    assert stops.words == frozenset({"and", "the"})


@pytest.mark.parametrize("kind", ["path", "stream"])
def test_load_stem_lexicon_ignores_a_leading_bom(kind, tmp_path):
    lex = load_stem_lexicon(_after_bom(kind, "cars\tcar\n", tmp_path))
    assert lex.entries == {"cars": "car"}


@pytest.mark.parametrize("kind", ["path", "stream"])
def test_load_synonym_table_ignores_a_leading_bom(kind, tmp_path):
    table = load_synonym_table(_after_bom(kind, "a0,a1\n", tmp_path))
    assert synonym_candidates(table, "a0") == ("a1",)
    assert synonym_candidates(table, "a1") == ("a0",)
