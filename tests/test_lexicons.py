"""Lexicon file loading: stopwords, stem table, synonym table."""

import copy
import io
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synsim import (
    ConfigError,
    Corpus,
    LexiconFormatError,
    ProcessedDocument,
    SynonymTable,
    WeightingConfig,
    load_stem_lexicon,
    load_stopwords,
    load_synonym_table,
    normalize,
    vectorize,
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
    assert len(stops) == 1
    assert "ал" in stops


def test_load_stopwords_skips_comments_and_blanks():
    stops = load_stopwords(io.StringIO("# header\n\nthe\n"))
    assert stops == frozenset({"the"})


def test_load_stem_lexicon_single_entry():
    lex = load_stem_lexicon(io.StringIO("кітаптар\tкітап\n"))
    assert lex.get("кітаптар") == "кітап"
    assert lex.get("кітап") is None


def test_load_stem_lexicon_last_write_wins():
    lex = load_stem_lexicon(io.StringIO("a\tb\na\tc\n"))
    assert lex.get("a") == "c"


def test_load_stem_lexicon_missing_tab_is_an_error():
    with pytest.raises(LexiconFormatError) as err:
        load_stem_lexicon(io.StringIO("a b\n"))
    assert err.value.line_number == 1


def test_load_stem_lexicon_two_tabs_is_an_error():
    with pytest.raises(LexiconFormatError):
        load_stem_lexicon(io.StringIO("a\tb\tc\n"))


@pytest.mark.parametrize(
    "line, message",
    [
        ("\tb", "empty surface form in '\\tb'"),
        ("a\t", "empty stem in 'a\\t'"),
        # U+001C ends a line, so the stem is empty.
        ("x\t\x1c", "empty stem in 'x\\t'"),
        (" \t\u00a0b", "empty surface form in ' \\t\\xa0b'"),
        ("\ta\t", "empty surface form in '\\ta\\t'"),
    ],
    ids=["no-surface", "no-stem", "space-stem", "space-surface", "no-surface-no-stem"],
)
def test_load_stem_lexicon_empty_side_is_an_error(line, message):
    # Lines are stripped before splitting, so an empty side's TAB is
    # stripped away too; the error names the side, not a missing TAB.
    with pytest.raises(LexiconFormatError) as err:
        load_stem_lexicon(io.StringIO(f"ok\tfine\n{line}\n"))
    assert str(err.value) == f"line 2: {message}"
    assert err.value.line_number == 2


def test_lexicon_format_error_pickles_and_copies_with_its_line_number():
    error = LexiconFormatError("empty stem in 'a\\t'", 4)
    for twin in (pickle.loads(pickle.dumps(error)), copy.copy(error), copy.deepcopy(error)):
        assert (type(twin), str(twin), twin.line_number) == (
            LexiconFormatError, "line 4: empty stem in 'a\\t'", 4,
        )
    with pytest.raises(TypeError):
        LexiconFormatError("no line number")


def test_load_stem_lexicon_reports_later_line_numbers():
    with pytest.raises(LexiconFormatError) as err:
        load_stem_lexicon(io.StringIO("# comment\na\tb\n\nbroken line\n"))
    assert err.value.line_number == 4


def split_stem_lexicon(text):
    """The stem lexicon read by splitting each line into a list at every TAB.

    A stripped line with no TAB whose raw form has one lost it, with an
    empty side, to the stripping.
    """
    entries = {}
    for number, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if parts == [line] and "\t" in raw:
            side = "surface form" if raw.split("\t")[0].isspace() or raw[0] == "\t" else "stem"
            raise LexiconFormatError(f"empty {side} in {raw!r}", line_number=number)
        if len(parts) != 2:
            raise LexiconFormatError(f"expected exactly one TAB in {line!r}", line_number=number)
        surface, target = (normalize(p.strip()) for p in parts)
        entries[surface] = target
    return entries


def outcome(read, text):
    """The entries in order, or the error's message and line number."""
    try:
        return list(read(text).items())
    except LexiconFormatError as err:
        return str(err), err.line_number


# Most sides are words; the rest may be empty, space-only, NBSP-padded or
# start a comment.
stem_sides = st.one_of(
    st.text("aAİ", min_size=1, max_size=3), st.text("aAİ# \u00a0", max_size=4)
)
stem_lines = st.tuples(
    stem_sides,
    st.sampled_from(["", "\t", "\t", "\t", "\t\t"]),
    stem_sides,
    st.sampled_from(["\n", "\r\n"]),
).map("".join)


@settings(max_examples=300)
@given(st.booleans(), st.lists(stem_lines, max_size=6))
def test_load_stem_lexicon_equals_the_split_reading(bom, lines):
    # Lines with no, one or two TABs, both line endings and an optional
    # byte-order mark.
    text = "\ufeff" * bom + "".join(lines)
    assert outcome(lambda t: load_stem_lexicon(io.StringIO(t)), text) == outcome(
        split_stem_lexicon, text
    )


def test_load_synonym_table_rows_and_order():
    table = load_synonym_table(io.StringIO("A0,A1,A2\nB0,B1\n"))
    assert len(table.rows) == 2
    assert table.rows[0] == ("a0", "a1", "a2")


def test_load_synonym_table_drops_singletons():
    table = load_synonym_table(io.StringIO("A0\n"))
    assert table.rows == ()


def test_load_synonym_table_lowest_row_wins():
    table = load_synonym_table(io.StringIO("A0,A1\nA1,C0\n"))
    assert table.row_of["a1"] == ("a0", "a1")
    assert table.row_of["a1"] is table.rows[0]
    assert table.row_of["c0"] is table.rows[1]


def test_modified_weights_follow_the_lowest_row_candidates():
    # b's lowest row is the first, so a document holding b reaches a and
    # c, while one holding c reaches nothing. The outsiders keep every
    # modified df below the corpus size, so no reached term weighs 0.
    table = load_synonym_table(io.StringIO("a,b\nb,c\n"))
    terms = ["a", "b", "c", "x"]
    holding_b = ProcessedDocument.from_terms("d0", ["b"])
    holding_c = ProcessedDocument.from_terms("d1", ["c"])
    outsiders = [ProcessedDocument.from_terms(f"o{i}", ["y"]) for i in range(2)]
    corpus = Corpus([holding_b, holding_c, *outsiders], synonym_table=table)

    def stored(doc, table):
        config = WeightingConfig(mode="modified", synonym_table=table)
        return list(vectorize(doc, corpus, terms, config).weights)

    assert stored(holding_b, table) == ["a", "b", "c"]
    assert stored(holding_c, table) == ["c"]
    assert stored(holding_b, SynonymTable.empty()) == ["b"]


def test_a_table_row_must_be_a_tuple():
    # A list row cannot be hashed where weighting keys memos by rows, and a
    # string row would be split into characters, so neither is coerced.
    with pytest.raises(ConfigError, match="row 1 must be a tuple, not list"):
        SynonymTable(rows=(("a", "b"), ["c", "d"]))
    with pytest.raises(ConfigError, match="row 0 must be a tuple, not str"):
        SynonymTable(rows=("ab",))
    with pytest.raises(ConfigError, match="rows must be a tuple, not list"):
        SynonymTable(rows=[("a", "b")])


def test_hand_built_table_equals_the_loaded_one():
    # The indexes derive from the rows, so building rows by hand loses none.
    built = SynonymTable(rows=(("a", "b"), ("b", "c")))
    loaded = load_synonym_table(io.StringIO("a,b\nb,c\n"))
    assert list(SynonymTable._fields) == list(vars(built)) == ["rows"]
    assert built == loaded
    assert hash(built) == hash(loaded)
    for term in ("a", "b", "c", "z"):
        assert built.row_of.get(term) == loaded.row_of.get(term)
    assert built.row_of["b"] == ("a", "b")
    assert built.row_of["b"] is built.rows[0]


@pytest.mark.parametrize(
    "line",
    ["tram , streetcar, tram", "tram , , streetcar,tram"],
    ids=["spaces-and-repeat", "empty-word"],
)
def test_load_synonym_table_trims_spaces_and_dedupes(line):
    table = load_synonym_table(io.StringIO(line + "\n"))
    assert table.rows[0] == ("tram", "streetcar")


def test_load_synonym_table_applies_stemming():
    lex = {"streetcars": "streetcar"}
    table = load_synonym_table(io.StringIO("Tram,Streetcars\n"), lex)
    assert table.rows[0] == ("tram", "streetcar")


def test_synonym_candidates_in_row_order():
    table = load_synonym_table(io.StringIO("A0,A1,A2\n"))
    assert table.row_of["a0"] == ("a0", "a1", "a2")


def test_synonym_candidates_membership_anywhere():
    # Every term of the row maps to the same row, wherever it stands.
    table = load_synonym_table(io.StringIO("A0,A1,A2\n"))
    assert table.row_of["a1"] == ("a0", "a1", "a2")
    assert table.row_of["a2"] is table.row_of["a0"]


def test_synonym_candidates_absent_term():
    table = load_synonym_table(io.StringIO("A0,A1\n"))
    assert table.row_of.get("z") is None


def test_every_term_maps_to_its_lowest_row_object():
    table = load_synonym_table(io.StringIO("a,b,c\nd,e\nc,e,f\n"))
    assert set(table.row_of) == {t for row in table.rows for t in row}
    for row in table.rows:
        for term in row:
            lowest = next(r for r in table.rows if term in r)
            assert table.row_of[term] is lowest
    assert table.row_of["f"] is table.rows[2]


def test_hashing_a_table_hashes_at_most_one_term():
    hashed = []

    class Term(str):
        def __hash__(self):
            hashed.append(self)
            return super().__hash__()

    rows = (tuple(Term(f"w{i}") for i in range(1000)), (Term("a"), Term("b")))
    table = SynonymTable(rows=rows)
    assert hashed == []
    hash(table)
    assert len(hashed) <= 1
    # Equal tables still hash equal, and so do the empty ones.
    plain = SynonymTable(rows=tuple(tuple(str(t) for t in row) for row in rows))
    assert plain == table
    assert hash(plain) == hash(table)
    assert hash(SynonymTable.empty()) == hash(SynonymTable(rows=()))


def test_empty_table():
    table = SynonymTable.empty()
    assert table.rows == ()
    assert table.row_of == {}


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
    assert stops == frozenset({"and", "the"})


@pytest.mark.parametrize("kind", ["path", "stream"])
def test_load_stem_lexicon_ignores_a_leading_bom(kind, tmp_path):
    lex = load_stem_lexicon(_after_bom(kind, "cars\tcar\n", tmp_path))
    assert lex == {"cars": "car"}


@pytest.mark.parametrize("kind", ["path", "stream"])
def test_load_synonym_table_ignores_a_leading_bom(kind, tmp_path):
    table = load_synonym_table(_after_bom(kind, "a0,a1\n", tmp_path))
    assert table.row_of == {"a0": ("a0", "a1"), "a1": ("a0", "a1")}
