"""Preprocessing: tokenize, normalize, stopword filtering, stemming."""

import numpy as np
import pytest

from synsim import (
    ProcessedDocument,
    RawDocument,
    StemLexicon,
    StopwordList,
    filter_stopwords,
    normalize,
    preprocess,
    stem,
    term_count,
    tokenize,
)


def test_tokenize_splits_on_nonletters():
    assert tokenize("Ал, мұнай 2022!") == ["Ал", "мұнай"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_hyphen_is_a_separator():
    assert tokenize("a-b c") == ["a", "b", "c"]


def test_tokenize_digit_runs_dropped():
    assert tokenize("123 456") == []


def test_tokenize_mixed_alphanumeric():
    # every non-isalpha character splits letter runs apart, never joins them:
    # digits, "_", superscripts, letter-like numerals, combining marks
    assert tokenize("abc123def") == ["abc", "def"]
    assert tokenize("a_b") == ["a", "b"]
    assert tokenize("x²y") == ["x", "y"]
    assert tokenize("aⅫb") == ["a", "b"]
    assert tokenize("e\u0301t") == ["e", "t"]


@pytest.mark.parametrize(
    "token,expected",
    [
        ("Мұнай", "мұнай"),
        ("абв", "абв"),
        ("ҚАЗ", "қаз"),
        ("ӘГҚҢӨҰҮҺІ", "әгқңөұүһі"),
        ("Tram", "tram"),
    ],
)
def test_normalize_lowercases(token, expected):
    assert normalize(token) == expected


def test_filter_stopwords_exact_members():
    stops = StopwordList(frozenset({"ал"}))
    assert filter_stopwords(["ал", "мұнай"], stops) == ["мұнай"]


def test_filter_stopwords_removes_all_occurrences():
    stops = StopwordList(frozenset({"a"}))
    assert filter_stopwords(["a", "b", "a"], stops) == ["b"]


def test_filter_stopwords_empty_sequence():
    assert filter_stopwords([], StopwordList(frozenset({"x"}))) == []


def test_stem_lexicon_hit():
    lex = StemLexicon({"кітаптар": "кітап"})
    assert stem("кітаптар", lex) == "кітап"


def test_stem_identity_fallback():
    assert stem("x", StemLexicon({})) == "x"


def test_preprocess_order_and_counts():
    doc = RawDocument(id="q", text="Ал мұнай мұнай.")
    out = preprocess(doc, StopwordList(frozenset({"ал"})), StemLexicon({}))
    assert out.counts == {"мұнай": 2}
    assert out.total_tokens == 2


def test_preprocess_empty_text():
    out = preprocess(RawDocument(id="q", text=""), StopwordList(frozenset()), StemLexicon({}))
    assert out.counts == {}
    assert out.total_tokens == 0


def test_preprocess_digits_only():
    out = preprocess(
        RawDocument(id="q", text="123 456"), StopwordList(frozenset()), StemLexicon({})
    )
    assert out.total_tokens == 0


def test_stopwords_filtered_before_stemming():
    """A surface form on the stopword list never reaches the stemmer, even
    when its stem would have survived."""
    stops = StopwordList(frozenset({"runs"}))
    lex = StemLexicon({"runs": "run"})
    out = preprocess(RawDocument(id="q", text="runs run"), stops, lex)
    assert out.counts == {"run": 1}


def test_term_count():
    doc = ProcessedDocument.from_terms("d", ["a", "a"])
    assert term_count(doc, "a") == 2
    assert term_count(doc, "b") == 0


def test_processed_document_rejects_bad_total():
    with pytest.raises(ValueError):
        ProcessedDocument(id="d", counts={"a": 2}, total_tokens=3)


@pytest.mark.parametrize(
    "counts, total_tokens", [({"x": 0, "y": 2}, 2), ({"x": -1, "y": 1}, 0)]
)
def test_processed_document_rejects_a_count_below_one(counts, total_tokens):
    # A stored zero would count the document into the term's df.
    with pytest.raises(ValueError, match="document 'd': term 'x'"):
        ProcessedDocument(id="d", counts=counts, total_tokens=total_tokens)


def test_count_conservation_over_random_texts():
    """total_tokens always equals the sum of counts, for arbitrary junk."""
    rng = np.random.default_rng(7)
    alphabet = list("ab ,.-7қз")
    for _ in range(200):
        text = "".join(rng.choice(alphabet, size=rng.integers(0, 60)))
        out = preprocess(
            RawDocument(id="r", text=text),
            StopwordList(frozenset({"a"})),
            StemLexicon({"ab": "a"}),
        )
        assert out.total_tokens == sum(out.counts.values())
        assert all(c >= 1 for c in out.counts.values())


def test_pipeline_idempotence_on_fixed_points():
    """Re-preprocessing a document's own stemmed terms reproduces the counts
    when every stem is a lexicon fixed point and not a stopword."""
    stops = StopwordList(frozenset({"the"}))
    lex = StemLexicon({"wagons": "wagon", "wagon": "wagon"})
    first = preprocess(RawDocument(id="d", text="the wagons roll, the wagon"), stops, lex)
    rejoined = " ".join(
        term for term, count in sorted(first.counts.items()) for _ in range(count)
    )
    second = preprocess(RawDocument(id="d2", text=rejoined), stops, lex)
    assert second.counts == first.counts
