"""Preprocessing: tokenize, normalize, stopword filtering, stemming."""

import numpy as np
import pytest

from synsim import (
    ProcessedDocument,
    RawDocument,
    filter_stopwords,
    normalize,
    preprocess,
    stem,
    tokenize,
)
from synsim.pipeline import _ChunkTerms


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
    stops = frozenset({"ал"})
    assert filter_stopwords(["ал", "мұнай"], stops) == ["мұнай"]


def test_filter_stopwords_removes_all_occurrences():
    stops = frozenset({"a"})
    assert filter_stopwords(["a", "b", "a"], stops) == ["b"]


def test_filter_stopwords_empty_sequence():
    assert filter_stopwords([], frozenset({"x"})) == []


def test_stem_lexicon_hit():
    lex = {"кітаптар": "кітап"}
    assert stem("кітаптар", lex) == "кітап"


def test_stem_identity_fallback():
    assert stem("x", {}) == "x"


def test_preprocess_order_and_counts():
    doc = RawDocument(id="q", text="Ал мұнай мұнай.")
    out = preprocess(doc, frozenset({"ал"}), {})
    assert out.counts == {"мұнай": 2}
    assert out.total_tokens == 2


def test_preprocess_empty_text():
    out = preprocess(RawDocument(id="q", text=""), frozenset(), {})
    assert out.counts == {}
    assert out.total_tokens == 0


def test_preprocess_digits_only():
    out = preprocess(
        RawDocument(id="q", text="123 456"), frozenset(), {}
    )
    assert out.total_tokens == 0


def test_stopwords_filtered_before_stemming():
    """A surface form on the stopword list never reaches the stemmer, even
    when its stem would have survived."""
    stops = frozenset({"runs"})
    lex = {"runs": "run"}
    out = preprocess(RawDocument(id="q", text="runs run"), stops, lex)
    assert out.counts == {"run": 1}


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
            frozenset({"a"}),
            {"ab": "a"},
        )
        assert out.total_tokens == sum(out.counts.values())
        assert all(c >= 1 for c in out.counts.values())


def test_pipeline_idempotence_on_fixed_points():
    """Re-preprocessing a document's own stemmed terms reproduces the counts
    when every stem is a lexicon fixed point and not a stopword."""
    stops = frozenset({"the"})
    lex = {"wagons": "wagon", "wagon": "wagon"}
    first = preprocess(RawDocument(id="d", text="the wagons roll, the wagon"), stops, lex)
    rejoined = " ".join(
        term for term, count in sorted(first.counts.items()) for _ in range(count)
    )
    second = preprocess(RawDocument(id="d2", text=rejoined), stops, lex)
    assert second.counts == first.counts


STOPS = frozenset({"the", "of"})
LEXICON = {"x": "", "words": "word"}


def chain(doc, stopwords, lexicon):
    """The stages one after another: what ``preprocess`` must equal.

    It counts the terms itself, not through ``from_terms``, which
    ``preprocess`` uses.
    """
    words = filter_stopwords([normalize(t) for t in tokenize(doc.text)], stopwords)
    counts: dict[str, int] = {}
    for word in words:
        term = stem(word, lexicon)
        counts[term] = counts.get(term, 0) + 1
    return ProcessedDocument(id=doc.id, counts=counts, total_tokens=len(words))


# Whitespace chunks the memo must get right; each case is a list of texts
# preprocessed in order.
CHUNK_CASES = {
    "several-terms": ["c a-b b", "b a-b a-a"],
    "only-stopwords": ["the-of The"],
    "term-is-empty": ["x x-x y"],
    "dot": ["."],
    "letter-dot": ["a."],
    "letter-dots": ["a.."],
    "superscript-dot": ["a²."],
    "two-letter-lowercase": ["İ İ."],
    "word-dot-then-word": ["Word.", "word"],
    # One multi-term chunk repeats a term, and its terms first occur both
    # before and after single-term chunks.
    "repeated-term-in-chunk": ["a-b-a", "b-a-b a"],
    "chunk-between-singles": ["b a-b-a", "a-b b"],
    "chunk-after-singles": ["c a c-a-b-c b"],
    # A chunk that ends in a non-letter takes its memoised prefix's entry.
    "word-then-punctuated": ["word word. word,"],
    "punctuated-then-word": ["word. word"],
    "digits-dot": ["584 584."],
    "word-superscript": ["x x²"],
    "word-combining-mark": ["cafe cafe\u0301"],
    "word-two-dots": ["a a.."],
    "stopword-dot": ["the the."],
    "final-sigma-dot": ["ΑΣ ΑΣ."],
}


@pytest.mark.parametrize("case", CHUNK_CASES)
def test_preprocess_chunk_cases_match_the_chain(case):
    shared = _ChunkTerms(STOPS, LEXICON)
    for i, text in enumerate(CHUNK_CASES[case]):
        doc = RawDocument(id=f"d{i}", text=text)
        expected = chain(doc, STOPS, LEXICON)
        for out in (preprocess(doc, STOPS, LEXICON), preprocess(doc, STOPS, LEXICON, shared)):
            assert type(out.counts) is dict
            assert list(out.counts.items()) == list(expected.counts.items())
            assert out.total_tokens == expected.total_tokens
    # The memo holds the texts' chunks and their tokens, and nothing else.
    chunks = {chunk for text in CHUNK_CASES[case] for chunk in text.split()}
    assert set(shared) == chunks | {token for chunk in chunks for token in tokenize(chunk)}


def test_preprocess_memo_maps_each_chunk_to_what_it_yields():
    terms = _ChunkTerms(STOPS, LEXICON)
    preprocess(RawDocument(id="d", text="The-of a-b x . Words."), STOPS, LEXICON, terms)
    assert terms == {
        "The": (), "of": (), "The-of": (), "a": ("a",), "b": ("b",), "a-b": ("a", "b"),
        "x": ("",), ".": (), "Words": ("word",), "Words.": ("word",),
    }


def test_memo_reuses_the_entry_of_a_memoised_prefix():
    terms = _ChunkTerms(STOPS, LEXICON)
    assert terms[""] == ()
    assert terms["Words"] == ("word",)
    # One character only: "Words.," has no memoised prefix, so it is
    # analysed, and "Words." is not stored on the way.
    assert terms["Words.,"] == ("word",)
    assert terms["Words.,"] is not terms["Words"]
    assert list(terms) == ["", "Words", "Words.,"]
    assert terms["Words."] is terms["Words"]
    assert terms["."] is terms[""]


@pytest.mark.parametrize(
    "memo",
    [{}, _ChunkTerms(set(STOPS), LEXICON), _ChunkTerms(STOPS, dict(LEXICON))],
    ids=["plain-dict", "other-stopwords", "other-lexicon"],
)
def test_preprocess_rejects_a_memo_bound_to_another_setting(memo):
    # Equal but distinct objects are another setting too: the memo cannot
    # tell whether they will stay equal.
    with pytest.raises(ValueError, match="chunk memo"):
        preprocess(RawDocument(id="d", text="a b"), STOPS, LEXICON, memo)
    assert memo == {}
