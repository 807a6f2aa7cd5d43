"""
From raw text to term counts
============================

Walks a document through the four preparation stages: tokenize,
normalize, drop stopwords, stem. Each stage is shown separately, then the
whole pipeline at once.

Run from the repository root:

    python3 demos/01_preprocessing.py
"""

import io

from synsim import (
    RawDocument,
    filter_stopwords,
    load_stem_lexicon,
    load_stopwords,
    normalize,
    preprocess,
    stem,
    tokenize,
)

text = "The tram line opened in 2024; riders praised the quick, quiet trams."
print("raw text:")
print(f"  {text!r}")

# Stage 1: tokens are maximal letter runs. Punctuation and the digit run
# disappear here.
tokens = tokenize(text)
print("\ntokens (letter runs only, digits dropped):")
print(f"  {tokens}")

# Stage 2: lowercase folding.
normalized = [normalize(t) for t in tokens]
print("\nnormalized:")
print(f"  {normalized}")

# Stage 3: stopword removal happens on the normalized surface forms,
# before any stemming.
stopwords = load_stopwords(io.StringIO("the\nin\n"))
kept = filter_stopwords(normalized, stopwords)
print("\nafter stopwords {the, in}:")
print(f"  {kept}")

# Stage 4: stemming via lexicon lookup; unknown forms pass through.
lexicon = load_stem_lexicon(
    io.StringIO("trams\ttram\nriders\trider\nopened\topen\npraised\tpraise\n")
)
stems = [stem(t, lexicon) for t in kept]
print("\nstemmed:")
print(f"  {stems}")

# The same thing in one call, aggregated into counts.
doc = RawDocument(id="demo", text=text)
processed = preprocess(doc, stopwords, lexicon)
print("\npreprocess() result:")
for term in sorted(processed.counts):
    print(f"  {term}\t{processed.counts[term]}")
print(f"  total kept tokens: {processed.total_tokens}")

# The pipeline is script-agnostic: Cyrillic text works the same way.
kazakh = RawDocument(id="kk", text="Ал мұнай мұнай.")
processed_kk = preprocess(kazakh, load_stopwords(io.StringIO("ал\n")), {})
print("\nCyrillic sample 'Ал мұнай мұнай.' with stopword 'ал':")
print(f"  counts: {processed_kk.counts}")

# A token the stem lexicon does not list is its own stem.
print("\nstem() on a lexicon miss:")
print(f"  stem('grass') -> {stem('grass', {})!r} (identity fallback)")
