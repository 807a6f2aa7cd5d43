"""Seeded synthetic corpora for the synsim benchmark.

One call writes a complete input set: a stopword list, a surface-to-stem
TSV, a synonym table and one or more directories of ``.txt`` documents.
The same parameters and seed always give byte-identical files.

Documents draw stems Zipf-like from a fixed vocabulary. Two knobs shape
the draw:

* ``skew`` is the Zipf exponent: weight of rank r is 1 / (r + 1) ** skew.
  Higher skew concentrates tokens on fewer stems, so documents share more
  terms and document frequencies rise.
* ``shift`` is the topic shift between clusters: cluster c ranks the
  vocabulary rotated by c * shift * vocab positions, so clusters favour
  different stems. 0 makes all clusters draw from one distribution.

Stems are made of two or three consonant-vowel syllables, so they always
end in a vowel and the inflected forms (stem + s, ed, ing) never collide
with a stem or with each other. A share of tokens are stopwords; the rest
are written as the bare stem or as an inflected form that the stem TSV
maps back. Sentences are capitalised and punctuated, and some carry a
number, so tokenizing, lowercasing and stopword removal all do real work.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"
SUFFIXES = ("s", "ed", "ing")
STOPWORD_SHARE = 0.3  # share of tokens written as a stopword
SYNONYM_WIDTH = 4  # terms per synonym row
STOPWORDS = (
    "a about after all also an and any are as at be because been but by can "
    "could did do does for from had has have he her his how i if in into is "
    "it its just more most my no not of on one only or other our out over "
    "she so some such than that the their them then there these they this "
    "those to up us was we were what when which while who will with would "
    "you your"
).split()


def make_vocabulary(rng: random.Random, size: int) -> list[str]:
    """``size`` distinct pseudo-word stems, none of them a stopword."""
    syllables = [c + v for c in CONSONANTS for v in VOWELS]
    seen = set(STOPWORDS)
    stems = []
    while len(stems) < size:
        word = "".join(rng.choice(syllables) for _ in range(rng.choice((2, 3))))
        if word not in seen:
            seen.add(word)
            stems.append(word)
    return stems


def zipf_cum_weights(size: int, skew: float) -> list[float]:
    """Cumulative weights 1 / (r + 1) ** skew for ranks 0 .. size - 1."""
    return list(itertools.accumulate(1.0 / (r + 1) ** skew for r in range(size)))


def synonym_rows(rng: random.Random, stems: list[str], rows: int) -> list[list[str]]:
    """``rows`` disjoint groups of ``SYNONYM_WIDTH`` stems, drawn without repeats."""
    width = SYNONYM_WIDTH
    if rows * width > len(stems):
        raise ValueError(f"{rows} rows of {width} need more than {len(stems)} stems")
    pool = rng.sample(stems, rows * width)
    return [pool[i : i + width] for i in range(0, len(pool), width)]


def surface(rng: random.Random, stem: str) -> str:
    """The bare stem half of the time, otherwise an inflected form."""
    if rng.random() < 0.5:
        return stem
    return stem + rng.choice(SUFFIXES)


def document_text(
    rng: random.Random,
    ranked: list[str],
    cum_weights: list[float],
    tokens: int,
) -> str:
    """About ``tokens`` words in sentences of 6 to 14 words."""
    sentences = []
    written = 0
    while written < tokens:
        length = min(rng.randint(6, 14), tokens - written)
        drawn = rng.choices(ranked, cum_weights=cum_weights, k=length)
        words = [
            rng.choice(STOPWORDS) if rng.random() < STOPWORD_SHARE else surface(rng, s)
            for s in drawn
        ]
        if rng.random() < 0.2:
            words.insert(rng.randrange(len(words) + 1), str(rng.randint(2, 999)))
        if len(words) > 4 and rng.random() < 0.3:
            words[2] += ","
        words[0] = words[0].capitalize()
        sentences.append(" ".join(words) + ".")
        written += length
    lines, line = [], []
    for sentence in sentences:
        line.append(sentence)
        if len(line) == 3:
            lines.append(" ".join(line))
            line = []
    if line:
        lines.append(" ".join(line))
    return "\n".join(lines) + "\n"


def generate(
    out_dir,
    seed: int,
    clusters: list[tuple[str, str, int]],
    vocab: int = 2000,
    tokens: int = 500,
    skew: float = 1.0,
    shift: float = 0.5,
    synonym_rows_count: int = 200,
) -> dict:
    """Write one input set under ``out_dir`` and describe it.

    ``clusters`` lists ``(directory, id_prefix, documents)`` triples; each
    cluster is one topic. Returns the paths and document ids written.
    """
    rng = random.Random(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stems = make_vocabulary(rng, vocab)

    (out / "stopwords.txt").write_text(
        "# generated stopword list\n" + "".join(w + "\n" for w in STOPWORDS),
        encoding="utf-8",
    )
    stem_lines = [f"{s}{x}\t{s}\n" for s in stems for x in SUFFIXES]
    (out / "stems.tsv").write_text(
        "# surface\tstem\n" + "".join(stem_lines), encoding="utf-8"
    )
    rows = synonym_rows(rng, stems, synonym_rows_count)
    (out / "synonyms.txt").write_text(
        "# generated synonym rows\n"
        + "".join(", ".join(surface(rng, s) for s in row) + "\n" for row in rows),
        encoding="utf-8",
    )

    cum_weights = zipf_cum_weights(len(stems), skew)
    directories = {}
    for c, (name, prefix, count) in enumerate(clusters):
        offset = int(c * shift * len(stems)) % len(stems)
        ranked = stems[offset:] + stems[:offset]
        directory = out / name
        directory.mkdir(exist_ok=True)
        ids = []
        width = len(str(count - 1))
        for i in range(count):
            doc_id = f"{prefix}{i:0{width}d}"
            text = document_text(rng, ranked, cum_weights, tokens)
            (directory / f"{doc_id}.txt").write_text(text, encoding="utf-8")
            ids.append(doc_id)
        directories[name] = ids
    return {
        "stopwords": str(out / "stopwords.txt"),
        "stems": str(out / "stems.tsv"),
        "synonyms": str(out / "synonyms.txt"),
        "directories": {name: str(out / name) for name in directories},
        "ids": directories,
    }
