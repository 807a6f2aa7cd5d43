"""Independent reference scorer for checking synsim's benchmark outputs.

It implements the formulas of synsim's README plainly and imports nothing
from synsim: tokenize into runs of letters, lowercase, drop stopwords, stem
by lexicon lookup, count; resolve a missing term's count from the first
synonym in its row that occurs; document frequency over literal or
resolved occurrences; idf = log2(N / df) with df 0 read as 1; weight =
count / total * idf; cosine, Jaccard and Dice with every sum taken in
sorted term order. The outputs are rendered exactly as synsim's CLI
renders them, so the benchmark can demand byte-identical results.

idf depends only on the corpus, the term and the scheme, so it is computed
once per (term, scheme) here; that changes no value.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

MEASURES = ("cosine", "jaccard", "dice")
SCHEMES = ("traditional", "modified")


def content_lines(path) -> list[str]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [s for s in (line.strip() for line in lines) if s and not s.startswith("#")]


def tokenize(text: str) -> list[str]:
    tokens, current = [], []
    for ch in text:
        if ch.isalpha():
            current.append(ch)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    return tokens


class Lexicons:
    """Stopwords, stem lexicon and synonym rows, read from their files."""

    def __init__(self, stopwords, stems, synonyms=None):
        self.stopwords = {line.lower() for line in content_lines(stopwords)}
        self.stems = {}
        for line in content_lines(stems):
            surface, target = line.split("\t")
            self.stems[surface.strip().lower()] = target.strip().lower()
        self.rows: list[list[str]] = []
        self.row_of: dict[str, int] = {}
        for line in content_lines(synonyms) if synonyms else []:
            row: list[str] = []
            for word in line.split(","):
                word = word.strip()
                if word:
                    term = self.stem(word.lower())
                    if term not in row:
                        row.append(term)
            if len(row) >= 2:
                for term in row:
                    self.row_of.setdefault(term, len(self.rows))
                self.rows.append(row)

    def stem(self, word: str) -> str:
        return self.stems.get(word, word)

    def synonyms(self, term: str) -> list[str]:
        if term not in self.row_of:
            return []
        return [t for t in self.rows[self.row_of[term]] if t != term]

    def counts(self, text: str) -> dict[str, int]:
        counts: dict[str, int] = {}
        for token in tokenize(text):
            word = token.lower()
            if word not in self.stopwords:
                term = self.stem(word)
                counts[term] = counts.get(term, 0) + 1
        return counts


class Corpus:
    """Term counts of every ``.txt`` document under the given directories."""

    def __init__(self, lexicons: Lexicons, directories):
        self.lex = lexicons
        self.counts: dict[str, dict[str, int]] = {}
        for directory in directories:
            for path in Path(directory).glob("*.txt"):
                self.counts[path.stem] = lexicons.counts(path.read_text(encoding="utf-8"))
        self.ids = sorted(self.counts)
        self.holders: dict[str, set[str]] = {}
        for doc_id, counts in self.counts.items():
            for term in counts:
                self.holders.setdefault(term, set()).add(doc_id)
        self._idf: dict[tuple[str, str], float] = {}

    def count(self, doc_id: str, term: str, scheme: str) -> int:
        counts = self.counts[doc_id]
        if counts.get(term, 0) > 0 or scheme == "traditional":
            return counts.get(term, 0)
        for synonym in self.lex.synonyms(term):
            if counts.get(synonym, 0) > 0:
                return counts[synonym]
        return 0

    def idf(self, term: str, scheme: str) -> float:
        key = (term, scheme)
        if key not in self._idf:
            docs = set(self.holders.get(term, ()))
            if scheme == "modified":
                for synonym in self.lex.synonyms(term):
                    docs |= self.holders.get(synonym, set())
            self._idf[key] = math.log2(len(self.ids) / (len(docs) or 1))
        return self._idf[key]

    def weights(self, doc_id: str, vocabulary, scheme: str) -> dict[str, float]:
        total = sum(self.counts[doc_id].values())
        weights = {}
        for term in vocabulary:
            count = self.count(doc_id, term, scheme)
            if count:
                weight = (count / total if total else 0.0) * self.idf(term, scheme)
                if weight != 0.0:
                    weights[term] = weight
        return weights

    def pair(self, a: str, b: str, measure: str) -> tuple[float, float]:
        """(traditional, modified) score of documents ``a`` and ``b``."""
        vocabulary = sorted(set(self.counts[a]) | set(self.counts[b]))
        return tuple(
            score(
                measure,
                self.weights(a, vocabulary, scheme),
                self.weights(b, vocabulary, scheme),
            )
            for scheme in SCHEMES
        )


def score(measure: str, x: dict[str, float], y: dict[str, float]) -> float:
    dot = sum(x.get(t, 0.0) * y.get(t, 0.0) for t in sorted(set(x) | set(y)))
    xx = sum(x[t] * x[t] for t in sorted(x))
    yy = sum(y[t] * y[t] for t in sorted(y))
    if measure == "cosine":
        nx, ny = math.sqrt(xx), math.sqrt(yy)
        value = 0.0 if nx == 0.0 or ny == 0.0 else dot / (nx * ny)
    elif measure == "jaccard":
        denominator = xx + yy - dot
        value = 0.0 if denominator == 0.0 else dot / denominator
    elif measure == "dice":
        denominator = xx + yy
        value = 0.0 if denominator == 0.0 else 2.0 * dot / denominator
    else:
        raise ValueError(f"unknown measure {measure!r}")
    return min(value, 1.0)


def _averages(corpus: Corpus, anchor: str, targets) -> tuple[list[dict], dict]:
    rows = []
    for target in targets:
        for measure in MEASURES:
            traditional, modified = corpus.pair(anchor, target, measure)
            rows.append(
                {
                    "anchor": anchor,
                    "target": target,
                    "measure": measure,
                    "traditional": traditional,
                    "modified": modified,
                    "delta": modified - traditional,
                }
            )
    averages = {}
    for measure in MEASURES:
        group = [r for r in rows if r["measure"] == measure]
        averages[measure] = {
            key: sum(r[key] for r in group) / len(group)
            for key in ("traditional", "modified", "delta")
        }
    return rows, averages


def _dump(payload) -> str:
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


def report(corpus: Corpus, similar_ids, dissimilar_ids, anchor: str) -> str:
    """Output of ``synsim report`` (JSON, all measures)."""
    groups = []
    for ids in (similar_ids, dissimilar_ids):
        _, averages = _averages(corpus, anchor, [i for i in ids if i != anchor])
        groups.append(
            {m: a["modified"] - a["traditional"] for m, a in averages.items()}
        )
    similar, dissimilar = groups
    return _dump(
        {
            "measures": {
                m: {
                    "similar_delta": similar[m],
                    "dissimilar_delta": dissimilar[m],
                    "gap": similar[m] - dissimilar[m],
                }
                for m in MEASURES
            }
        }
    )


def matrix(corpus: Corpus, anchor: str) -> str:
    """Output of ``synsim matrix`` (JSON, all measures)."""
    rows, averages = _averages(corpus, anchor, [i for i in corpus.ids if i != anchor])
    return _dump({"anchor": anchor, "rows": rows, "averages": averages})


def vector(corpus: Corpus, doc_id: str) -> str:
    """Output of ``synsim vector`` (both schemes)."""
    vocabulary = sorted(corpus.counts[doc_id])
    traditional, modified = (
        corpus.weights(doc_id, vocabulary, scheme) for scheme in SCHEMES
    )
    return "".join(
        f"{t} traditional={traditional.get(t, 0.0):.6f} "
        f"modified={modified.get(t, 0.0):.6f}\n"
        for t in vocabulary
    )
