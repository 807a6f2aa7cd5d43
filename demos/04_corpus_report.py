"""
A full corpus experiment
========================

Loads the bundled two-cluster corpus (ten transit articles, ten orchard
articles), scores one anchor against its own cluster and against the
other one under both weighting schemes, and prints the per-measure delta
summary: how much the synonym-aware scheme moved similar pairs versus
dissimilar pairs.

Run from the repository root:

    python3 demos/04_corpus_report.py
"""

from pathlib import Path

from synsim import (
    anchor_matrix,
    delta_summary,
    load_corpus,
    load_stem_lexicon,
    load_stopwords,
    load_synonym_table,
)

fixtures = Path(__file__).resolve().parents[1] / "fixtures"

stopwords = load_stopwords(fixtures / "stopwords.txt")
lexicon = load_stem_lexicon(fixtures / "stems.tsv")
table = load_synonym_table(fixtures / "synonyms.txt", lexicon)
corpus = load_corpus(
    [fixtures / "corpus" / "transit", fixtures / "corpus" / "orchard"],
    stopwords=stopwords,
    lexicon=lexicon,
    synonym_table=table,
)
print(f"loaded {len(corpus)} documents: {', '.join(corpus.ids)}")
print(f"synonym rows: {list(table.rows)}")

anchor = "a01"
similar_ids = [f"a{i:02d}" for i in range(2, 11)]
dissimilar_ids = [f"b{i:02d}" for i in range(1, 11)]

similar = anchor_matrix(corpus, anchor, similar_ids)
dissimilar = anchor_matrix(corpus, anchor, dissimilar_ids)

print(f"\n{anchor} vs its own cluster (first rows):")
for row in similar.rows[:6]:
    print(f"  {row.target_id} {row.measure:8s} "
          f"traditional={row.traditional:.6f} modified={row.modified:.6f} "
          f"delta={row.delta:+.6f}")

print("\nper-measure averages, similar group:")
for measure, avg in similar.averages.items():
    print(f"  {measure:8s} traditional={avg.traditional:.6f} "
          f"modified={avg.modified:.6f} delta={avg.delta:+.6f}")

print("\nper-measure averages, dissimilar group:")
for measure, avg in dissimilar.averages.items():
    print(f"  {measure:8s} traditional={avg.traditional:.6f} "
          f"modified={avg.modified:.6f} delta={avg.delta:+.6f}")

# The headline numbers: the synonym-aware scheme should lift similar pairs
# more than dissimilar ones, so every gap should be positive.
summary = delta_summary(similar, dissimilar)
print("\ndelta summary (modified minus traditional):")
for measure, entry in summary.entries.items():
    print(f"  {measure:8s} similar={entry.similar_delta:+.6f} "
          f"dissimilar={entry.dissimilar_delta:+.6f} gap={entry.gap:+.6f}")

print("\nsame thing via the command line:")
print("  synsim report fixtures/corpus/transit fixtures/corpus/orchard a01 \\")
print("      --stopwords fixtures/stopwords.txt --stems fixtures/stems.tsv \\")
print("      --synonyms fixtures/synonyms.txt --format csv")
