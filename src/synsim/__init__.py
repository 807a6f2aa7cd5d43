"""Synonym-aware TF-IDF document similarity.

The package turns raw text into stemmed term counts, weights terms with
TF-IDF in a traditional and in a synonym-aware variant, and compares
documents with the cosine, Jaccard, and Dice measures. See the demos/
directory for narrative walkthroughs of each layer.
"""

from .errors import (
    ConfigError,
    CorpusError,
    DuplicateDocumentError,
    EmptyCorpusError,
    LexiconFormatError,
    SynsimError,
    UnknownDocumentError,
    ZeroDocumentFrequencyError,
)
from .evaluation import (
    ComparisonConfig,
    DeltaEntry,
    DeltaSummary,
    MeasureAverages,
    PairResult,
    ReportTable,
    anchor_matrix,
    compare_pair,
    delta_summary,
    format_score,
    load_corpus,
    read_documents,
    render_report,
)
from .lexicons import (
    SynonymTable,
    load_stem_lexicon,
    load_stopwords,
    load_synonym_table,
)
from .pipeline import (
    ProcessedDocument,
    RawDocument,
    filter_stopwords,
    normalize,
    preprocess,
    stem,
    tokenize,
)
from .similarity import (
    MEASURES,
    SimilarityScore,
    cosine,
    dice,
    dot,
    jaccard,
    similarity,
)
from .weighting import (
    Corpus,
    DocumentVector,
    ResolvedCount,
    WeightingConfig,
    build_vocabulary,
    document_frequency,
    idf,
    resolve_count,
    tf,
    vectorize,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonConfig",
    "ConfigError",
    "Corpus",
    "CorpusError",
    "DeltaEntry",
    "DeltaSummary",
    "DocumentVector",
    "DuplicateDocumentError",
    "EmptyCorpusError",
    "LexiconFormatError",
    "MEASURES",
    "MeasureAverages",
    "PairResult",
    "ProcessedDocument",
    "RawDocument",
    "ReportTable",
    "ResolvedCount",
    "SimilarityScore",
    "SynonymTable",
    "SynsimError",
    "UnknownDocumentError",
    "WeightingConfig",
    "ZeroDocumentFrequencyError",
    "anchor_matrix",
    "build_vocabulary",
    "compare_pair",
    "cosine",
    "delta_summary",
    "dice",
    "document_frequency",
    "dot",
    "filter_stopwords",
    "format_score",
    "idf",
    "jaccard",
    "load_corpus",
    "load_stem_lexicon",
    "load_stopwords",
    "load_synonym_table",
    "normalize",
    "preprocess",
    "read_documents",
    "render_report",
    "resolve_count",
    "similarity",
    "stem",
    "tf",
    "tokenize",
    "vectorize",
]
