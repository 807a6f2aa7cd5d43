"""Command-line front end.

Subcommands: sim, matrix, report, preprocess, vector. Exit codes are a
stable contract for scripting: 0 success, 2 input or lookup errors, 64
configuration errors. Flags override values from an optional JSON config
file (--config), which overrides built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, CorpusError, LexiconFormatError, SynsimError, check_choice
from .evaluation import (
    FORMATS,
    ComparisonConfig,
    ReportTable,
    anchor_matrix,
    delta_summary,
    format_score,
    load_corpus,
    read_documents,
    render_report,
)
from .lexicons import (
    StemLexicon,
    StopwordList,
    load_stem_lexicon,
    load_stopwords,
    load_synonym_table,
)
from .pipeline import RawDocument, normalize, preprocess, stem, tokenize
from .similarity import MEASURES
from .weighting import MODES as SCHEMES
from .weighting import MODIFIED_IDFS, SMOOTHINGS, Corpus, vectorize

MODES = (*SCHEMES, "both")

DEFAULTS = {
    "mode": "both",
    "measures": list(MEASURES),
    "smoothing": "plus_one_when_zero",
    "format": "json",
    "modified_idf": "resolved",
}

PATH_KEYS = ("stopwords", "stems", "synonyms", "out")
CONFIG_FILE_KEYS = (*PATH_KEYS, "mode", "measures", "smoothing", "format", "modified_idf")


class UsageError(ConfigError):
    """Raised for bad flags so main() can map them to exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class CliConfig:
    stopwords_path: str
    stems_path: str
    synonyms_path: str | None
    mode: str
    measures: list[str]
    smoothing: str
    output_format: str
    output_path: str | None
    modified_idf: str


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="synsim",
        description="Text document similarity with synonym-aware TF-IDF.",
    )
    common = _Parser(add_help=False)
    common.add_argument("--stopwords", help="stopword file, one word per line")
    common.add_argument("--stems", help="surface-to-stem TSV file")
    common.add_argument("--synonyms", help="synonym table file, one row per line")
    common.add_argument(
        "--mode",
        choices=MODES,
        help="schemes printed by sim and vector; matrix and report always "
        "print both, and any mode but traditional requires --synonyms",
    )
    common.add_argument("--measures", help="comma-separated subset of cosine,jaccard,dice")
    common.add_argument("--smoothing", choices=SMOOTHINGS)
    common.add_argument("--format", choices=FORMATS)
    common.add_argument("--out", help="write output to this file instead of stdout")
    common.add_argument("--config", help="JSON config file; flags override it")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sim", parents=[common], help="compare two documents")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("corpus_dir", help="directory supplying the IDF collection")
    p.set_defaults(run=cmd_sim)

    p = sub.add_parser("matrix", parents=[common], help="one anchor against the rest")
    p.add_argument("corpus_dir")
    p.add_argument("anchor_id")
    p.set_defaults(run=cmd_matrix)

    p = sub.add_parser(
        "report", parents=[common], help="similar/dissimilar delta summary"
    )
    p.add_argument("similar_dir")
    p.add_argument("dissimilar_dir")
    p.add_argument("anchor_id")
    p.set_defaults(run=cmd_report)

    p = sub.add_parser("preprocess", parents=[common], help="show the token trace")
    p.add_argument("file")
    p.set_defaults(run=cmd_preprocess)

    p = sub.add_parser("vector", parents=[common], help="dump a document's weights")
    p.add_argument("corpus_dir")
    p.add_argument("doc_id")
    p.set_defaults(run=cmd_vector)

    return parser


def _parse_measures(value) -> list[str]:
    if isinstance(value, str):
        value = [m.strip() for m in value.split(",") if m.strip()]
    elif not (isinstance(value, list) and all(isinstance(m, str) for m in value)):
        raise ConfigError(f"measures must be a string or a list of strings, not {value!r}")
    measures = list(dict.fromkeys(value))
    if not measures:
        raise ConfigError("at least one measure is required")
    for measure in measures:
        check_choice("measure", measure, MEASURES)
    return measures


def _load_config_file(path) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    for key, value in data.items():
        check_choice("config file key", key, CONFIG_FILE_KEYS)
        if key in PATH_KEYS and not isinstance(value, str):
            raise ConfigError(f"config file {path}: {key!r} must be a string, not {value!r}")
    return data


def resolve_config(args: argparse.Namespace) -> CliConfig:
    """Merge flags over config-file values over defaults, then validate."""
    from_file = _load_config_file(args.config) if args.config else {}

    def pick(flag_value, file_key, default=None):
        if flag_value is not None:
            return flag_value
        if file_key in from_file:
            return from_file[file_key]
        return default

    mode = pick(args.mode, "mode", DEFAULTS["mode"])
    check_choice("mode", mode, MODES)
    smoothing = pick(args.smoothing, "smoothing", DEFAULTS["smoothing"])
    check_choice("smoothing", smoothing, SMOOTHINGS)
    output_format = pick(args.format, "format", DEFAULTS["format"])
    check_choice("format", output_format, FORMATS)
    modified_idf = from_file.get("modified_idf", DEFAULTS["modified_idf"])
    check_choice("modified_idf", modified_idf, MODIFIED_IDFS)
    measures = _parse_measures(pick(args.measures, "measures", DEFAULTS["measures"]))

    stopwords_path = pick(args.stopwords, "stopwords")
    stems_path = pick(args.stems, "stems")
    if not stopwords_path:
        raise ConfigError("--stopwords is required")
    if not stems_path:
        raise ConfigError("--stems is required")

    return CliConfig(
        stopwords_path=stopwords_path,
        stems_path=stems_path,
        synonyms_path=pick(args.synonyms, "synonyms"),
        mode=mode,
        measures=measures,
        smoothing=smoothing,
        output_format=output_format,
        output_path=pick(args.out, "out"),
        modified_idf=modified_idf,
    )


def _require_file(path):
    if not Path(path).is_file():
        raise CorpusError(f"not a readable file: {path}")


def _read_input(load, path, *args):
    """``load(path, *args)`` on an input file, naming the file in any error."""
    _require_file(path)
    try:
        return load(path, *args)
    except (LexiconFormatError, UnicodeDecodeError) as exc:
        raise SynsimError(f"{path}: {exc}") from exc


def _load_lexicons(cfg: CliConfig) -> tuple[StopwordList, StemLexicon]:
    return (
        _read_input(load_stopwords, cfg.stopwords_path),
        _read_input(load_stem_lexicon, cfg.stems_path),
    )


def _load_corpus(cfg: CliConfig, directories) -> tuple[Corpus, list[list[str]]]:
    """The corpus of ``directories`` for a weighted command.

    Also returns the document ids of each directory, in id order.
    """
    if cfg.mode != "traditional" and not cfg.synonyms_path:
        raise ConfigError(
            f"mode {cfg.mode!r} requires --synonyms (or a synonyms entry "
            "in the config file)"
        )
    stopwords, lexicon = _load_lexicons(cfg)
    table = None
    if cfg.synonyms_path:
        table = _read_input(load_synonym_table, cfg.synonyms_path, lexicon)
    read = [(directory, read_documents(directory)) for directory in directories]
    corpus = load_corpus(read, stopwords, lexicon, table)
    return corpus, [[doc.id for doc in docs] for _, docs in read]


def _document_id(path, corpus_dir) -> str:
    """The id of ``path``, which must be a ``.txt`` file in ``corpus_dir``."""
    _require_file(path)
    path = Path(path)
    if path.suffix != ".txt" or path.parent.resolve() != Path(corpus_dir).resolve():
        raise CorpusError(f"{path} is not a .txt file in the corpus directory {corpus_dir}")
    return path.stem


def _comparison_config(cfg: CliConfig) -> ComparisonConfig:
    return ComparisonConfig(smoothing=cfg.smoothing, modified_idf=cfg.modified_idf)


def _emit(cfg: CliConfig, text: str) -> None:
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _columns(cfg: CliConfig) -> tuple[str, ...]:
    """The weighting schemes that ``sim`` and ``vector`` print, in order."""
    return SCHEMES if cfg.mode == "both" else (cfg.mode,)


def cmd_sim(cfg: CliConfig, args: argparse.Namespace) -> int:
    corpus, _ = _load_corpus(cfg, [args.corpus_dir])
    id_a = _document_id(args.file_a, args.corpus_dir)
    id_b = _document_id(args.file_b, args.corpus_dir)
    table = anchor_matrix(corpus, id_a, [id_b], cfg.measures, _comparison_config(cfg))
    columns = _columns(cfg)
    if cfg.mode == "both":
        columns += ("delta",)
    lines = [
        " ".join([row.measure, *(f"{c}={format_score(getattr(row, c))}" for c in columns)])
        for row in table.rows
    ]
    _emit(cfg, "".join(line + "\n" for line in lines))
    return 0


def _tables(cfg: CliConfig, directories, anchor_id) -> list[ReportTable]:
    """One table per directory: ``anchor_id`` against the directory's other documents."""
    corpus, directory_ids = _load_corpus(cfg, directories)
    corpus.document(anchor_id)
    comparison = _comparison_config(cfg)
    return [
        anchor_matrix(
            corpus,
            anchor_id,
            [doc_id for doc_id in ids if doc_id != anchor_id],
            cfg.measures,
            comparison,
        )
        for ids in directory_ids
    ]


def cmd_matrix(cfg: CliConfig, args: argparse.Namespace) -> int:
    (table,) = _tables(cfg, [args.corpus_dir], args.anchor_id)
    _emit(cfg, render_report(table, cfg.output_format))
    return 0


def cmd_report(cfg: CliConfig, args: argparse.Namespace) -> int:
    similar, dissimilar = _tables(cfg, [args.similar_dir, args.dissimilar_dir], args.anchor_id)
    _emit(cfg, render_report(delta_summary(similar, dissimilar), cfg.output_format))
    return 0


def cmd_preprocess(cfg: CliConfig, args: argparse.Namespace) -> int:
    path = Path(args.file)
    text = _read_input(Path.read_text, path, "utf-8")
    stopwords, lexicon = _load_lexicons(cfg)
    doc = RawDocument(id=path.stem, text=text)
    lines = []
    for token in tokenize(text):
        norm = normalize(token)
        if norm in stopwords:
            lines.append(f"{token}\t{norm}\t(stopword)")
        else:
            lines.append(f"{token}\t{norm}\t{stem(norm, lexicon)}")
    processed = preprocess(doc, stopwords, lexicon)
    lines.append("")
    lines.append("counts:")
    for term in sorted(processed.counts):
        lines.append(f"{term}\t{processed.counts[term]}")
    lines.append(f"total_tokens\t{processed.total_tokens}")
    _emit(cfg, "".join(line + "\n" for line in lines))
    return 0


def cmd_vector(cfg: CliConfig, args: argparse.Namespace) -> int:
    corpus, _ = _load_corpus(cfg, [args.corpus_dir])
    doc = corpus.document(args.doc_id)
    vocabulary = tuple(sorted(doc.counts))
    weightings = dict(zip(SCHEMES, _comparison_config(cfg).weightings(corpus)))
    vectors = {c: vectorize(doc, corpus, vocabulary, weightings[c]) for c in _columns(cfg)}
    lines = [
        " ".join([term, *(f"{c}={format_score(v.get(term))}" for c, v in vectors.items())])
        for term in vocabulary
    ]
    _emit(cfg, "".join(line + "\n" for line in lines))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"synsim: error: {exc}", file=sys.stderr)
        return 64
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.run(resolve_config(args), args)
    except ConfigError as exc:
        print(f"synsim: error: {exc}", file=sys.stderr)
        return 64
    except (SynsimError, OSError, UnicodeDecodeError) as exc:
        print(f"synsim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
