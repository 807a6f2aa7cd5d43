"""Command-line front end.

Subcommands: sim, matrix, report, preprocess, vector. A run parses its
arguments into one namespace, then fills in every setting not given as a
flag from the optional JSON config file (--config), and failing that from
the built-in defaults. The chosen command reads that namespace and returns
its output text, which ``main`` writes once, to stdout or to --out. Exit
codes are a stable contract for scripting: 0 success, 2 input or lookup
errors, 64 configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
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
from .lexicons import load_stem_lexicon, load_stopwords, load_synonym_table
from .pipeline import RawDocument, _ChunkTerms, normalize, preprocess, tokenize
from .similarity import MEASURES
from .weighting import MODES as SCHEMES
from .weighting import MODIFIED_IDFS, Corpus, vectorize

MODES = (*SCHEMES, "both")

DEFAULTS = {
    "mode": "both",
    "measures": list(MEASURES),
    "format": "json",
    "modified_idf": "resolved",
}

PATH_KEYS = ("stopwords", "stems", "synonyms", "out")
CONFIG_FILE_KEYS = (*PATH_KEYS, "mode", "measures", "format", "modified_idf")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


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
        raw = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # also an over-long integer, deep nesting
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    for key, value in data.items():
        check_choice("config file key", key, CONFIG_FILE_KEYS)
        if key in PATH_KEYS and not isinstance(value, str):
            raise ConfigError(f"config file {path}: {key!r} must be a string, not {value!r}")
    return data


def resolve_config(args: argparse.Namespace) -> None:
    """Fill each setting not given as a flag from the config file, else the default; validate."""
    from_file = _load_config_file(args.config) if args.config else {}
    for key in CONFIG_FILE_KEYS:
        # modified_idf has no flag. A null in the file stays null, and fails below.
        if getattr(args, key, None) is None:
            setattr(args, key, from_file.get(key, DEFAULTS.get(key)))
    for key in ("config", *PATH_KEYS):
        if getattr(args, key) == "":
            raise ConfigError(f"{key} is an empty path")
    check_choice("mode", args.mode, MODES)
    check_choice("format", args.format, FORMATS)
    check_choice("modified_idf", args.modified_idf, MODIFIED_IDFS)
    args.measures = _parse_measures(args.measures)
    if not args.stopwords:
        raise ConfigError("--stopwords is required")
    if not args.stems:
        raise ConfigError("--stems is required")


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


def _load_lexicons(args: argparse.Namespace) -> tuple[frozenset[str], dict[str, str]]:
    return (
        _read_input(load_stopwords, args.stopwords),
        _read_input(load_stem_lexicon, args.stems),
    )


def _load_corpus(args: argparse.Namespace, directories) -> tuple[Corpus, list[list[str]]]:
    """The corpus of ``directories`` for a weighted command.

    Also returns the document ids of each directory, in id order.
    """
    if args.mode != "traditional" and not args.synonyms:
        raise ConfigError(
            f"mode {args.mode!r} requires --synonyms (or a synonyms entry "
            "in the config file)"
        )
    stopwords, lexicon = _load_lexicons(args)
    table = None
    if args.synonyms:
        table = _read_input(load_synonym_table, args.synonyms, lexicon)
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


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        # OSError from open, write or close (a full disk fails at close, where
        # the buffer is flushed, and carries no file name); ValueError from a
        # NUL or a lone surrogate in the path, which a config file can hold.
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except (OSError, ValueError) as exc:
            raise SynsimError(f"cannot write {args.out!r}: {exc}") from exc
    else:
        # A text stream encodes all the text before buffering, so this writes all or nothing.
        try:
            sys.stdout.write(text)
        except UnicodeEncodeError as exc:
            raise SynsimError(
                f"stdout's encoding {sys.stdout.encoding} cannot write the character "
                f"{ascii(exc.object[exc.start])}; use --out, which writes UTF-8"
            ) from exc


def _columns(args: argparse.Namespace) -> tuple[str, ...]:
    """The weighting schemes that ``sim`` and ``vector`` print, in order."""
    return SCHEMES if args.mode == "both" else (args.mode,)


def cmd_sim(args: argparse.Namespace) -> str:
    corpus, _ = _load_corpus(args, [args.corpus_dir])
    id_a = _document_id(args.file_a, args.corpus_dir)
    id_b = _document_id(args.file_b, args.corpus_dir)
    table = anchor_matrix(corpus, id_a, [id_b], args.measures, ComparisonConfig(args.modified_idf))
    columns = _columns(args)
    if args.mode == "both":
        columns += ("delta",)
    lines = [
        " ".join([row.measure, *(f"{c}={format_score(getattr(row, c))}" for c in columns)])
        for row in table.rows
    ]
    return "".join(line + "\n" for line in lines)


def _tables(args: argparse.Namespace, directories, anchor_id) -> list[ReportTable]:
    """One table per directory: ``anchor_id`` against the directory's other documents."""
    corpus, directory_ids = _load_corpus(args, directories)
    comparison = ComparisonConfig(args.modified_idf)
    return [
        anchor_matrix(
            corpus,
            anchor_id,
            [doc_id for doc_id in ids if doc_id != anchor_id],
            args.measures,
            comparison,
        )
        for ids in directory_ids
    ]


def cmd_matrix(args: argparse.Namespace) -> str:
    (table,) = _tables(args, [args.corpus_dir], args.anchor_id)
    return render_report(table, args.format)


def cmd_report(args: argparse.Namespace) -> str:
    similar, dissimilar = _tables(args, [args.similar_dir, args.dissimilar_dir], args.anchor_id)
    return render_report(delta_summary(similar, dissimilar), args.format)


def cmd_preprocess(args: argparse.Namespace) -> str:
    path = Path(args.file)
    text = _read_input(Path.read_text, path, "utf-8")
    stopwords, lexicon = _load_lexicons(args)
    # One memo for the counts and the trace, so the two cannot disagree.
    terms = _ChunkTerms(stopwords, lexicon)
    processed = preprocess(RawDocument(id=path.stem, text=text), stopwords, lexicon, terms)
    lines = []
    for token in tokenize(text):
        # A token is an alphabetic chunk, so it yields one term or none.
        (term,) = terms[token] or ("(stopword)",)
        lines.append(f"{token}\t{normalize(token)}\t{term}")
    lines.append("")
    lines.append("counts:")
    for term in sorted(processed.counts):
        lines.append(f"{term}\t{processed.counts[term]}")
    lines.append(f"total_tokens\t{processed.total_tokens}")
    return "".join(line + "\n" for line in lines)


def cmd_vector(args: argparse.Namespace) -> str:
    corpus, _ = _load_corpus(args, [args.corpus_dir])
    doc = corpus.document(args.doc_id)
    vocabulary = tuple(sorted(doc.counts))
    weightings = dict(zip(SCHEMES, ComparisonConfig(args.modified_idf).weightings(corpus)))
    vectors = {c: vectorize(doc, corpus, vocabulary, weightings[c]) for c in _columns(args)}
    lines = [
        " ".join([term, *(f"{c}={format_score(v.get(term))}" for c, v in vectors.items())])
        for term in vocabulary
    ]
    return "".join(line + "\n" for line in lines)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        resolve_config(args)
        _emit(args, args.run(args))
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (SynsimError, OSError, UnicodeDecodeError) as exc:
        # One line, even where a path in the message holds a line break.
        message = "\\n".join(str(exc).splitlines())
        print(f"synsim: error: {message}", file=sys.stderr)
        return 64 if isinstance(exc, ConfigError) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
