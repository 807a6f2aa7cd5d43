"""Byte-for-byte CLI output on the fixture corpora.

Each file under golden/ was written by the CLI before a rewrite of the
code that produces it; any change to scores or formatting shows up here
as a diff. Each case holds its full argv, lexicon flags included, so the
English and the Kazakh cases each name their own lexicons.
"""

import json
from pathlib import Path

import pytest

from synsim.cli import main

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
TRANSIT = FIXTURES / "corpus" / "transit"
ORCHARD = FIXTURES / "corpus" / "orchard"
KK = FIXTURES / "kk"
OIL = KK / "corpus" / "oil"
STEPPE = KK / "corpus" / "steppe"
GOLDEN = Path(__file__).resolve().parent / "golden"
TEXTS = Path(__file__).resolve().parent / "texts"


def lexicon_flags(root):
    """The three lexicon flags for the fixture set under ``root``."""
    return [
        "--stopwords", str(root / "stopwords.txt"),
        "--stems", str(root / "stems.tsv"),
        "--synonyms", str(root / "synonyms.txt"),
    ]


EN_FLAGS = lexicon_flags(FIXTURES)
KK_FLAGS = lexicon_flags(KK)
A01_A02 = [str(TRANSIT / "a01.txt"), str(TRANSIT / "a02.txt"), str(TRANSIT)]

CASES = {
    "report.json": ["report", str(TRANSIT), str(ORCHARD), "a01", "--format", "json", *EN_FLAGS],
    "report.csv": ["report", str(TRANSIT), str(ORCHARD), "a01", "--format", "csv", *EN_FLAGS],
    "matrix.json": ["matrix", str(TRANSIT), "a01", "--format", "json", *EN_FLAGS],
    "matrix.csv": ["matrix", str(TRANSIT), "a01", "--format", "csv", *EN_FLAGS],
    "vector.txt": ["vector", str(TRANSIT), "a01", *EN_FLAGS],
    "preprocess.txt": ["preprocess", str(TRANSIT / "a01.txt"), *EN_FLAGS],
    # Words followed by separators, before and after their bare forms.
    "preprocess-punctuation.txt": ["preprocess", str(TEXTS / "punctuation.txt"), *EN_FLAGS],
    # One line in NFC, the next in NFD: a combining mark splits a word.
    "preprocess-nfd.txt": ["preprocess", str(TEXTS / "nfd.txt"), *EN_FLAGS],
    "sim.txt": ["sim", *A01_A02, *EN_FLAGS],
    "sim-traditional.txt": ["sim", *A01_A02, "--mode", "traditional", *EN_FLAGS],
    "sim-modified.txt": ["sim", *A01_A02, "--mode", "modified", *EN_FLAGS],
    "sim-dice-cosine.txt": ["sim", *A01_A02, "--measures", "dice,cosine", *EN_FLAGS],
    "vector-traditional.txt": ["vector", str(TRANSIT), "a01", "--mode", "traditional", *EN_FLAGS],
    "vector-modified.txt": ["vector", str(TRANSIT), "a01", "--mode", "modified", *EN_FLAGS],
    "matrix-jaccard.csv": [
        "matrix", str(TRANSIT), "a01", "--measures", "jaccard", "--format", "csv", *EN_FLAGS,
    ],
    # A measure listed twice is scored once, in first-listed order.
    "matrix-measures-twice.csv": [
        "matrix", str(TRANSIT), "a01", "--measures", "dice,cosine,dice", "--format", "csv",
        *EN_FLAGS,
    ],
    # The Kazakh set: case folding of its letters, inflected forms stemmed,
    # and synonym rows reached through them or written in mixed case.
    "kk-report.json": ["report", str(OIL), str(STEPPE), "m01", "--format", "json", *KK_FLAGS],
    "kk-matrix.csv": ["matrix", str(OIL), "m01", "--format", "csv", *KK_FLAGS],
    "kk-vector.txt": ["vector", str(OIL), "m01", *KK_FLAGS],
    "kk-preprocess.txt": ["preprocess", str(OIL / "m02.txt"), *KK_FLAGS],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_bytes(name, capsysbinary):
    code = main(CASES[name])
    assert code == 0
    assert capsysbinary.readouterr().out == (GOLDEN / name).read_bytes()


# Every setting of this case comes from the config file, including
# modified_idf, which has no flag.
CONFIG_ONLY = {
    "stopwords": str(FIXTURES / "stopwords.txt"),
    "stems": str(FIXTURES / "stems.tsv"),
    "synonyms": str(FIXTURES / "synonyms.txt"),
    "modified_idf": "raw",
    "measures": ["dice", "cosine"],
    "format": "csv",
}


def test_config_file_output_matches_golden_bytes(tmp_path, capsysbinary):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG_ONLY), encoding="utf-8")
    code = main(["matrix", str(TRANSIT), "a01", "--config", str(config)])
    assert code == 0
    assert capsysbinary.readouterr().out == (GOLDEN / "matrix-config.csv").read_bytes()


def test_the_cases_name_exactly_the_golden_files():
    # A golden file no case writes, or a case with no file, is a mistake.
    assert sorted([*CASES, "matrix-config.csv"]) == sorted(p.name for p in GOLDEN.iterdir())
