"""Byte-for-byte CLI output on the fixture corpus.

Each file under golden/ was written by the CLI before a rewrite of the
code that produces it; any change to scores or formatting shows up here
as a diff.
"""

import json
from pathlib import Path

import pytest

from synsim.cli import main

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
TRANSIT = FIXTURES / "corpus" / "transit"
ORCHARD = FIXTURES / "corpus" / "orchard"
GOLDEN = Path(__file__).resolve().parent / "golden"
TEXTS = Path(__file__).resolve().parent / "texts"

FIXTURE_FLAGS = [
    "--stopwords", str(FIXTURES / "stopwords.txt"),
    "--stems", str(FIXTURES / "stems.tsv"),
    "--synonyms", str(FIXTURES / "synonyms.txt"),
]

CASES = {
    "report.json": ["report", str(TRANSIT), str(ORCHARD), "a01", "--format", "json"],
    "report.csv": ["report", str(TRANSIT), str(ORCHARD), "a01", "--format", "csv"],
    "matrix.json": ["matrix", str(TRANSIT), "a01", "--format", "json"],
    "matrix.csv": ["matrix", str(TRANSIT), "a01", "--format", "csv"],
    "vector.txt": ["vector", str(TRANSIT), "a01"],
    "preprocess.txt": ["preprocess", str(TRANSIT / "a01.txt")],
    # Words followed by separators, before and after their bare forms.
    "preprocess-punctuation.txt": ["preprocess", str(TEXTS / "punctuation.txt")],
    "sim.txt": ["sim", str(TRANSIT / "a01.txt"), str(TRANSIT / "a02.txt"), str(TRANSIT)],
    "sim-traditional.txt": [
        "sim", str(TRANSIT / "a01.txt"), str(TRANSIT / "a02.txt"), str(TRANSIT),
        "--mode", "traditional",
    ],
    "sim-modified.txt": [
        "sim", str(TRANSIT / "a01.txt"), str(TRANSIT / "a02.txt"), str(TRANSIT),
        "--mode", "modified",
    ],
    "sim-dice-cosine.txt": [
        "sim", str(TRANSIT / "a01.txt"), str(TRANSIT / "a02.txt"), str(TRANSIT),
        "--measures", "dice,cosine",
    ],
    "vector-traditional.txt": ["vector", str(TRANSIT), "a01", "--mode", "traditional"],
    "vector-modified.txt": ["vector", str(TRANSIT), "a01", "--mode", "modified"],
    "matrix-jaccard.csv": [
        "matrix", str(TRANSIT), "a01", "--measures", "jaccard", "--format", "csv",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_bytes(name, capsysbinary):
    code = main(CASES[name] + FIXTURE_FLAGS)
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
