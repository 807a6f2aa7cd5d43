"""Byte-for-byte CLI output on the fixture corpus.

The files under golden/ were written by the CLI before the weighting and
loading code was consolidated; any change to scores or formatting shows
up here as a diff.
"""

from pathlib import Path

import pytest

from synsim.cli import main

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
TRANSIT = FIXTURES / "corpus" / "transit"
ORCHARD = FIXTURES / "corpus" / "orchard"
GOLDEN = Path(__file__).resolve().parent / "golden"

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
    "sim.txt": ["sim", str(TRANSIT / "a01.txt"), str(TRANSIT / "a02.txt"), str(TRANSIT)],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_bytes(name, capsysbinary):
    code = main(CASES[name] + FIXTURE_FLAGS)
    assert code == 0
    assert capsysbinary.readouterr().out == (GOLDEN / name).read_bytes()
