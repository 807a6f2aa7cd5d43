"""Tests of the benchmark itself: generator, reference scorer, tracer, runner.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
FIXTURES = ROOT / "fixtures"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
from synsim import (  # noqa: E402
    compare_pair,
    load_corpus,
    load_stem_lexicon,
    load_stopwords,
    load_synonym_table,
)
from synsim.cli import main as cli_main  # noqa: E402

SMALL = {
    "clusters": [("similar", "s", 15), ("dissimilar", "d", 15)],
    "vocab": 300,
    "tokens": 150,
    "synonym_rows_count": 40,
}
DENSE = dict(SMALL, synonym_rows_count=75)


def files(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def test_same_seed_gives_byte_identical_corpora(tmp_path):
    gen.generate(tmp_path / "a", 7, **SMALL)
    gen.generate(tmp_path / "b", 7, **SMALL)
    gen.generate(tmp_path / "c", 8, **SMALL)
    first = files(tmp_path / "a")
    assert len(first) == 3 + 30
    assert first == files(tmp_path / "b")
    assert first != files(tmp_path / "c")


def test_dense_table_covers_every_stem(tmp_path):
    info = gen.generate(tmp_path, 3, **DENSE)
    lexicons = reference.Lexicons(info["stopwords"], info["stems"], info["synonyms"])
    stems = {line.split("\t")[1] for line in reference.content_lines(info["stems"])}
    assert set(lexicons.row_of) == stems
    assert all(len(row) == 4 for row in lexicons.rows)


def run_cli(capsys, *argv) -> str:
    capsys.readouterr()
    assert cli_main([str(a) for a in argv]) == 0
    return capsys.readouterr().out


def check_cli_against_reference(capsys, stopwords, stems, synonyms, similar, dissimilar, anchor, doc):
    resources = ["--stopwords", stopwords, "--stems", stems, "--synonyms", synonyms]
    lexicons = reference.Lexicons(stopwords, stems, synonyms)
    both = reference.Corpus(lexicons, [similar, dissimilar])
    similar_ids = sorted(p.stem for p in Path(similar).glob("*.txt"))
    dissimilar_ids = sorted(p.stem for p in Path(dissimilar).glob("*.txt"))
    assert run_cli(
        capsys, "report", *resources, similar, dissimilar, anchor
    ) == reference.report(both, similar_ids, dissimilar_ids, anchor)
    one = reference.Corpus(lexicons, [similar])
    assert run_cli(capsys, "matrix", *resources, similar, anchor) == reference.matrix(one, anchor)
    assert run_cli(capsys, "vector", *resources, similar, doc) == reference.vector(one, doc)


def test_reference_matches_cli_on_fixture_corpus(capsys):
    check_cli_against_reference(
        capsys,
        FIXTURES / "stopwords.txt",
        FIXTURES / "stems.tsv",
        FIXTURES / "synonyms.txt",
        FIXTURES / "corpus" / "transit",
        FIXTURES / "corpus" / "orchard",
        "a01",
        "a04",
    )


@pytest.mark.parametrize("seed", [11, 12, 13])
@pytest.mark.parametrize("params", [SMALL, DENSE], ids=["sparse", "dense"])
def test_reference_matches_cli_on_generated_corpora(capsys, tmp_path, seed, params):
    info = gen.generate(tmp_path, seed, **params)
    similar, dissimilar = info["directories"].values()
    rng = random.Random(seed)
    check_cli_against_reference(
        capsys,
        info["stopwords"],
        info["stems"],
        info["synonyms"],
        similar,
        dissimilar,
        rng.choice(info["ids"]["similar"]),
        rng.choice(info["ids"]["similar"]),
    )


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_reference_pairs_equal_compare_pair_bit_for_bit(tmp_path, seed):
    info = gen.generate(tmp_path, seed, **DENSE)
    dirs = list(info["directories"].values())
    lexicon = load_stem_lexicon(info["stems"])
    corpus = load_corpus(
        dirs,
        load_stopwords(info["stopwords"]),
        lexicon,
        load_synonym_table(info["synonyms"], lexicon),
    )
    ref = reference.Corpus(
        reference.Lexicons(info["stopwords"], info["stems"], info["synonyms"]), dirs
    )
    assert ref.ids == list(corpus.ids)
    rng = random.Random(seed)
    for _ in range(40):
        a, b = rng.sample(ref.ids, 2)
        measure = rng.choice(reference.MEASURES)
        got = compare_pair(corpus, a, b, measure)
        want = ref.pair(a, b, measure)
        assert (got.traditional.hex(), got.modified.hex()) == tuple(v.hex() for v in want)


def test_benchmark_json_lists_every_metric_the_runner_prints():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import run

    assert [m["name"] for m in declared["per_layer"]] == spans.metric_names()
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in declared["workloads"]] == list(run.SPEC["workloads"])


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_traced_run_reports_every_layer_and_adds_up():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "report-n200",
         "--seed", "5", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = last_json(out.stdout)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == spans.metric_names()
    for name in ("weighting.vectorize.calls", "weighting.idf.calls",
                 "weighting.resolve.calls", "similarity.calls",
                 "pipeline.preprocess.calls", "weighting.corpus_build.calls"):
        assert metrics[name] > 0, name
    layer_sum = sum(v for k, v in metrics.items() if k.endswith("_s") and k != "trace.overhead_s")
    traced_wall = float(out.stdout.split("traced wall = ")[1].split()[0])
    assert layer_sum == pytest.approx(traced_wall, abs=1e-5)


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "report-n200",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
