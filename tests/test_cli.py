"""End-to-end command-line behavior, including the exit-code contract."""

import json
from pathlib import Path

import pytest

import synsim.evaluation
from synsim.cli import main

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
TRANSIT = FIXTURES / "corpus" / "transit"
ORCHARD = FIXTURES / "corpus" / "orchard"

FIXTURE_FLAGS = [
    "--stopwords", str(FIXTURES / "stopwords.txt"),
    "--stems", str(FIXTURES / "stems.tsv"),
    "--synonyms", str(FIXTURES / "synonyms.txt"),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def small_setup(tmp_path):
    """A three-document corpus with two identical files, plus empty lexicons."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "x.txt").write_text("alpha beta", encoding="utf-8")
    (corpus / "y.txt").write_text("alpha beta", encoding="utf-8")
    (corpus / "z.txt").write_text("gamma", encoding="utf-8")
    stopwords = tmp_path / "stopwords.txt"
    stopwords.write_text("", encoding="utf-8")
    stems = tmp_path / "stems.tsv"
    stems.write_text("", encoding="utf-8")
    synonyms = tmp_path / "synonyms.txt"
    synonyms.write_text("# no rows\n", encoding="utf-8")
    flags = [
        "--stopwords", str(stopwords),
        "--stems", str(stems),
        "--synonyms", str(synonyms),
    ]
    return corpus, flags


def test_sim_identical_files(small_setup, capsys):
    corpus, flags = small_setup
    code, out, _ = run(
        capsys, "sim", str(corpus / "x.txt"), str(corpus / "y.txt"), str(corpus),
        *flags, "--measures", "cosine",
    )
    assert code == 0
    assert out == "cosine traditional=1.000000 modified=1.000000 delta=0.000000\n"


def test_sim_measure_order_preserved(small_setup, capsys):
    corpus, flags = small_setup
    code, out, _ = run(
        capsys, "sim", str(corpus / "x.txt"), str(corpus / "y.txt"), str(corpus),
        *flags, "--measures", "dice,cosine",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("dice ")
    assert lines[1].startswith("cosine ")


def test_sim_traditional_mode_needs_no_synonyms(small_setup, capsys):
    corpus, flags = small_setup
    no_synonyms = flags[:4]
    code, out, _ = run(
        capsys, "sim", str(corpus / "x.txt"), str(corpus / "z.txt"), str(corpus),
        *no_synonyms, "--mode", "traditional", "--measures", "cosine",
    )
    assert code == 0
    assert "modified=" not in out
    assert "delta=" not in out


def test_sim_modified_mode_without_synonyms_is_a_config_error(small_setup, capsys):
    corpus, flags = small_setup
    no_synonyms = flags[:4]
    code, _, err = run(
        capsys, "sim", str(corpus / "x.txt"), str(corpus / "y.txt"), str(corpus),
        *no_synonyms,
    )
    assert code == 64
    assert "synonyms" in err


def test_sim_missing_file_exits_2(small_setup, capsys):
    corpus, flags = small_setup
    code, _, err = run(
        capsys, "sim", str(corpus / "missing.txt"), str(corpus / "y.txt"), str(corpus),
        *flags,
    )
    assert code == 2
    assert "missing.txt" in err


def test_fixture_pair_boost_shows_in_sim(capsys):
    code, out, _ = run(
        capsys, "sim", str(TRANSIT / "a01.txt"), str(TRANSIT / "a02.txt"), str(TRANSIT),
        *FIXTURE_FLAGS,
    )
    assert code == 0
    for line in out.splitlines():
        parts = dict(field.split("=") for field in line.split()[1:])
        assert float(parts["modified"]) > float(parts["traditional"])


def test_sim_weights_the_anchor_once_for_every_measure(capsys, monkeypatch):
    calls = []
    vectorize = synsim.evaluation.vectorize

    def counted(*args, **kwargs):
        calls.append(args[0].id)
        return vectorize(*args, **kwargs)

    monkeypatch.setattr(synsim.evaluation, "vectorize", counted)
    code, out, _ = run(
        capsys, "sim", str(TRANSIT / "a01.txt"), str(TRANSIT / "a02.txt"), str(TRANSIT),
        *FIXTURE_FLAGS, "--measures", "cosine,jaccard,dice",
    )
    assert code == 0
    assert len(out.splitlines()) == 3
    # The anchor's two own-term vectors, then per target its two vectors
    # and the anchor's synonym-reached terms.
    assert sorted(calls) == ["a01", "a01", "a01", "a02", "a02"]


def test_unknown_measure_exits_64(small_setup, capsys):
    corpus, flags = small_setup
    code, _, _ = run(
        capsys, "sim", str(corpus / "x.txt"), str(corpus / "y.txt"), str(corpus),
        *flags, "--measures", "euclid",
    )
    assert code == 64


def test_bad_flag_value_exits_64(small_setup, capsys):
    corpus, flags = small_setup
    code, _, _ = run(
        capsys, "sim", str(corpus / "x.txt"), str(corpus / "y.txt"), str(corpus),
        *flags, "--mode", "bogus",
    )
    assert code == 64


def test_unknown_subcommand_exits_64(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 64


def test_no_subcommand_exits_64(capsys):
    code, _, err = run(capsys)
    assert code == 64
    assert "command" in err


@pytest.mark.parametrize(
    "command", ["synsim", "sim", "matrix", "report", "preprocess", "vector"]
)
def test_help_exits_0(command, capsys):
    argv = ["--help"] if command == "synsim" else [command, "--help"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: synsim")


def test_matrix_json_layout(capsys):
    code, out, _ = run(
        capsys, "matrix", str(TRANSIT), "a01", *FIXTURE_FLAGS, "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["anchor"] == "a01"
    assert len(payload["rows"]) == 9 * 3
    assert set(payload["averages"]) == {"cosine", "jaccard", "dice"}


def test_matrix_unknown_anchor_exits_2(capsys):
    code, _, err = run(capsys, "matrix", str(TRANSIT), "zz99", *FIXTURE_FLAGS)
    assert code == 2
    assert "zz99" in err


def test_matrix_single_document_corpus_exits_2(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "only.txt").write_text("one document", encoding="utf-8")
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    code, _, _ = run(
        capsys, "matrix", str(corpus), "only",
        "--stopwords", str(empty), "--stems", str(empty),
        "--mode", "traditional",
    )
    assert code == 2


def test_matrix_csv_and_json_agree(capsys):
    code, json_out, _ = run(
        capsys, "matrix", str(TRANSIT), "a01", *FIXTURE_FLAGS, "--format", "json",
    )
    assert code == 0
    code, csv_out, _ = run(
        capsys, "matrix", str(TRANSIT), "a01", *FIXTURE_FLAGS, "--format", "csv",
    )
    assert code == 0
    payload = json.loads(json_out)
    csv_rows = [line.split(",") for line in csv_out.splitlines()[1:]]
    pair_rows = [r for r in csv_rows if r[1] != "average"]
    assert len(pair_rows) == len(payload["rows"])
    for json_row, csv_row in zip(payload["rows"], pair_rows):
        assert csv_row[0] == json_row["anchor"]
        assert csv_row[1] == json_row["target"]
        assert csv_row[2] == json_row["measure"]
        assert csv_row[3] == f"{json_row['traditional']:.6f}"
        assert csv_row[4] == f"{json_row['modified']:.6f}"
        assert csv_row[5] == f"{json_row['delta']:.6f}"


def test_report_gap_positive_for_every_measure(capsys):
    code, out, _ = run(
        capsys, "report", str(TRANSIT), str(ORCHARD), "a01", *FIXTURE_FLAGS,
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload["measures"]) == {"cosine", "jaccard", "dice"}
    for entry in payload["measures"].values():
        assert entry["gap"] > 0


def test_report_rerun_is_byte_identical(tmp_path, capsys):
    out_a = tmp_path / "first.json"
    out_b = tmp_path / "second.json"
    for out_path in (out_a, out_b):
        code, _, _ = run(
            capsys, "report", str(TRANSIT), str(ORCHARD), "a01",
            *FIXTURE_FLAGS, "--out", str(out_path),
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_report_overlapping_ids_exits_2(tmp_path, capsys):
    one = tmp_path / "one"
    two = tmp_path / "two"
    one.mkdir()
    two.mkdir()
    (one / "same.txt").write_text("alpha", encoding="utf-8")
    (two / "same.txt").write_text("beta", encoding="utf-8")
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    code, _, _ = run(
        capsys, "report", str(one), str(two), "same",
        "--stopwords", str(empty), "--stems", str(empty),
        "--mode", "traditional",
    )
    assert code == 2


def test_preprocess_trace(tmp_path, capsys):
    doc = tmp_path / "doc.txt"
    doc.write_text("Ал мұнай мұнай.", encoding="utf-8")
    stopwords = tmp_path / "stopwords.txt"
    stopwords.write_text("ал\n", encoding="utf-8")
    stems = tmp_path / "stems.tsv"
    stems.write_text("", encoding="utf-8")
    code, out, _ = run(
        capsys, "preprocess", str(doc),
        "--stopwords", str(stopwords), "--stems", str(stems),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "Ал\tал\t(stopword)"
    assert lines[1] == "мұнай\tмұнай\tмұнай"
    assert "мұнай\t2" in lines
    assert lines[-1] == "total_tokens\t2"


def test_preprocess_empty_file(tmp_path, capsys):
    doc = tmp_path / "doc.txt"
    doc.write_text("", encoding="utf-8")
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    code, out, _ = run(
        capsys, "preprocess", str(doc),
        "--stopwords", str(empty), "--stems", str(empty),
    )
    assert code == 0
    assert out.endswith("total_tokens\t0\n")


def test_vector_shows_hand_computed_weight(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "d1.txt").write_text("aa aa bb", encoding="utf-8")
    (corpus / "d2.txt").write_text("aa cc", encoding="utf-8")
    (corpus / "d3.txt").write_text("bb cc cc", encoding="utf-8")
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    code, out, _ = run(
        capsys, "vector", str(corpus), "d1",
        "--stopwords", str(empty), "--stems", str(empty),
        "--mode", "traditional",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "aa traditional=0.389975"
    assert all(float(line.split("=")[1]) >= 0 for line in lines)


def test_vector_unknown_id_exits_2(capsys):
    code, _, _ = run(
        capsys, "vector", str(TRANSIT), "nope", *FIXTURE_FLAGS,
    )
    assert code == 2


def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "x.txt").write_text("alpha beta", encoding="utf-8")
    (corpus / "y.txt").write_text("alpha beta", encoding="utf-8")
    (corpus / "z.txt").write_text("gamma", encoding="utf-8")
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "stopwords": str(empty),
                "stems": str(empty),
                "mode": "traditional",
                "measures": ["cosine"],
                "format": "csv",
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys, "matrix", str(corpus), "x", "--config", str(config),
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)  # the flag overrode the config file's csv
    assert [r["measure"] for r in payload["rows"]] == ["cosine", "cosine"]


def test_config_file_unknown_key_exits_64(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"colour": "red"}), encoding="utf-8")
    code, _, err = run(
        capsys, "preprocess", "whatever.txt", "--config", str(config),
    )
    assert code == 64
    assert "colour" in err


def test_config_file_invalid_json_exits_64(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("{not json", encoding="utf-8")
    code, _, _ = run(
        capsys, "preprocess", "whatever.txt", "--config", str(config),
    )
    assert code == 64


def test_out_flag_writes_file_and_not_stdout(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, out, _ = run(
        capsys, "matrix", str(TRANSIT), "a01", *FIXTURE_FLAGS,
        "--format", "csv", "--out", str(out_path),
    )
    assert code == 0
    assert out == ""
    content = out_path.read_text(encoding="utf-8")
    assert content.startswith("anchor,target,measure,")


@pytest.mark.parametrize(
    "entry",
    [{"measures": 5}, {"stopwords": 3}, {"out": 2}],
    ids=["measures-number", "stopwords-number", "out-number"],
)
def test_config_file_value_of_wrong_type_exits_64(entry, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(entry), encoding="utf-8")
    code, out, err = run(
        capsys, "matrix", str(TRANSIT), "a01", *FIXTURE_FLAGS, "--config", str(config),
    )
    assert code == 64
    assert out == ""
    assert next(iter(entry)) in err


def test_undecodable_corpus_file_is_named(small_setup, capsys):
    corpus, flags = small_setup
    (corpus / "bad.txt").write_bytes(b"\xff\xfe alpha")
    code, _, err = run(capsys, "matrix", str(corpus), "x", *flags)
    assert code == 2
    assert "bad.txt" in err


def test_malformed_stems_file_is_named(small_setup, tmp_path, capsys):
    corpus, flags = small_setup
    stems = tmp_path / "broken_stems.tsv"
    stems.write_text("x\n", encoding="utf-8")
    code, _, err = run(capsys, "matrix", str(corpus), "x", *flags, "--stems", str(stems))
    assert code == 2
    assert "broken_stems.tsv" in err
    assert "line 1" in err


def test_undecodable_preprocess_input_is_named(tmp_path, capsys):
    doc = tmp_path / "latin1.txt"
    doc.write_bytes(b"caf\xe9")
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    code, _, err = run(
        capsys, "preprocess", str(doc), "--stopwords", str(empty), "--stems", str(empty),
    )
    assert code == 2
    assert "latin1.txt" in err


def test_sim_rejects_same_named_file_outside_corpus(small_setup, tmp_path, capsys):
    corpus, flags = small_setup
    outside = tmp_path / "other"
    outside.mkdir()
    (outside / "x.txt").write_text("gamma delta", encoding="utf-8")
    code, out, err = run(
        capsys, "sim", str(outside / "x.txt"), str(corpus / "y.txt"), str(corpus), *flags,
    )
    assert code == 2
    assert out == ""
    assert str(outside / "x.txt") in err


def test_sim_accepts_file_named_through_another_path_to_corpus(small_setup, capsys):
    corpus, flags = small_setup
    roundabout = corpus / ".." / corpus.name / "x.txt"
    code, out, _ = run(
        capsys, "sim", str(roundabout), str(corpus / "y.txt"), str(corpus),
        *flags, "--measures", "cosine",
    )
    assert code == 0
    assert out == "cosine traditional=1.000000 modified=1.000000 delta=0.000000\n"
